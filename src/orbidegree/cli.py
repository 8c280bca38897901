"""Command-line front end with stable JSON output and a fixed exit-code contract.

Exit codes: 0 ok, 1 verification failure, 2 invalid input, 3 value not
regular, 4 exponents not equivariant, 5 enumeration cap exceeded or out of
memory (a cap raised past what the machine can hold).  Identical invocations
with identical configuration print byte-identical JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .degree import (
    DEFAULT_ENUMERATION_CAP,
    DegreeResult,
    PreimageColumns,
    degree,
    preimage_columns,
)
from .errors import (
    EnumerationCapExceededError,
    NoHomomorphismError,
    NotEffectiveError,
    NotEquivariantError,
    NotRegularError,
    OrbidegreeError,
    WeightMismatchError,
)
from .maps import MonomialMap
from .spaces import CircleQuotient, WpsOrbifold, strata
from . import verify as verify_mod

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_NOT_REGULAR = 3
EXIT_NOT_EQUIVARIANT = 4
EXIT_CAP_EXCEEDED = 5

CAP_ENV_VAR = "ORBIDEGREE_ENUM_CAP"


@dataclass
class CliConfig:
    """Output format, enumeration cap and suite seed; defaults json, 10^7, 0.

    A cap of None means no cap.  The numeric engines take no settings: their
    tolerances are module constants.
    """

    format: str = "json"
    cap: int | None = DEFAULT_ENUMERATION_CAP
    seed: int = 0


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _read_config_file(path: str, config: CliConfig) -> None:
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"config file must hold a JSON object, got {type(data).__name__}")
    unknown = set(data) - {f.name for f in fields(CliConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    cap = data.get("cap")
    if not (cap is None or (_is_int(cap) and cap >= 0)):
        raise ValueError(f"config cap must be a non-negative integer or null, got {cap!r}")
    if "seed" in data and not _is_int(data["seed"]):
        raise ValueError(f"config seed must be an integer, got {data['seed']!r}")
    for key, value in data.items():
        setattr(config, key, value)


def load_config(args: argparse.Namespace) -> CliConfig:
    """Defaults, then config file, then environment, then explicit flags."""
    config = CliConfig()
    if getattr(args, "config", None):
        _read_config_file(args.config, config)
    if CAP_ENV_VAR in os.environ:
        text = os.environ[CAP_ENV_VAR]
        try:
            config.cap = int(text)
        except ValueError:
            raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {text!r}") from None
        if config.cap < 0:
            raise ValueError(f"{CAP_ENV_VAR} must not be negative, got {text!r}")
    flag_cap = getattr(args, "cap", None)
    if flag_cap is not None and flag_cap < 0:
        raise ValueError(f"--cap must not be negative, got {flag_cap}")
    for flag in ("format", "cap", "seed"):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(config, flag, value)
    if config.format not in ("json", "text"):
        raise ValueError(f"format must be 'json' or 'text', got {config.format!r}")
    return config


def _parse_weights(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"{flag} must be comma-separated integers, got {text!r}") from exc


# stands in for each per-point integer while the record template is dumped
_SLOT = "<int>"


def _dumps_with_preimages(payload: dict, columns: PreimageColumns) -> str:
    """json.dumps(payload, indent=2) with the preimage records as a last "preimages" key.

    The records are written straight from the columns, column by column: the
    first record is dumped in place with a slot for each of its k per-point
    integers, and the text between the slots gives k + 1 constant pieces.
    The output is one list of n * (2k + 1) strings for n points, between the
    text before and after the records, joined once; each piece fills its
    stride by one slice assignment, and each integer column fills its stride
    with decimal strings made once per distinct value (np.unique), so int64
    and object columns take the same path.
    """
    first = [v for pair in zip(columns.num[0].tolist(), columns.den[0].tolist()) for v in pair]
    record = columns.record(first).to_json()
    coords = record["point"]["coords"]
    for i in columns.support:  # keys in to_json order: num, den, as in each row
        coords[i] = dict.fromkeys(coords[i], _SLOT)
    text = json.dumps({**payload, "preimages": [record]}, indent=2)
    opening = '"preimages": [\n'
    start = text.rindex(opening) + len(opening)
    end = text.rindex("\n", 0, text.rindex("\n"))  # before the closing "  ]\n}"
    pieces = text[start:end].split(json.dumps(_SLOT))
    pieces[-1] += ",\n"
    n, stride = len(columns), 2 * len(pieces) - 1
    out = [""] * (n * stride + 2)
    out[0], out[-1] = text[:start], text[end:]
    for k, piece in enumerate(pieces):
        out[1 + 2 * k : -1 : stride] = [piece] * n
    for k in range(len(pieces) - 1):
        column = (columns.num if k % 2 == 0 else columns.den)[:, k // 2]
        distinct, index = np.unique(column, return_inverse=True)
        decimal = np.array([str(v) for v in distinct.tolist()], dtype=object)
        out[2 + 2 * k : -1 : stride] = decimal[index].tolist()
    out[-2] = pieces[-1][: -len(",\n")]
    return "".join(out)


# one passing report of ``verify``, as json.dumps(reports, indent=2) lays it out
_PASSED_REPORT = (
    '  {\n    "name": %s,\n    "statement": %s,\n    "cases": %d,\n'
    '    "passed": true,\n    "failures": []\n  }'
)


def _dumps_reports(reports: list[verify_mod.PropertyReport]) -> str:
    """json.dumps(verify.reports_to_json(reports), indent=2), written from a template.

    A passing report has one fixed layout, filled in with its name, statement
    and case count; each distinct string is quoted once.  A report with
    failures is dumped in full and indented one level.
    """
    if not reports:
        return "[]"
    quoted: dict[str, str] = {}

    def quote(text: str) -> str:
        if text not in quoted:
            quoted[text] = json.dumps(text)
        return quoted[text]

    parts = []
    for report in reports:
        if report.failures:
            text = json.dumps(report.to_json(), indent=2)
            parts.append("  " + text.replace("\n", "\n  "))
        else:
            fill = (quote(report.name), quote(report.statement), report.cases)
            parts.append(_PASSED_REPORT % fill)
    return "[\n" + ",\n".join(parts) + "\n]"


def _cmd_strata(args: argparse.Namespace, config: CliConfig) -> int:
    if (args.wps is None) == (args.circle is None):
        raise ValueError("give exactly one of --wps or --circle")
    if args.wps is not None:
        space = WpsOrbifold(_parse_weights(args.wps, "--wps"))
        header = space.to_json()
    else:
        kind, colon, order = args.circle.partition(":")
        if args.circle == "reflection":
            space = CircleQuotient.reflection()
        elif kind == "rotation" and (order or not colon):
            order = order or "1"
            if not order.isdecimal():
                raise ValueError(f"--circle rotation order must be an integer, got {order!r}")
            space = CircleQuotient.rotation(int(order))
        else:
            raise ValueError("--circle must be 'reflection' or 'rotation[:k]'")
        header = space.to_json()
    report = strata(space)
    payload = dict(header)
    payload.update(report.to_json())

    def render(data: dict) -> str:
        lines = [f"codim1_empty={data['codim1_empty']} orientable={data['orientable']}"]
        for rec in data["strata"]:
            for comp in rec["components"]:
                lines.append(
                    f"  sdim {rec['sdim']}: isotropy Z_{comp['isotropy']} ({comp['description']})"
                )
        return "\n".join(lines)

    print(json.dumps(payload, indent=2) if config.format == "json" else render(payload))
    return EXIT_OK


def _build_map(args: argparse.Namespace) -> MonomialMap:
    return MonomialMap.from_descriptor(
        {flag: _parse_weights(getattr(args, flag), f"--{flag}") for flag in ("q", "r", "e")}
    )


def _cmd_degree(args: argparse.Namespace, config: CliConfig) -> int:
    f = _build_map(args)
    y = f.target.point(*args.value.split(",")) if args.value else None
    result: DegreeResult = degree(f, y, cap=config.cap, include_preimages=False)
    if config.format == "json":
        print(_dumps_with_preimages(result.to_json(), result.preimage_columns()))
    else:
        print(f"degree {result.oriented} (mod2 {result.mod2}) at {args.value or 'default probe'}")
    return EXIT_OK


def _cmd_preimages(args: argparse.Namespace, config: CliConfig) -> int:
    f = _build_map(args)
    y = f.target.point(*args.value.split(","))
    columns = preimage_columns(f, y, cap=config.cap)
    if config.format == "json":
        print(_dumps_with_preimages({"map": f.descriptor(), "value": y.to_json()}, columns))
    else:
        print(f"{len(columns)} preimage points")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, config: CliConfig) -> int:
    reports = verify_mod.run_suite(args.suite, seed=config.seed, cap=config.cap)
    if config.format == "json":
        print(_dumps_reports(reports))
    else:
        print(verify_mod.summarize(reports))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: each command takes only the
    options it reads, and every option defaults to None."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default=None)
    common.add_argument("--config", help="JSON file with CliConfig overrides")
    capped = argparse.ArgumentParser(add_help=False, parents=[common])
    capped.add_argument("--cap", type=int, default=None, help="enumeration cap")

    parser = argparse.ArgumentParser(prog="orbidegree")
    sub = parser.add_subparsers(dest="command", required=True)

    p_strata = sub.add_parser("strata", parents=[common], help="singular stratification")
    p_strata.add_argument("--wps", help="comma-separated weights, e.g. 1,3")
    p_strata.add_argument("--circle", help="'reflection', 'rotation' or 'rotation:k'")
    p_strata.set_defaults(func=_cmd_strata)

    for name, func, needs_value in (
        ("degree", _cmd_degree, False),
        ("preimages", _cmd_preimages, True),
    ):
        p = sub.add_parser(name, parents=[capped])
        p.add_argument("--q", required=True, help="source weights")
        p.add_argument("--r", required=True, help="target weights")
        p.add_argument("--e", required=True, help="exponents; d is derived")
        p.add_argument(
            "--value",
            required=needs_value,
            help="probed value: per-coordinate '0' or 'a/m', comma separated",
        )
        p.set_defaults(func=func)

    p_verify = sub.add_parser("verify", parents=[capped])
    p_verify.add_argument("--seed", type=int, default=None, help="random seed for suites")
    p_verify.add_argument(
        "suite",
        nargs="?",
        default="all",
        help="all | " + " | ".join(sorted(verify_mod.SUITES)),
    )
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = load_config(args)
        return args.func(args, config)
    except NotRegularError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_REGULAR
    except (NotEquivariantError, WeightMismatchError, NoHomomorphismError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_EQUIVARIANT
    except EnumerationCapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except MemoryError:
        print("error: out of memory; lower the enumeration cap", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except (ValueError, NotEffectiveError, OSError, OrbidegreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
