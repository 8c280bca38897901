"""Stdout of fixed CLI commands, pinned by SHA-256 digest and exit code.

A change to the engines must leave these bytes alone: `verify all` over
several seeds runs every suite (the circle engine through its counterexample,
covering and same-underlying checks), and the `degree`/`preimages` commands
cover JSON and text output, int64 and object-dtype columns and the error
exits 2, 3, 4 and 5, which print nothing to stdout.  The `strata` commands pin
the stratification of weighted projective spaces and circle quotients.  A
command given an option it does not read exits 2.
"""

import contextlib
import hashlib
import io

import pytest

from orbidegree.cli import CAP_ENV_VAR, main

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

CASES = [
    ("verify all --seed 0", 0, "4b02115d91eeac331b6c5612317ce9581e39a5f5d87e571481b67c68ab121f56"),
    ("verify all --seed 1", 0, "02324ebc5042e30f53a36690dcc1c42727cc73bcb468917df56f725ecdf57ba4"),
    ("verify all --seed 7", 0, "56351e8b317b33e58950a397af9914042df0a3128c4e50ea3e66458d8410217a"),
    ("verify all --seed 42", 0, "829c46559cd2d64fc873693f5f389c0e931144dce74e127b4389826e4018a6a8"),
    ("verify all --seed 999", 0, "99d3f8be7dee226af94b12cc31f96259d6a51dc5e7b2b0cc829d603f9d08b901"),
    ("verify all --seed 1 --format text", 0,
     "4693b904b89c8750c67fe87122abef8e75b4aa42772fa034f509e5a401fd5aff"),
    ("degree --q 1,1 --r 1,3 --e 1,3", 0,
     "3a6f0c8fb46d41441185fef565d88ccfaf0d78576920da115e5549305b61c0d4"),
    ("degree --q 1,2,3 --r 1,1,1 --e 6,3,2 --value 1/5,2/7,3/11", 0,
     "0ac0abc13d4f5dee99070e3d68ef5049a53c38d0230704a3bda2a07aef02bec5"),
    ("preimages --q 1,2 --r 1,1 --e 4,2 --value 1/3,2/5", 0,
     "1725d2021dfc89aefee157daa1d5af7fd49a237e9166eb23ef3aff9a10e50a2b"),
    # canonical denominators past int64: object-dtype columns
    ("preimages --q 2,3,5 --r 2,3,5 --e 6,6,6"
     " --value 1/999999999989,5/999999999959,7/999999999961", 0,
     "77055a75322b9ea6702e3fe1482c5316e98571dee8a058c3beace43fa1623340"),
    ("preimages --q 1,1 --r 1,3 --e 1,3 --value 1/2,1/3 --format text", 0,
     "6cbdebf209b14a0494debb668459bf6d8d1fbcf823b2bc058c7882622909c552"),
    ("degree --q 1,1,1 --r 1,1,5 --e 1,1,5 --value 0/1,0,0", 3, EMPTY),  # critical value
    ("degree --q 1,2 --r 1,3 --e 1,1", 4, EMPTY),  # not equivariant
    ("degree --q 1,1 --r 1,3 --e 1,3 --cap 2", 5, EMPTY),  # cap exceeded
    ("strata --wps 1,3", 0, "b02be1c94ee009a6952188d8046409d3de278970782fc4dcf8d6a71c3601d184"),
    ("strata --wps 2,3,5", 0, "861982a70696f1988ef14756a0b902e2ebde3a81124699cfa8d8127060d56340"),
    ("strata --wps 1,2,2,3", 0, "cb48f0db461822db5be456fbb9cbcf80935099df68e0587b6a8fdb02f62315d1"),
    ("strata --wps 1,1,2,2 --format text", 0,
     "2828c76452889c2ffc0f90d81b81feb7b4779a5f999f70f988e049cd33254e3e"),
    ("strata --circle reflection", 0,
     "5bdf31489d9a364d3a8158b6644054ddddfdf3b96b24dd5b7d9fa430684d0ccf"),
    ("strata --circle rotation:4", 0,
     "2de77938bc441734cbf75003f3dcafffcfaa405822e151fc861d82c3ab2cb604"),
    ("strata --circle rotation --format text", 0,
     "8b3bfa1e538681e95c2457e857d402574c9d723721ba9dc9874acff2e8b6c684"),
    ("strata --circle rotation3", 2, EMPTY),  # not a --circle form
    ("degree --q 1,1 --r 1,3 --e 1,3 --cap -5", 2, EMPTY),  # negative cap
    ("verify value-independence --cap 1", 5, EMPTY),  # the suites' fibres exceed it
    ("verify counterexample --cap 0", 0,  # circle maps enumerate no fibre
     "9b489894cac9dfefea3479362641e15eaad2d826f7353f8745fd76509753e27d"),
    # a command refuses the options it does not read
    ("strata --wps 1,3 --seed 3", 2, EMPTY),
    ("strata --wps 1,3 --cap 3", 2, EMPTY),
    ("degree --q 1,1 --r 1,3 --e 1,3 --seed 3", 2, EMPTY),
]


@pytest.mark.parametrize("command, code, digest", CASES, ids=[c[0] for c in CASES])
def test_stdout_digest_and_exit_code(command, code, digest, monkeypatch):
    monkeypatch.delenv(CAP_ENV_VAR, raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        got = main(command.split())
    assert (got, hashlib.sha256(out.getvalue().encode()).hexdigest()) == (code, digest)
