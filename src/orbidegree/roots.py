"""Exact arithmetic with roots of unity.

Every point coordinate handled by the exact engine is either exactly zero or
exactly exp(2*pi*i*a/m).  Arithmetic on such coordinates (products, integer
powers, inverses) is closed, so equality questions about points, fibres and
group orbits reduce to integer arithmetic and stay decidable.  Value
independence of the degree makes this restriction harmless: the probing
values needed anywhere in the library all have root-of-unity coordinates.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass


def integers(values, what: str, error: type[Exception] = ValueError) -> tuple[int, ...]:
    """``values`` as a tuple of Python ints.

    Ints and numpy integers pass; anything else, a float such as 2.5 or even
    2.0 included, raises ``error`` instead of being truncated as int() would.
    """
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise error(f"expected integer {what}, got {values!r}") from None


@dataclass(frozen=True)
class RootOfUnity:
    """The complex number exp(2*pi*i*num/order).

    Canonical form is enforced on construction: 0 <= num < order and
    gcd(num, order) == 1, so the order is minimal and equality is structural.
    The identity is RootOfUnity(0, 1).
    """

    num: int
    order: int = 1

    def __post_init__(self) -> None:
        if self.order <= 0:
            raise ValueError(f"order must be positive, got {self.order}")
        a = self.num % self.order
        g = math.gcd(a, self.order)
        object.__setattr__(self, "num", a // g)
        object.__setattr__(self, "order", self.order // g)

    @classmethod
    def _from_reduced(cls, num: int, order: int) -> "RootOfUnity":
        """exp(2*pi*i*num/order), which the caller guarantees is already canonical.

        Skips the constructor's reduction; for roots read back from
        lowest-terms columns (degree.PreimageColumns).
        """
        root = object.__new__(cls)
        object.__setattr__(root, "num", num)
        object.__setattr__(root, "order", order)
        return root

    @classmethod
    def one(cls) -> "RootOfUnity":
        return cls(0, 1)

    @property
    def is_one(self) -> bool:
        return self.num == 0

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        order = math.lcm(self.order, other.order)
        num = self.num * (order // self.order) + other.num * (order // other.order)
        return RootOfUnity(num, order)

    def __pow__(self, k: int) -> "RootOfUnity":
        return RootOfUnity(self.num * k, self.order)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(-self.num, self.order)

    def angle(self) -> float:
        return 2.0 * math.pi * self.num / self.order

    def cvalue(self) -> complex:
        t = self.angle()
        return complex(math.cos(t), math.sin(t))

    def to_json(self) -> dict:
        return {"num": self.num, "den": self.order}

    @classmethod
    def from_json(cls, data: dict) -> "RootOfUnity":
        return cls(*integers((data["num"], data["den"]), "num and den"))

    def __str__(self) -> str:
        return f"{self.num}/{self.order}"


@dataclass(frozen=True)
class ExactCoordinate:
    """A coordinate that is exactly zero or exactly a root of unity.

    ``root`` is None for the zero coordinate.  No floating content anywhere.
    """

    root: RootOfUnity | None

    @classmethod
    def zero(cls) -> "ExactCoordinate":
        return cls(None)

    @classmethod
    def one(cls) -> "ExactCoordinate":
        return cls(RootOfUnity.one())

    @classmethod
    def unit(cls, num: int, order: int) -> "ExactCoordinate":
        return cls(RootOfUnity(num, order))

    @property
    def is_zero(self) -> bool:
        return self.root is None

    def __pow__(self, k: int) -> "ExactCoordinate":
        if k < 1:
            raise ValueError("coordinate powers must be positive integers")
        if self.root is None:
            return self
        return ExactCoordinate(self.root**k)

    def times(self, gamma: RootOfUnity) -> "ExactCoordinate":
        if self.root is None:
            return self
        return ExactCoordinate(self.root * gamma)

    def cvalue(self) -> complex:
        return 0j if self.root is None else self.root.cvalue()

    def to_json(self) -> dict:
        if self.root is None:
            return {"zero": True}
        return self.root.to_json()

    @classmethod
    def from_json(cls, data: dict) -> "ExactCoordinate":
        if data.get("zero"):
            return cls.zero()
        return cls(RootOfUnity.from_json(data))

    @classmethod
    def parse(cls, text: str) -> "ExactCoordinate":
        """Parse the exact wire encoding: ``0`` for zero, ``a/m`` for exp(2*pi*i*a/m)."""
        text = text.strip()
        if text == "0":
            return cls.zero()
        if "/" in text:
            a_str, m_str = text.split("/", 1)
            try:
                a, m = int(a_str), int(m_str)
            except ValueError as exc:
                raise ValueError(
                    f"coordinate must be '0' or 'a/m' with integers a and m, got {text!r}"
                ) from exc
            if m < 1:
                raise ValueError(f"coordinate 'a/m' needs an order m >= 1, got {text!r}")
            return cls.unit(a, m)
        raise ValueError(f"coordinate must be '0' or 'a/m', got {text!r}")

    def __str__(self) -> str:
        return "0" if self.root is None else str(self.root)
