"""Prime-field arithmetic for grid cell values.

Every value that lands in the constraint grid is a canonical residue in
[0, p) for a configurable odd prime p.  The default is the common 254-bit
scalar prime; any in [2**16, 2**255) is accepted, so that tests can run on
small fields and every residue fits a file's cell.  Internally the rest of
the package works on plain ints (canonical residues) for speed;
:class:`FieldElement` is the checked wrapper used at API boundaries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_MODULUS = 21888242871839275222246405745257275088548364400416034343698204186575808495617

MIN_MODULUS = 1 << 16
MAX_MODULUS = 1 << 255   # every cell of a layout or witness file lies below it

_MR_ROUNDS = 40


def _is_probable_prime(n: int, rounds: int = _MR_ROUNDS) -> bool:
    """Miller-Rabin with fixed small bases plus random ones."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    rng = random.Random(0xF1E1D)
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """A prime field Z_p, validated once at construction."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int = DEFAULT_MODULUS):
        modulus = int(modulus)
        if modulus < MIN_MODULUS:
            raise ValueError(f"modulus {modulus} below minimum {MIN_MODULUS}")
        if modulus >= MAX_MODULUS:   # before the primality test, whose cost grows with p
            raise ValueError(f"a modulus of {modulus.bit_length()} bits is not below 2**255")
        # The default modulus is a known prime; every layout file and
        # config that uses it would otherwise rerun the 40-round test.
        if modulus != DEFAULT_MODULUS and (modulus % 2 == 0 or not _is_probable_prime(modulus)):
            raise ValueError(f"modulus {modulus} is not an odd prime")
        self.modulus = modulus

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("Field", self.modulus))

    def __repr__(self) -> str:
        return f"Field({self.modulus})"

    def element(self, value: int) -> "FieldElement":
        return FieldElement(value % self.modulus, self.modulus)

    def zero(self) -> "FieldElement":
        return FieldElement(0, self.modulus)

    def one(self) -> "FieldElement":
        return FieldElement(1, self.modulus)

    def from_signed(self, x: int) -> "FieldElement":
        """Embed a signed integer; negatives map to p - |x|.

        Only magnitudes below p/2 are accepted so the embedding stays
        injective and reversible via :meth:`FieldElement.to_signed`.
        """
        return FieldElement(encode_signed(x, self.modulus), self.modulus)


def encode_signed(x: int, modulus: int) -> int:
    if 2 * abs(x) >= modulus:
        raise ValueError(f"|{x}| is not below modulus/2; cannot embed faithfully")
    return x % modulus


def decode_signed(v: int, modulus: int) -> int:
    if not 0 <= v < modulus:
        raise ValueError(f"{v} is not a canonical residue mod {modulus}")
    return v if 2 * v < modulus else v - modulus


@dataclass(frozen=True, slots=True)
class FieldElement:
    """Canonical residue in [0, p).  Immutable; all ops are pure."""

    value: int
    modulus: int

    def __post_init__(self):
        if not 0 <= self.value < self.modulus:
            raise ValueError(f"{self.value} not canonical mod {self.modulus}")

    def _coerce(self, other: "FieldElement | int") -> int:
        if isinstance(other, FieldElement):
            if other.modulus != self.modulus:
                raise ValueError(
                    f"modulus mismatch: {self.modulus} vs {other.modulus}"
                )
            return other.value
        return int(other) % self.modulus

    def __add__(self, other: "FieldElement | int") -> "FieldElement":
        return FieldElement((self.value + self._coerce(other)) % self.modulus, self.modulus)

    __radd__ = __add__

    def __sub__(self, other: "FieldElement | int") -> "FieldElement":
        return FieldElement((self.value - self._coerce(other)) % self.modulus, self.modulus)

    def __rsub__(self, other: int) -> "FieldElement":
        return FieldElement((int(other) - self.value) % self.modulus, self.modulus)

    def __mul__(self, other: "FieldElement | int") -> "FieldElement":
        return FieldElement(self.value * self._coerce(other) % self.modulus, self.modulus)

    __rmul__ = __mul__

    def __neg__(self) -> "FieldElement":
        return FieldElement(-self.value % self.modulus, self.modulus)

    def __pow__(self, e: int) -> "FieldElement":
        return FieldElement(pow(self.value, e, self.modulus), self.modulus)

    def inv(self) -> "FieldElement":
        if self.value == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return FieldElement(pow(self.value, self.modulus - 2, self.modulus), self.modulus)

    def __truediv__(self, other: "FieldElement | int") -> "FieldElement":
        v = self._coerce(other)
        return self * FieldElement(v, self.modulus).inv()

    def to_signed(self) -> int:
        return decode_signed(self.value, self.modulus)

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"FieldElement({self.value} mod {self.modulus})"
