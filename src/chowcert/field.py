"""Exact modular arithmetic over a prime modulus.

Everything downstream (matrices, polynomials, certificates) computes in
Z_m for a prime m.  Elements are kept as canonical representatives in
[0, m); mixing elements of different moduli raises instead of coercing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

MASK64 = (1 << 64) - 1

# Witnesses making Miller-Rabin deterministic below PRIMALITY_BOUND.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The smallest strong pseudoprime to every witness above,
# 1287836182261 x 2575672364521: the test passes it as prime.
PRIMALITY_BOUND = 3317044064679887385961981
# Moduli the int64 kernels (matrices, polynomial products and pairings)
# support: products of two residues, and a few of them summed, fit.
MAX_KERNEL_MODULUS = 2**31


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test; raises ValueError,
    before any modular power, for n >= PRIMALITY_BOUND."""
    if n >= PRIMALITY_BOUND:
        raise ValueError(
            f"primality is decided only below {PRIMALITY_BOUND}, the "
            f"smallest strong pseudoprime to all {len(_MR_WITNESSES)} witnesses"
        )
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
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


@dataclass(frozen=True)
class PrimeModulus:
    """A verified prime modulus 3 <= m < PRIMALITY_BOUND, the field Z_m."""

    value: int

    def __post_init__(self):
        if self.value < 3:
            raise ValueError(f"modulus must be >= 3, got {self.value}")
        if not is_prime(self.value):
            raise ValueError(f"modulus {self.value} is not prime")

    def element(self, value: int) -> FieldElement:
        return FieldElement(value % self.value, self)

    def zero(self) -> FieldElement:
        return FieldElement(0, self)

    def one(self) -> FieldElement:
        return FieldElement(1, self)

    def __repr__(self):
        return f"PrimeModulus({self.value})"


class ModulusMismatchError(ValueError):
    """Raised when operands belong to different prime fields."""


def _check_kernel_modulus(modulus: PrimeModulus) -> None:
    """Refuse a modulus the int64 kernels would overflow on."""
    if modulus.value >= MAX_KERNEL_MODULUS:
        raise ValueError(
            f"the int64 kernels support moduli below 2^31, got {modulus.value}"
        )


def _check_same_modulus(a: PrimeModulus, b: PrimeModulus) -> None:
    if a.value != b.value:
        raise ModulusMismatchError(
            f"operands have different moduli: {a.value} and {b.value}"
        )


@dataclass(frozen=True)
class FieldElement:
    """An element of Z_m held as its canonical representative in [0, m)."""

    value: int
    modulus: PrimeModulus

    def __post_init__(self):
        object.__setattr__(self, "value", int(self.value) % self.modulus.value)

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            _check_same_modulus(self.modulus, other.modulus)
            return other
        if isinstance(other, (int, np.integer)):
            return FieldElement(int(other), self.modulus)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.value + other.value, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.value - other.value, self.modulus)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(other.value - self.value, self.modulus)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.value * other.value, self.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.value, self.modulus)

    def __pow__(self, exponent: int):
        m = self.modulus.value
        if exponent < 0 and self.value == 0:
            raise ZeroDivisionError("division by zero in field")
        return FieldElement(pow(self.value, exponent, m), self.modulus)

    def inv(self) -> "FieldElement":
        if self.value == 0:
            raise ZeroDivisionError("division by zero in field")
        return FieldElement(pow(self.value, -1, self.modulus.value), self.modulus)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def is_zero(self) -> bool:
        return self.value == 0

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"F{self.modulus.value}({self.value})"


class SeededRng:
    """Deterministic 64-bit-seeded source of uniform field elements.

    Draws use rejection sampling on fixed-width bit strings, so every
    residue of Z_m is exactly equally likely (plain ``randint % m`` is
    measurably biased).  A given seed replays the same stream on every
    run; certificates record the seed for that purpose.
    """

    def __init__(self, seed: int):
        if not 0 <= seed <= MASK64:
            raise ValueError("seed must fit in 64 bits")
        self.seed = seed
        self._gen = random.Random(seed)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), bias-free."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        bits = bound.bit_length()
        while True:
            draw = self._gen.getrandbits(bits)
            if draw < bound:
                return draw

    def element(self, modulus: PrimeModulus) -> FieldElement:
        return FieldElement(self.below(modulus.value), modulus)

    def vector(self, modulus: PrimeModulus, length: int) -> np.ndarray:
        """Length-`length` int64 vector of uniform residues mod m."""
        return np.array(
            [self.below(modulus.value) for _ in range(length)], dtype=np.int64
        )


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def derive_seed(seed: int, *tags: int) -> int:
    """Derive an independent child seed, e.g. one per retry or sweep case."""
    out = _splitmix64(seed)
    for tag in tags:
        out = _splitmix64(out ^ (tag & MASK64))
    return out
