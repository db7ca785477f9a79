"""Exact norm values and valued base fields.

A norm value is either zero or a formal power ``g^q`` of a fixed base
``g > 1`` with rational exponent ``q``.  This set is totally ordered and
closed under multiplication, division and max/min, which is what every
downstream construction (subspace norms, quotient norms, operator norms,
attained infima) actually uses.  No floating point anywhere.

An integral exponent is stored as an ``int`` and any other as a
``Fraction`` in lowest terms, so the common case (every p-adic absolute
value, every integer weight) multiplies and hashes without ``Fraction``
arithmetic; ``hash(n) == hash(Fraction(n))``, so both forms hash and
compare alike.  ``Magnitude.of``, products, quotients, parsing and absolute
values build through ``_magnitude``: one shared object per integer power.

Fields come with an exact absolute value into magnitudes:

* rationals with the p-adic absolute value, ``|x| = g^(-v_p(x))``;
* rationals with the trivial absolute value;
* prime fields F_p with the trivial absolute value.

Field elements are plain Python values (``Fraction`` or small ints); the
field object supplies the arithmetic, so matrices stay lightweight.

Elimination, orthogonalization and composition run on the integer-row
form instead: a row of elements is a list of Python ints over one common
denominator, combined by cross-multiplication with no per-entry field
call.  Each field supplies four hooks for it: ``to_ints`` (values in),
``from_ints`` (values out), ``shrink`` (a smaller multiple of a row: the
gcd over Q, ``% p`` over F_p) and ``abs_exponent`` (the exponent of an
absolute value, read off an int or an element).
"""

from __future__ import annotations

import re
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Any


# ---------------------------------------------------------------------------
# Magnitudes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Magnitude:
    """Zero or ``g^exponent`` for a rational exponent; totally ordered."""

    exponent: int | Fraction | None  # None encodes the zero magnitude

    @staticmethod
    def of(exponent) -> "Magnitude":
        return _magnitude(Fraction(exponent))

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    # each operator compares the exponents itself; zero lies below every g^q
    def __lt__(self, other: "Magnitude") -> bool:
        a, b = self.exponent, other.exponent
        if a is None:
            return b is not None
        return b is not None and a < b

    def __le__(self, other: "Magnitude") -> bool:
        a, b = self.exponent, other.exponent
        if a is None:
            return True
        return b is not None and a <= b

    def __gt__(self, other: "Magnitude") -> bool:
        a, b = self.exponent, other.exponent
        if b is None:
            return a is not None
        return a is not None and a > b

    def __ge__(self, other: "Magnitude") -> bool:
        a, b = self.exponent, other.exponent
        if b is None:
            return True
        return a is not None and a >= b

    def __mul__(self, other: "Magnitude") -> "Magnitude":
        if self.exponent is None or other.exponent is None:
            return MAG_ZERO
        return _magnitude(self.exponent + other.exponent)

    def __truediv__(self, other: "Magnitude") -> "Magnitude":
        if other.exponent is None:
            raise ZeroDivisionError("division of a magnitude by zero")
        if self.exponent is None:
            return MAG_ZERO
        return _magnitude(self.exponent - other.exponent)

    def __repr__(self) -> str:
        return f"Magnitude({format_magnitude(self)!r})"


MAG_ZERO = Magnitude(None)
MAG_ONE = Magnitude(0)

# g^e for an integer exponent e, one shared object per exponent;
# magnitudes are immutable values, so sharing them is safe
_INT_MAGNITUDES: dict[int, Magnitude] = {0: MAG_ONE}


def _magnitude(exponent: int | Fraction) -> Magnitude:
    """``g^exponent``, with an integral exponent stored as an interned int power."""
    if type(exponent) is not int:
        if exponent.denominator != 1:
            return Magnitude(exponent)
        exponent = exponent.numerator
    try:
        return _INT_MAGNITUDES[exponent]
    except KeyError:
        _INT_MAGNITUDES[exponent] = mag = Magnitude(exponent)
        return mag


def mag_compare(a: Magnitude, b: Magnitude) -> int:
    """-1, 0 or 1 according to the total order on magnitudes."""
    x, y = a.exponent, b.exponent
    if x is None or y is None:
        return (x is not None) - (y is not None)
    return (x > y) - (x < y)


def format_magnitude(m: Magnitude) -> str:
    """Text form: ``0`` or ``g^<rational>`` with the exponent in lowest terms."""
    if m.is_zero:
        return "0"
    return f"g^{m.exponent}"


def parse_magnitude(text: str) -> Magnitude:
    """Inverse of :func:`format_magnitude`; raises ``ValueError`` on junk."""
    s = text.strip()
    if s == "0":
        return MAG_ZERO
    if not s.startswith("g^"):
        raise ValueError(f"magnitude must be '0' or 'g^<rational>', got {text!r}")
    return _magnitude(_parse_rational(s[2:]))


# the exponent part of a decimal text, as ``Fraction`` reads it
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)

# a plain integer or ratio of ASCII digits, at most 600 on each side
_PLAIN = re.compile(r"([-+]?[0-9]{1,600})(?:/([0-9]{1,600}))?")


def _parse_rational(text: str) -> Fraction:
    """``Fraction(text)``, refusing a value too long to be written back as text.

    A plain integer or ratio (``[-+]?digits`` or ``[-+]?digits/digits``) is
    read as ``Fraction(int(num), int(den))`` with no write-back check.  It has
    at most 600 digits on each side, fewer than 640, the lowest non-zero
    digit limit the interpreter accepts (``sys.int_info``'s
    ``str_digits_check_threshold``); reducing it to lowest terms only removes
    digits, so ``int`` reads it and ``str`` writes it back under any limit.

    Every other text goes through ``Fraction(text)``.  ``Fraction`` builds
    ``10**|e|`` for an exponent part e.  Its mantissa has at most ``limit``
    digits (the interpreter's digit limit) on each side of the point, so a
    non-zero value with ``|e| >= 2 * limit`` always has a numerator or
    denominator too long to write back.  Such a text is refused before the
    power is built; a zero mantissa reads as zero whatever e is.

    A zero denominator raises ``ZeroDivisionError("zero denominator")``.
    """
    plain = _PLAIN.fullmatch(text)
    try:
        if plain:
            num, den = plain.groups()
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        exp = _EXPONENT.search(text)
        limit = sys.get_int_max_str_digits()
        if exp and limit and abs(int(exp[1])) >= 2 * limit:
            text = text[: exp.start()] + "e0"
            if Fraction(text):
                raise ValueError("number too long to write back as text")
        q = Fraction(text)
    except ZeroDivisionError:
        raise ZeroDivisionError("zero denominator") from None
    try:
        str(q)
    except ValueError as exc:  # the interpreter's limit on int-to-str digits
        raise ValueError("number too long to write back as text") from exc
    return q


# ---------------------------------------------------------------------------
# Valued fields
# ---------------------------------------------------------------------------


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (the least strong pseudoprime to all of them); the first 12 alone are
# fooled by 318665857834031151167461 = 399165290221 * 798330580441
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ``ValueError`` where it is not exact."""
    if n >= _PRIME_BOUND:
        raise ValueError(f"cannot decide primality at or above {_PRIME_BOUND}")
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def padic_valuation(n: int, p: int) -> int:
    """Largest k with p^k dividing n; undefined (raises) at n = 0."""
    if n == 0:
        raise ZeroDivisionError("valuation of zero is undefined")
    if p == 2:
        return (n & -n).bit_length() - 1
    n = abs(n)
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v


class ValuedField(ABC):
    """Arithmetic plus an exact absolute value on an exactly-representable field.

    Elements are plain values; all operations go through the field object,
    either one element at a time or, in the integer-row form, through the
    ``to_ints``/``from_ints``/``shrink``/``abs_exponent`` hooks.
    Implementations are immutable and hashable so spaces over them compare
    by value.
    """

    @property
    @abstractmethod
    def zero(self) -> Any: ...

    @property
    @abstractmethod
    def one(self) -> Any: ...

    @abstractmethod
    def add(self, a, b): ...

    @abstractmethod
    def sub(self, a, b): ...

    @abstractmethod
    def mul(self, a, b): ...

    @abstractmethod
    def div(self, a, b): ...

    @abstractmethod
    def neg(self, a): ...

    @abstractmethod
    def is_zero(self, a) -> bool: ...

    @abstractmethod
    def abs_value(self, a) -> Magnitude: ...

    @abstractmethod
    def abs_exponent(self, a) -> int | Fraction | None:
        """e with ``|a| = g^e``, or None at zero; ``a`` may be an int of a row."""

    @abstractmethod
    def to_ints(self, rows) -> tuple[list, int]:
        """``(ints, den)``: ``rows[i][j] == ints[i][j] / den`` with ``den > 0``.

        The int rows may be ``rows`` themselves; callers do not mutate them.
        """

    @abstractmethod
    def from_ints(self, ints, den) -> list:
        """The elements ``ints[i] / den``; den is non-zero in the field."""

    @abstractmethod
    def shrink(self, ints) -> list[int]:
        """A row that is a non-zero multiple of ``ints``, with entries no larger."""

    @abstractmethod
    def parse_element(self, text: str): ...

    @abstractmethod
    def format_element(self, a) -> str: ...

    @abstractmethod
    def random_element(self, rng, allow_zero: bool = True): ...

    def eq(self, a, b) -> bool:
        return self.is_zero(self.sub(a, b))


class _RationalOps:
    """Shared Fraction arithmetic for the two rational-backed fields."""

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        return a / b

    def neg(self, a):
        return -a

    def is_zero(self, a) -> bool:
        return not a

    def parse_element(self, text: str) -> Fraction:
        return _parse_rational(text.strip())

    def format_element(self, a) -> str:
        return str(Fraction(a))

    def to_ints(self, rows) -> tuple[list, int]:
        den = lcm(*[x.denominator for row in rows for x in row])
        if den == 1:
            return [[x.numerator for x in row] for row in rows], 1
        return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den

    def from_ints(self, ints, den) -> list:
        if den == 1:
            return [Fraction(x) for x in ints]
        return [Fraction(x, den) if x else self.zero for x in ints]

    def shrink(self, ints) -> list[int]:
        g = gcd(*ints)
        return ints if g < 2 else [x // g for x in ints]


@dataclass(frozen=True)
class PAdicRationals(_RationalOps, ValuedField):
    """Rationals with the p-adic absolute value ``|x| = g^(-v_p(x))``."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"p-adic base must be prime, got {self.p}")

    def abs_value(self, a) -> Magnitude:
        e = self.abs_exponent(a)
        return MAG_ZERO if e is None else _magnitude(e)

    def abs_exponent(self, a) -> int | None:
        num, den = a.numerator, a.denominator
        if not num:
            return None
        e = -padic_valuation(num, self.p)
        return e if den == 1 else e + padic_valuation(den, self.p)

    def random_element(self, rng, allow_zero: bool = True) -> Fraction:
        if allow_zero and rng.random() < 0.15:
            return Fraction(0)
        # unit prime to p, shifted by a random power of p for varied valuations
        unit = 0
        while unit % self.p == 0:
            unit = rng.randint(1, 9)
        if rng.random() < 0.5:
            unit = -unit
        k = rng.randint(-3, 3)
        if k >= 0:
            return Fraction(unit * self.p**k)
        return Fraction(unit, self.p**(-k))


@dataclass(frozen=True)
class TrivialRationals(_RationalOps, ValuedField):
    """Rationals with the trivial absolute value (1 on every non-zero element)."""

    def abs_value(self, a) -> Magnitude:
        return MAG_ZERO if a == 0 else MAG_ONE

    def abs_exponent(self, a) -> int | None:
        return None if a == 0 else 0

    def random_element(self, rng, allow_zero: bool = True) -> Fraction:
        lo = 0 if allow_zero else 1
        num = rng.randint(lo, 6)
        if num and rng.random() < 0.5:
            num = -num
        return Fraction(num, rng.randint(1, 4))


@dataclass(frozen=True)
class PrimeField(ValuedField):
    """F_p with the trivial absolute value; elements are ints in [0, p)."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"field order must be prime, got {self.p}")

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return (a * pow(b, self.p - 2, self.p)) % self.p

    def neg(self, a):
        return (-a) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def abs_value(self, a) -> Magnitude:
        return MAG_ZERO if a % self.p == 0 else MAG_ONE

    def abs_exponent(self, a) -> int | None:
        return None if a % self.p == 0 else 0

    def to_ints(self, rows) -> tuple[list, int]:
        return rows, 1  # elements are ints in [0, p) already

    def from_ints(self, ints, den) -> list:
        p = self.p
        inv = 1 if den == 1 else pow(den, p - 2, p)
        return [x * inv % p for x in ints]

    def shrink(self, ints) -> list[int]:
        return [x % self.p for x in ints]

    def parse_element(self, text: str) -> int:
        try:
            value = int(text.strip())
        except ValueError:
            raise ValueError(f"not an element of F_{self.p}") from None
        if not 0 <= value < self.p:
            raise ValueError(f"element {value} out of range for F_{self.p}")
        return value

    def format_element(self, a) -> str:
        return str(a % self.p)

    def random_element(self, rng, allow_zero: bool = True) -> int:
        return rng.randrange(0 if allow_zero else 1, self.p)
