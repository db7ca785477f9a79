import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from protex import (
    MAG_ONE,
    MAG_ZERO,
    FinWeightedVec,
    Magnitude,
    PAdicRationals,
    PrimeField,
    TrivialRationals,
    audit_axioms,
    audit_obscure,
    format_magnitude,
    mag_compare,
    parse_magnitude,
)
from protex.scalars import _is_prime, _parse_rational, padic_valuation

magnitudes = st.one_of(
    st.just(MAG_ZERO),
    st.fractions(min_value=-20, max_value=20).map(Magnitude.of),
)


def trial_division_valuation(n: int, p: int) -> int:
    # independent oracle: repeated division
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class TestMagnitude:
    def test_total_order_basics(self):
        assert mag_compare(MAG_ZERO, Magnitude.of(-5)) == -1
        assert mag_compare(Magnitude.of(0), Magnitude.of(0)) == 0
        assert mag_compare(Magnitude.of(Fraction(1, 2)), Magnitude.of(Fraction(1, 3))) == 1

    def test_multiplication_basics(self):
        assert MAG_ONE * Magnitude.of(Fraction(7, 3)) == Magnitude.of(Fraction(7, 3))
        assert MAG_ZERO * Magnitude.of(7) == MAG_ZERO
        assert Magnitude.of(Fraction(1, 2)) * Magnitude.of(Fraction(1, 3)) == Magnitude.of(
            Fraction(5, 6)
        )

    def test_division(self):
        assert Magnitude.of(3) / Magnitude.of(1) == Magnitude.of(2)
        assert MAG_ZERO / Magnitude.of(5) == MAG_ZERO
        with pytest.raises(ZeroDivisionError):
            Magnitude.of(1) / MAG_ZERO

    @given(magnitudes, magnitudes, magnitudes)
    def test_order_respects_multiplication(self, a, b, c):
        if a <= b:
            assert a * c <= b * c

    @given(magnitudes, magnitudes, magnitudes)
    def test_mul_associative_commutative(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * MAG_ONE == a

    @given(magnitudes)
    def test_round_trip(self, m):
        assert parse_magnitude(format_magnitude(m)) == m

    def test_text_forms(self):
        assert format_magnitude(MAG_ZERO) == "0"
        assert format_magnitude(Magnitude.of(Fraction(2, 4))) == "g^1/2"
        assert format_magnitude(Magnitude.of(-3)) == "g^-3"
        assert parse_magnitude("g^-3") == Magnitude.of(-3)
        assert format_magnitude(parse_magnitude("g^2/2")) == "g^1"
        assert format_magnitude(parse_magnitude("g^-4/6")) == "g^-2/3"
        with pytest.raises(ValueError):
            parse_magnitude("3")


def _exponent_order(m):
    # reference order: zero below every g^q, powers by their exponent
    return (0, Fraction(0)) if m.exponent is None else (1, m.exponent)


class TestDirectComparisons:
    @given(magnitudes, magnitudes)
    def test_operators_follow_the_exponent_order(self, a, b):
        ka, kb = _exponent_order(a), _exponent_order(b)
        assert (a < b) == (ka < kb)
        assert (a <= b) == (ka <= kb)
        assert (a > b) == (ka > kb)
        assert (a >= b) == (ka >= kb)
        assert mag_compare(a, b) == (ka > kb) - (ka < kb)

    @given(st.fractions(min_value=-20, max_value=20))
    def test_zero_below_every_power(self, q):
        m = Magnitude.of(q)
        assert MAG_ZERO < m and MAG_ZERO <= m and m > MAG_ZERO and m >= MAG_ZERO
        assert not (m < MAG_ZERO or m <= MAG_ZERO or MAG_ZERO > m or MAG_ZERO >= m)
        assert (mag_compare(MAG_ZERO, m), mag_compare(m, MAG_ZERO)) == (-1, 1)
        assert MAG_ZERO <= MAG_ZERO and MAG_ZERO >= MAG_ZERO
        assert not (MAG_ZERO < MAG_ZERO or MAG_ZERO > MAG_ZERO)
        assert mag_compare(MAG_ZERO, MAG_ZERO) == 0


padic_scalars = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
)


class TestPAdicAbsValue:
    @given(st.sampled_from([2, 3, 5]), padic_scalars)
    def test_abs_value_is_g_to_minus_the_valuation(self, p, x):
        F = PAdicRationals(p)
        if x == 0:
            assert F.abs_value(x) is MAG_ZERO
            return
        q = Fraction(x)
        v = trial_division_valuation(q.numerator, p) - trial_division_valuation(q.denominator, p)
        assert F.abs_value(x) == Magnitude.of(-v)

    @given(st.sampled_from([2, 3, 5]), padic_scalars.filter(lambda x: x != 0))
    def test_cached_magnitudes_equal_fresh_ones(self, p, x):
        F = PAdicRationals(p)
        m = F.abs_value(x)
        fresh = Magnitude.of(m.exponent)
        assert m is not fresh and m == fresh
        assert hash(m) == hash(fresh)
        assert format_magnitude(m) == format_magnitude(fresh)
        assert repr(m) == repr(fresh)
        assert F.abs_value(x) is m

    def test_zero_in_every_form(self):
        for p in (2, 3, 5):
            F = PAdicRationals(p)
            assert F.abs_value(0) is MAG_ZERO
            assert F.abs_value(Fraction(0)) is MAG_ZERO
            assert F.is_zero(Fraction(0)) and F.is_zero(0)
            assert not F.is_zero(Fraction(-1, p))


class TestPAdicValuation:
    # p = 2 reads the valuation off the lowest set bit; the others divide
    @given(
        st.sampled_from([2, 3, 5]),
        st.integers(min_value=-(2**200), max_value=2**200).filter(bool),
    )
    def test_matches_the_division_loop(self, p, n):
        assert padic_valuation(n, p) == trial_division_valuation(n, p)

    @given(st.sampled_from([2, 3, 5]), st.integers(0, 86), st.integers(1, 2**64), st.booleans())
    def test_high_valuations(self, p, k, unit, negative):
        n = unit * p**k
        if n > 2**200:
            return
        n = -n if negative else n
        assert padic_valuation(n, p) == trial_division_valuation(n, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_prime_powers(self, p):
        k = 0
        while p**k <= 2**200:
            for n in (p**k, -(p**k), p**k + 1, p**k - 1, -(p**k) * (p + 1)):
                if n:
                    assert padic_valuation(n, p) == trial_division_valuation(n, p)
            assert padic_valuation(p**k, p) == k
            k += 1

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_zero_raises(self, p):
        with pytest.raises(ZeroDivisionError):
            padic_valuation(0, p)


class TestPAdic:
    def test_abs_examples(self):
        F = PAdicRationals(2)
        assert F.abs_value(Fraction(0)) == MAG_ZERO
        assert F.abs_value(Fraction(2)) == Magnitude.of(-1)
        # oracle: 12 = 2^2 * 3
        assert trial_division_valuation(12, 2) == 2
        assert F.abs_value(Fraction(12)) == Magnitude.of(-2)
        assert F.abs_value(Fraction(1, 4)) == Magnitude.of(2)

    def test_requires_prime(self):
        with pytest.raises(ValueError):
            PAdicRationals(6)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_valuation_laws_random(self, p):
        F = PAdicRationals(p)
        rng = random.Random(p * 101)
        for _ in range(3500):
            x = F.random_element(rng)
            y = F.random_element(rng)
            assert F.abs_value(F.mul(x, y)) == F.abs_value(x) * F.abs_value(y)
            assert F.abs_value(F.add(x, y)) <= max(F.abs_value(x), F.abs_value(y))
            assert (F.abs_value(x) == MAG_ZERO) == (x == 0)


class TestTrivialAndPrimeFields:
    def test_trivial_rationals(self):
        F = TrivialRationals()
        assert F.abs_value(Fraction(7, 9)) == MAG_ONE
        assert F.abs_value(Fraction(0)) == MAG_ZERO

    def test_prime_field_arithmetic(self):
        F = PrimeField(5)
        assert F.div(F.one, 2) == 3  # 2 * 3 = 6 = 1 mod 5
        assert F.abs_value(0) == MAG_ZERO
        assert F.abs_value(4) == MAG_ONE
        with pytest.raises(ZeroDivisionError):
            F.div(1, 0)
        with pytest.raises(ValueError):
            PrimeField(8)

    def test_prime_field_laws_exhaustive(self):
        F = PrimeField(3)
        for x in range(F.p):
            for y in range(F.p):
                assert F.abs_value(F.mul(x, y)) == F.abs_value(x) * F.abs_value(y)
                assert F.abs_value(F.add(x, y)) <= max(F.abs_value(x), F.abs_value(y))

    def test_element_round_trip(self):
        F = PrimeField(7)
        for x in range(F.p):
            assert F.parse_element(F.format_element(x)) == x
        Q = PAdicRationals(3)
        for s in ["-4/9", "5", "0"]:
            assert Q.format_element(Q.parse_element(s)) == s


# ---------------------------------------------------------------------------
# Exponent representation: int when integral, interned, same values as Fraction
# ---------------------------------------------------------------------------

exponents = st.one_of(st.integers(-20, 20), st.fractions(min_value=-20, max_value=20))
# operands in every form a caller can build, including a Fraction with denominator 1
operands = st.one_of(
    st.just(MAG_ZERO),
    exponents.map(Magnitude.of),
    exponents.map(lambda q: Magnitude(Fraction(q))),
)


def assert_normal(m, q):
    """``m`` is g^q in normal form: int exponent exactly when q is integral."""
    q = Fraction(q)
    assert (type(m.exponent) is int) == (q.denominator == 1)
    ref = Magnitude(q)
    assert m == ref and hash(m) == hash(ref)
    assert format_magnitude(m) == format_magnitude(ref)
    assert repr(m) == repr(ref)
    if q.denominator == 1:
        # one shared object per integer exponent, whichever path built it
        assert m is parse_magnitude(f"g^{q.numerator}")
        assert m is Magnitude.of(q) * MAG_ONE


class TestExponentRepresentation:
    @given(operands, operands)
    def test_products_and_quotients(self, a, b):
        prod = a * b
        if a.is_zero or b.is_zero:
            assert prod is MAG_ZERO
        else:
            assert_normal(prod, Fraction(a.exponent) + Fraction(b.exponent))
        if not b.is_zero:
            quot = a / b
            if a.is_zero:
                assert quot is MAG_ZERO
            else:
                assert_normal(quot, Fraction(a.exponent) - Fraction(b.exponent))

    @given(st.integers(-40, 40), st.integers(1, 12))
    def test_parsed_magnitudes(self, num, den):
        assert_normal(parse_magnitude(f"g^{num}/{den}"), Fraction(num, den))

    @given(st.sampled_from([2, 3, 5]), padic_scalars.filter(lambda x: x != 0))
    def test_absolute_values(self, p, x):
        q = Fraction(x)
        v = trial_division_valuation(q.numerator, p) - trial_division_valuation(q.denominator, p)
        assert_normal(PAdicRationals(p).abs_value(x), -v)

    def test_of_normalizes_into_a_fresh_object(self):
        assert type(MAG_ONE.exponent) is int
        m = Magnitude.of(Fraction(4, 2))
        assert type(m.exponent) is int and m.exponent == 2
        assert m is not Magnitude.of(2) and m == Magnitude.of(2)
        assert type(Magnitude.of(Fraction(1, 2)).exponent) is Fraction

    def test_audits_do_no_fraction_arithmetic(self, monkeypatch):
        # every weight and absolute value here is an integer power of g
        calls = []
        for name in ("__add__", "__radd__", "__sub__", "__hash__"):
            original = getattr(Fraction, name)

            def counted(*args, _original=original, _name=name):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(Fraction, name, counted)
        C = FinWeightedVec(PrimeField(2), (MAG_ONE, Magnitude.of(1)), max_dim=2)
        reports = [audit_axioms(C), audit_obscure(C)]
        assert all(report.entries for report in reports)
        assert calls == []


# the last three have no prime factor below 43, so no base divides them
CARMICHAEL = [561, 1105, 1729, 41041, 5394826801, 294409, 56052361, 118901521]
# strong pseudoprimes to the first 4, 9 and 12 primes
STRONG_PSEUDOPRIMES = [3215031751, 3825123056546413051, 318665857834031151167461]
LARGE_PRIMES = [
    2**31 - 1,
    10**12 + 39,
    2**61 - 1,
    10**18 + 3,
    2**71 + 11,
    3317044064679887385961813,  # the largest prime below the exact bound
]


class TestIsPrime:
    def test_against_sympy_below_1e5(self):
        sympy = pytest.importorskip("sympy")
        assert [n for n in range(-5, 10**5) if _is_prime(n)] == list(sympy.primerange(10**5))

    def test_composites_that_fool_weaker_tests(self):
        sympy = pytest.importorskip("sympy")
        for n in [*CARMICHAEL, *STRONG_PSEUDOPRIMES]:
            assert not sympy.isprime(n)
            assert not _is_prime(n), n

    def test_large_primes(self):
        sympy = pytest.importorskip("sympy")
        for n in LARGE_PRIMES:
            assert sympy.isprime(n)
            assert _is_prime(n), n

    def test_refuses_where_not_exact(self):
        for n in (3317044064679887385961981, 10**30, 2**127 - 1):
            with pytest.raises(ValueError, match="cannot decide primality"):
                _is_prime(n)
        with pytest.raises(ValueError):
            PAdicRationals(2**127 - 1)


def _verdict(read, text):
    """The text form of ``read(text)``, or None where it is refused."""
    try:
        return str(read(text))
    except ValueError:
        return None


LIMIT = sys.get_int_max_str_digits()
# a non-zero mantissa with as many leading decimal zeros as the limit allows
TINY = "0." + "0" * (LIMIT - 1) + "1"


class TestExponentNotation:
    """Reading exponent notation gives Fraction's verdict, without its 10**|e|."""

    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize(
        "exponent", [LIMIT - 1, LIMIT, LIMIT + 1, 2 * LIMIT - 1, 2 * LIMIT, 2 * LIMIT + 1]
    )
    def test_same_verdict_as_fraction(self, exponent, sign):
        for mantissa in ["1", "-7", "0.5", "12_3.25", "0", "0.000", TINY]:
            text = f"{mantissa}e{sign}{exponent}"
            assert _verdict(_parse_rational, text) == _verdict(Fraction, text), text[:20]

    def test_tiny_mantissa_reads_just_below_the_cutoff(self):
        # 10**-LIMIT * 10**(2 * LIMIT - 1) has LIMIT digits: an earlier refusal would be wrong
        assert len(str(_parse_rational(f"{TINY}e{2 * LIMIT - 1}"))) == LIMIT

    @pytest.mark.parametrize("text", ["1e100000000", "-3.5E-100000000", "g^1e100000000"])
    def test_huge_exponents_are_refused_at_once(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="too long to write back"):
            parse_magnitude(text) if text.startswith("g^") else _parse_rational(text)
        assert time.perf_counter() - start < 2

    def test_zero_mantissa_reads_as_zero_whatever_the_exponent(self):
        assert _parse_rational("0.00e100000000") == 0
        assert _parse_rational("-0e-100000000") == 0

