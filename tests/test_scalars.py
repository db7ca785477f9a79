import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from protex import (
    MAG_ONE,
    MAG_ZERO,
    Magnitude,
    PAdicRationals,
    PrimeField,
    TrivialRationals,
    format_magnitude,
    mag_compare,
    mag_mul,
    parse_magnitude,
)

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
        assert mag_mul(MAG_ONE, Magnitude.of(Fraction(7, 3))) == Magnitude.of(Fraction(7, 3))
        assert mag_mul(MAG_ZERO, Magnitude.of(7)) == MAG_ZERO
        assert mag_mul(Magnitude.of(Fraction(1, 2)), Magnitude.of(Fraction(1, 3))) == Magnitude.of(
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
        assert list(F.elements()) == [0, 1, 2, 3, 4]
        with pytest.raises(ZeroDivisionError):
            F.div(1, 0)
        with pytest.raises(ValueError):
            PrimeField(8)

    def test_prime_field_laws_exhaustive(self):
        F = PrimeField(3)
        for x in F.elements():
            for y in F.elements():
                assert F.abs_value(F.mul(x, y)) == F.abs_value(x) * F.abs_value(y)
                assert F.abs_value(F.add(x, y)) <= max(F.abs_value(x), F.abs_value(y))

    def test_element_round_trip(self):
        F = PrimeField(7)
        for x in F.elements():
            assert F.parse_element(F.format_element(x)) == x
        Q = PAdicRationals(3)
        for s in ["-4/9", "5", "0"]:
            assert Q.format_element(Q.parse_element(s)) == s
