import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padiccf.padic import (
    INFINITY,
    PAdicApprox,
    PrecisionError,
    abs_p,
    canonical_digits,
    format_rational,
    hensel_sqrt,
    in_z_one_over_p,
    is_odd_prime,
    parse_rational,
    rational_mod,
    vp,
    weil_height,
)

VP_PRIMES = st.sampled_from((3, 5, 7, 11, 101))
UNITS = st.integers(1, 10**6)  # some carry p themselves


def trial_division_vp(num, den, p):
    # independent oracle: strip factors of p by repeated division
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    w = 0
    while den % p == 0:
        den //= p
        w += 1
    return v - w


class TestValuation:
    def test_zero(self):
        assert vp(F(0), 3) is INFINITY
        assert abs_p(F(0), 7) == 0

    def test_unit(self):
        assert vp(F(1), 5) == 0

    def test_24_over_73(self):
        assert vp(F(24, 73), 3) == trial_division_vp(24, 73, 3) == 1

    def test_abs_examples(self):
        assert abs_p(F(9), 3) == F(1, 9)
        assert abs_p(F(8, 3), 3) == 3

    def test_ultrametric_random(self):
        rng = random.Random(42)
        for p in (3, 5, 7):
            for _ in range(300):
                a = F(rng.randint(-999, 999) or 1, rng.randint(1, 999))
                b = F(rng.randint(-999, 999) or 1, rng.randint(1, 999))
                assert vp(a * b, p) == vp(a, p) + vp(b, p)
                if a + b != 0:
                    assert vp(a + b, p) >= min(vp(a, p), vp(b, p))
                    if vp(a, p) != vp(b, p):
                        assert vp(a + b, p) == min(vp(a, p), vp(b, p))

    @settings(max_examples=300, deadline=None)
    @given(VP_PRIMES, UNITS, st.integers(0, 2000), st.booleans())
    @example(3, 1, 0, False)
    @example(3, 1, 1, True)
    @example(101, 100, 2000, False)
    @example(5, 5 ** 7, 1023, True)  # p^(1023 + 7) crosses a power of two
    def test_log_step_matches_repeated_division(self, p, m, k, negative):
        n = (-m if negative else m) * p ** k
        assert vp(n, p) == trial_division_vp(n, 1, p)
        assert vp(F(n), p) == vp(n, p)

    @settings(max_examples=300, deadline=None)
    @given(VP_PRIMES, UNITS, UNITS, st.integers(0, 2000), st.integers(0, 2000))
    @example(7, 1, 1, 2000, 2000)
    @example(11, 11, 121, 5, 3)
    def test_log_step_on_fractions(self, p, m, n, k, j):
        # numerator and denominator both carry p before Fraction reduces them
        q = F(m * p ** k, n * p ** j)
        assert vp(q, p) == trial_division_vp(m * p ** k, n * p ** j, p)
        assert vp(-q, p) == vp(q, p)

    def test_abs_multiplicative(self):
        rng = random.Random(1)
        for _ in range(100):
            a = F(rng.randint(-99, 99) or 1, rng.randint(1, 99))
            b = F(rng.randint(-99, 99) or 1, rng.randint(1, 99))
            assert abs_p(a * b, 5) == abs_p(a, 5) * abs_p(b, 5)


class TestDigits:
    def test_minus_one_third(self):
        assert canonical_digits(F(-1, 3), 3, -1, 1) == [2, 2, 2]

    def test_seven_fifths(self):
        assert canonical_digits(F(7, 5), 5, -1, 0) == [2, 1]

    def test_zero(self):
        assert canonical_digits(F(0), 3, -2, 2) == [0, 0, 0, 0, 0]

    def test_bad_window(self):
        with pytest.raises(ValueError):
            canonical_digits(F(1), 3, 2, 1)

    def test_leading_zeros_below_valuation(self):
        assert canonical_digits(F(9), 3, 0, 1) == [0, 0]

    def test_round_trip(self):
        rng = random.Random(7)
        for p in (3, 5, 7):
            for _ in range(100):
                q = F(rng.randint(-500, 500) or 1, rng.randint(1, 500))
                lo, hi = -3, 4
                digits = canonical_digits(q, p, lo, hi)
                start = min(vp(q, p), lo)
                full = canonical_digits(q, p, start, hi)
                total = sum(d * F(p) ** n
                            for n, d in zip(range(start, hi + 1), full))
                assert vp(q - total, p) > hi
                assert digits == full[lo - start:]


class TestWeilHeight:
    def test_trivial(self):
        assert weil_height([F(1)], 3) == 1

    def test_one_third(self):
        assert weil_height([F(1, 3)], 3) == 3

    def test_pair(self):
        assert weil_height([F(24), F(73)], 3) == 73

    def test_permutation_invariance_and_lower_bound(self):
        rng = random.Random(5)
        for _ in range(50):
            zs = [F(rng.randint(-99, 99), 3 ** rng.randint(0, 3))
                  for _ in range(4)]
            h = weil_height(zs, 3)
            assert h >= 1
            rng.shuffle(zs)
            assert weil_height(zs, 3) == h

    def test_rejects_foreign_denominator(self):
        with pytest.raises(ValueError):
            weil_height([F(1, 6)], 3)


class TestApprox:
    def test_identity_product(self):
        one = PAdicApprox.from_rational(1, 3, 5)
        out = one * one
        assert (out.valuation, out.unit, out.precision) == (0, 1, 5)

    def test_reduce_minus_three(self):
        r = PAdicApprox.from_rational(-3, 3, 4)
        assert r.valuation == 1
        assert r.unit % 27 == 26

    def test_cancellation_detected(self):
        a5 = PAdicApprox.from_rational(F(24, 73), 3, 5)
        b5 = PAdicApprox.from_rational(-3, 3, 5)
        d5 = a5 - b5
        assert (d5.valuation, d5.unit) == (5, 1)  # 24/73 + 3 = 243/73
        a4 = PAdicApprox.from_rational(F(24, 73), 3, 4)
        b4 = PAdicApprox.from_rational(-3, 3, 4)
        d4 = a4 - b4
        assert d4.is_zeroish and d4.valuation == 5

    def test_agrees_with_exact_reduction(self):
        rng = random.Random(3)
        for _ in range(200):
            x = F(rng.randint(-500, 500) or 1, rng.randint(1, 500))
            y = F(rng.randint(-500, 500) or 1, rng.randint(1, 500))
            ax = PAdicApprox.from_rational(x, 5, 6)
            ay = PAdicApprox.from_rational(y, 5, 6)
            prod = ax * ay
            exact = PAdicApprox.from_rational(x * y, 5, prod.precision)
            assert (prod.valuation, prod.unit) == (exact.valuation, exact.unit)
            s = ax + ay
            if not s.is_zeroish and x + y != 0:
                exact = PAdicApprox.from_rational(x + y, 5, s.precision)
                assert (s.valuation, s.unit) == (exact.valuation, exact.unit)
            inv = ax.invert()
            exact = PAdicApprox.from_rational(1 / x, 5, 6)
            assert (inv.valuation, inv.unit) == (exact.valuation, exact.unit)

    def test_zeroish_inversion_rejected(self):
        with pytest.raises(PrecisionError):
            PAdicApprox.zero_to(3, 5).invert()

    def test_mixed_primes_rejected(self):
        a = PAdicApprox.from_rational(1, 3, 4)
        b = PAdicApprox.from_rational(1, 5, 4)
        with pytest.raises(ValueError):
            a + b


class TestHenselSqrt:
    def test_ten_mod_27(self):
        r = hensel_sqrt(10, 3, 3)
        assert r.unit == 19 and r.valuation == 0
        assert 19 * 19 % 27 == 10 % 27

    def test_nonresidue(self):
        assert hensel_sqrt(2, 5, 4) is None

    def test_branch_pins_small_root(self):
        r = hensel_sqrt(1, 7, 5)
        assert r.unit == 1 and r.valuation == 0

    def test_odd_valuation(self):
        assert hensel_sqrt(3, 3, 4) is None

    def test_square_property(self):
        rng = random.Random(11)
        for p in (3, 5, 7):
            for _ in range(60):
                d = F(rng.randint(1, 400), rng.randint(1, 400))
                d *= F(p) ** (2 * rng.randint(-2, 2))
                n = rng.randint(2, 6)
                r = hensel_sqrt(d, p, n)
                if r is None:
                    continue
                v = vp(d, p)
                x = r.unit * F(p) ** r.valuation
                assert vp(x * x - d, p) >= v + n


class TestHelpers:
    def test_is_odd_prime(self):
        assert is_odd_prime(3) and is_odd_prime(97)
        assert not is_odd_prime(2)
        assert not is_odd_prime(91)  # 7 * 13

    def test_rational_strings(self):
        assert parse_rational("24/73") == F(24, 73)
        assert parse_rational("-3") == -3
        assert format_rational(F(8, 3)) == "8/3"
        assert format_rational(F(-3)) == "-3"
        with pytest.raises(ValueError):
            parse_rational("0.5")

    def test_z_one_over_p(self):
        assert in_z_one_over_p(F(5, 9), 3)
        assert not in_z_one_over_p(F(5, 6), 3)

    def test_rational_mod(self):
        assert rational_mod(F(7, 5), 3, 2) == 7 * pow(5, -1, 9) % 9
        with pytest.raises(ValueError):
            rational_mod(F(1, 3), 3)
