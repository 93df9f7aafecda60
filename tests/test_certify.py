import json
import sys
from fractions import Fraction as F

import pytest

from padiccf.certify import (
    certify,
    check_corollary,
    floor_log_exact,
    growth_bounds,
    required_k,
)
from padiccf.cf import expand
from padiccf.floors import FloorFunction
from padiccf.words import WordSpec

ODD_PRIMES_BELOW_100 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                        47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


class TestRequiredK:
    def test_exponent_table_every_prime(self):
        for p in ODD_PRIMES_BELOW_100:
            assert required_k("spade", p, 0, p + 1) == 4
            assert required_k("spade", p, 0, F(p, 2) + 1) == 3
            assert required_k("club", p, 0, p + 1) == 2
            assert required_k("club", p, 0, F(p, 2) + 1) == 1

    def test_floor_log_exact_equality_boundary(self):
        # p^k = C^t exactly: the floor is k itself
        assert floor_log_exact(3, F(9), F(1)) == 2
        assert floor_log_exact(3, F(3), F(3)) == 3
        assert floor_log_exact(5, F(5), F(2)) == 2
        assert floor_log_exact(5, F(24, 5), F(2)) == 1  # (24/5)^2 = 23.04

    def test_club_nonzero_c(self):
        # c = 1: exponent 10 instead of 1
        assert required_k("club", 3, 1, F(3)) == \
            floor_log_exact(3, F(3), F(10)) + 1 == 11

    def test_spade_c_break_even(self):
        # max(3, 6c+2) switches at c = 1/6
        assert required_k("spade", 5, F(1, 6), F(5)) == \
            required_k("spade", 5, 0, F(5))
        assert required_k("spade", 5, F(1, 3), F(5)) == \
            floor_log_exact(5, F(5), F(4)) + 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            required_k("spade", 3, 0, F(1))
        with pytest.raises(ValueError):
            required_k("spade", 4, 0, F(2))
        with pytest.raises(ValueError):
            required_k("heart", 3, 0, F(2))


class TestGrowthBounds:
    def test_browkin_alphabet_bound(self):
        letters = [F(5, 2), F(-5, 2), F(1, 2), F(-1, 2)] * 3
        gb = growth_bounds(letters, p=5)
        assert gb.alphabet_bound_T == F(5, 2)
        assert gb.c_inf_for_all_n <= F(7, 2)  # min(surd bound, T+1)

    def test_periodic_eight_thirds_cp(self):
        gb = growth_bounds([F(8, 3)] * 8, p=3)
        assert gb.c_p_exponent == 1  # |B_n|_3 = 3^n exactly

    def test_single_letter_observed_bound(self):
        gb = growth_bounds([F(8, 3)], p=3)
        # smallest grid rational whose first power dominates max(|a_1|, 1)
        assert F(8, 3) <= gb.c_inf_observed <= F(8, 3) + F(1, 1024)

    def test_observed_bound_certifies(self):
        from padiccf.cf import continuants
        letters = [F(8, 3), F(5, 3), F(8, 3), F(7, 3), F(1, 3)]
        gb = growth_bounds(letters, p=3)
        states = continuants([F(0)] + letters)
        for s in states[1:]:
            assert max(abs(s.A), abs(s.B)) <= gb.c_inf_observed ** s.index

    def test_record_input(self):
        rec = expand(F(-3), FloorFunction.ruban(3), 6)
        gb = growth_bounds(rec)
        assert gb.c_p_exponent == 1
        assert gb.c_inf_for_all_n == 3  # T = 8/3: (T + sqrt(T^2+4))/2 = 3

    def test_zero_letter_after_a0_rejected(self):
        with pytest.raises(ValueError, match="must be nonzero"):
            growth_bounds([F(8, 3), F(0), F(5, 3)], p=3)


class TestCorollaries:
    def test_browkin_ruban_exponent_requirements(self):
        rep = check_corollary("browkin_ruban", floor_kind="ruban",
                              condition="repetitions", p=3)
        assert rep.extra["required_k"] == 4
        rep = check_corollary("browkin_ruban", floor_kind="browkin",
                              condition="palindromes", p=3, min_exponent=1)
        assert rep.extra["required_k"] == 1
        assert rep.passed

    def test_finite_alphabet_club_c0(self):
        rep = check_corollary("finite_alphabet", variant="club", c=0, T=2, p=5)
        assert rep.passed  # 2 < 4

    def test_finite_alphabet_spade(self):
        # (T+1)^3 < p with T = 1: 8 < 11
        assert check_corollary("finite_alphabet", variant="spade",
                               c=0, T=1, p=11).passed
        assert not check_corollary("finite_alphabet", variant="spade",
                                   c=0, T=1, p=7).passed

    def test_automatic_binary_pass_97(self):
        rep = check_corollary("automatic_binary",
                              a=F(1, 97), b=F(2, 97), C=4, p=97)
        assert rep.passed
        assert all(ok for _, ok, _ in rep.conditions)

    def test_automatic_binary_fail_11_on_third(self):
        rep = check_corollary("automatic_binary",
                              a=F(1, 11), b=F(2, 11), C=4, p=11)
        assert not rep.passed
        names = [(name, ok) for name, ok, _ in rep.conditions]
        assert names[0][1] and names[1][1] and not names[2][1]

    def test_large_p_least_prime(self):
        rep = check_corollary("large_p", n=1, m=2, C=4)
        assert rep.extra["least_prime"] == 43
        again = check_corollary("large_p", n=1, m=2, C=4)
        assert rep.to_json() == again.to_json()

    def test_large_p_skips_dividing_primes(self):
        rep = check_corollary("large_p", n=3, m=6, C=F(1, 18))
        p0 = rep.extra["least_prime"]
        assert p0 is not None and (3 * 6 * (3 - 6)) % p0 != 0

    def test_monotone_in_p_with_coprime_side_condition(self):
        passed_once = False
        for p in ODD_PRIMES_BELOW_100:
            if (1 * 2 * 1) % p == 0:
                continue
            ok = check_corollary("automatic_binary",
                                 a=F(1, p), b=F(2, p), C=4, p=p).passed
            if passed_once:
                assert ok
            passed_once = passed_once or ok
        assert passed_once

    def test_unknown_corollary(self):
        with pytest.raises(ValueError):
            check_corollary("nonsense")


class TestCertify:
    RUBAN3 = FloorFunction.ruban(3)

    def test_thue_morse_club_fails_exponent(self):
        spec = WordSpec("thue_morse", {}, {"a": F(8, 3), "b": F(5, 3)})
        cert = certify(3, self.RUBAN3, spec.stream(), 2 ** 10,
                       condition_hint="club", c_hint=0)
        assert cert.required_k == 2
        assert cert.min_letter_exponent == 1
        assert cert.verdict == "failed(k-exponent)"

    def test_letter_not_fixed_rejected(self):
        # 10/3 is in the class of 1/3, so it is not its own Ruban floor
        spec = WordSpec("thue_morse", {}, {"a": F(8, 3), "b": F(10, 3)})
        with pytest.raises(ValueError, match="not fixed"):
            certify(3, self.RUBAN3, spec.stream(), 32)

    def test_mixed_alphabet_accepted_when_fixed(self):
        # 7/3 = 1/3 + 2 is its own Ruban floor, so this alphabet is legal
        spec = WordSpec("thue_morse", {}, {"a": F(8, 3), "b": F(7, 3)})
        cert = certify(3, self.RUBAN3, spec.stream(), 64)
        assert cert.verdict.startswith(("hypotheses-evidenced", "failed"))

    def test_periodic_word_flagged(self):
        spec = WordSpec("periodic", {"period": ["8/3"]})
        cert = certify(3, self.RUBAN3, spec.stream(), 32)
        assert cert.periodicity["periodic_prefix"] is True
        assert cert.required_k == 4  # C_inf = 3 exactly, spade, c = 0
        assert cert.min_letter_exponent == 1
        assert cert.verdict == "failed(k-exponent)"

    def test_hypotheses_evidenced_verdict(self):
        # letters with exponent 2 at p = 3: 1/9-based alphabet, club c = 0
        spec = WordSpec("thue_morse", {}, {"a": F(1, 9), "b": F(2, 9)})
        cert = certify(3, self.RUBAN3, spec.stream(), 2 ** 10,
                       condition_hint="club", c_hint=0)
        assert cert.min_letter_exponent == 2
        assert cert.required_k <= 2
        assert cert.verdict == "hypotheses-evidenced"
        assert all(s["passed"] for s in cert.approx_spot_checks)

    def test_json_deterministic_and_scoped(self):
        spec = WordSpec("thue_morse", {}, {"a": F(8, 3), "b": F(5, 3)})
        one = certify(3, self.RUBAN3, spec.stream(), 64).to_json()
        two = certify(3, self.RUBAN3, spec.stream(), 64).to_json()
        assert json.dumps(one) == json.dumps(two)
        assert one["scope"] == "evidence-only"
        assert "disclaimer" in one and one["schema_version"] == 1

    def test_minimum_length(self):
        spec = WordSpec("periodic", {"period": ["8/3"]})
        with pytest.raises(ValueError):
            certify(3, self.RUBAN3, spec.stream(), 8)

    def test_floor_prime_mismatch(self):
        spec = WordSpec("periodic", {"period": ["8/3"]})
        with pytest.raises(ValueError):
            certify(5, self.RUBAN3, spec.stream(), 32)


def test_package_attribute_is_the_certify_module():
    import padiccf
    import padiccf.certify as module

    assert module is sys.modules["padiccf.certify"]
    assert padiccf.certify is module
    assert callable(module.certify) and callable(module._ceil_root)
