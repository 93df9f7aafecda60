import random
from fractions import Fraction as F

import pytest

from padiccf.combinatorics import (
    check_witness,
    complexity,
    detect,
    scan_special_prefixes,
    spade_constant_from_complexity,
    zarray,
)
from padiccf.words import WordSpec


def word(generator, length, **params):
    return WordSpec(generator, params).stream().prefix(length)


class TestComplexity:
    def test_periodic_011(self):
        prefix = word("periodic", 30, period=["0", "1", "1"])
        assert complexity(prefix, 1) == 2
        assert complexity(prefix, 2) == 3
        assert complexity(prefix, 5) == 3

    def test_periodic_equals_cyclic_factor_count(self):
        # brute-force oracle: distinct cyclic rotations cut to length n
        rng = random.Random(9)
        for _ in range(20):
            period = [rng.choice("ab") for _ in range(rng.randint(2, 6))]
            prefix = word("periodic", 60, period=period)
            for n in range(len(period), 12):
                reps = period * (n // len(period) + 2)
                cyc = {tuple(reps[i:i + n]) for i in range(len(period))}
                assert complexity(prefix, n) == len(cyc)

    def test_monotone_in_prefix_length(self):
        stream = WordSpec("rudin_shapiro").stream()
        prev = 0
        for L in (64, 128, 256, 512):
            c = complexity(stream.prefix(L), 6)
            assert c >= prev
            prev = c

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            complexity(["a", "b"], 3)

    def test_rudin_shapiro_formula_small(self):
        prefix = word("rudin_shapiro", 2 ** 12)
        assert complexity(prefix, 8) == 8 * 7

    def test_spade_constants(self):
        assert spade_constant_from_complexity(8) == 25
        assert spade_constant_from_complexity(4) == 13
        assert spade_constant_from_complexity(F(1, 3)) == 2
        with pytest.raises(ValueError):
            spade_constant_from_complexity(0)


class TestWitnesses:
    def test_thue_morse_spade_example(self):
        tm8 = word("thue_morse", 8)
        # the U V U split with |V| = 2|U| fills the whole prefix
        assert check_witness("spade", tm8, 0, 2, 4)
        # the detector's tie-break finds the cheaper (0, 2, 1) repeat
        result = detect("spade", tm8, F(2))
        entry = result.profile[1]
        assert entry.u == 2 and entry.ratio == F(1, 2)
        assert (entry.witness.w, entry.witness.v) == (0, 1)

    def test_thue_morse_club_abba(self):
        result = detect("club", word("thue_morse", 4), F(0))
        assert [(w.w, w.u, w.v) for w in result.witnesses] == [(0, 2, 0)]

    def test_fibonacci_square_prefix(self):
        result = detect("spade", word("fibonacci", 10), F(0))
        assert (0, 5, 0) in [(w.w, w.u, w.v) for w in result.witnesses]

    def test_family_u_strictly_increasing(self):
        result = detect("spade", word("fibonacci", 500), F(0))
        us = [w.u for w in result.witnesses]
        assert us == sorted(set(us))
        assert result.largest_u == us[-1]

    def test_every_witness_revalidated(self):
        for kind in ("spade", "club"):
            result = detect(kind, word("thue_morse", 256), F(2))
            for w in result.witnesses:
                assert check_witness(kind, word("thue_morse", 256),
                                     w.w, w.u, w.v)

    def test_check_witness_rejects_overflow(self):
        assert not check_witness("spade", list("abab"), 0, 2, 1)
        with pytest.raises(ValueError):
            check_witness("diamond", list("abab"), 0, 1, 0)

    def test_empty_family_is_valid(self):
        # all distinct letters: no repeats at all
        result = detect("spade", list(range(64)), F(2))
        assert result.witnesses == []
        assert all(e.ratio is None for e in result.profile)


class TestBackendEquivalence:
    @pytest.mark.parametrize("generator,length", [
        ("thue_morse", 120), ("fibonacci", 120), ("rudin_shapiro", 100)])
    @pytest.mark.parametrize("kind", ["spade", "club"])
    @pytest.mark.parametrize("c_max", [F(0), F(1), F(2)])
    def test_named_words(self, generator, length, kind, c_max):
        prefix = word(generator, length)
        fast = detect(kind, prefix, c_max, method="hashed")
        slow = detect(kind, prefix, c_max, method="naive")
        assert fast.to_json() == slow.to_json()

    def test_random_words(self):
        rng = random.Random(77)
        for _ in range(6):
            prefix = [rng.choice("ab") for _ in range(rng.randint(40, 120))]
            for kind in ("spade", "club"):
                fast = detect(kind, prefix, F(1), method="hashed")
                slow = detect(kind, prefix, F(1), method="naive")
                assert fast.to_json() == slow.to_json()

    def test_periodic_at_500(self):
        prefix = word("periodic", 500, period=["0", "1", "1"])
        fast = detect("spade", prefix, F(0), method="hashed")
        slow = detect("spade", prefix, F(0), method="naive")
        assert fast.to_json() == slow.to_json()

    def test_thue_morse_at_500_c0(self):
        prefix = word("thue_morse", 500)
        for kind in ("spade", "club"):
            fast = detect(kind, prefix, F(0), method="hashed")
            slow = detect(kind, prefix, F(0), method="naive")
            assert fast.to_json() == slow.to_json()


class TestStressWords:
    def test_square_blocks_defeat_both_conditions(self):
        # gaps before repeats grow quadratically, so u stalls at O(sqrt(L))
        prefix = word("block_staircase", 600, variant="square_blocks")
        for kind in ("spade", "club"):
            result = detect(kind, prefix, F(2))
            assert result.largest_u == 10

    def test_mirrored_blocks_prefer_club(self):
        prefix = word("block_staircase", 600, variant="mirrored_blocks")
        spade = detect("spade", prefix, F(2))
        club = detect("club", prefix, F(2))
        assert club.largest_u == 105
        assert spade.largest_u == 18

    def test_palindromic_closure_feeds_club(self):
        prefix = word("palindromic_closure", 512, seeds=[["a"], ["b"], ["a"]])
        result = detect("club", prefix, F(0))
        us = [w.u for w in result.witnesses]
        assert us[-1] == 191 and len(us) >= 8

    def test_sturmian_complexity_second_slope(self):
        from padiccf.words import QuadraticSlope
        pell = word("sturmian", 4000,
                    slope=QuadraticSlope(a=-1, b=1, c=1, d=2))
        for n in range(1, 21):
            assert complexity(pell, n) == n + 1

    def test_noncharacteristic_sturmian_mirrors_at_c2(self):
        # with a nonzero intercept the word need not start with palindromes,
        # but mirror witnesses within ratio 2 keep appearing with growing u
        from padiccf.words import QuadraticSlope
        st = word("sturmian", 2000,
                  slope=QuadraticSlope(a=-1, b=1, c=2, d=5),
                  intercept=F(1, 3))
        result = detect("club", st, F(2))
        assert result.largest_u == 962
        assert all(w.ratio <= 2 for w in result.witnesses)


class TestScan:
    def test_fibonacci_square(self):
        scan = scan_special_prefixes(word("fibonacci", 10))
        assert scan.longest_square_u == 5

    def test_thue_morse_palindrome(self):
        scan = scan_special_prefixes(word("thue_morse", 8))
        assert scan.longest_palindromic_prefix == 4

    def test_periodic_candidates(self):
        scan = scan_special_prefixes(word("periodic", 30, period=["0", "1", "1"]))
        assert (0, 3) in scan.period_candidates

    def test_non_periodic_word_has_no_zero_preperiod(self):
        scan = scan_special_prefixes(word("thue_morse", 64))
        assert all(r > 0 for r, q in scan.period_candidates)

    def test_zarray(self):
        assert zarray("aabaab") == [6, 1, 0, 3, 1, 0]
        assert zarray("") == []
