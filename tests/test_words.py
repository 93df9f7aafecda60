from fractions import Fraction as F

import pytest

from padiccf.words import (
    DFAO,
    THUE_MORSE_DFAO,
    QuadraticSlope,
    WordSpec,
    dfao_eval,
    fibonacci_letter,
    floor_linear_in_slope,
    thue_morse_letter,
)

# display prefixes, 24 letters each
THUE_MORSE_24 = "abbabaabbaababbabaababba"
RUDIN_SHAPIRO_24 = "aaabaabaaaabbbabaaabaaba"
PAPERFOLDING_24 = "aabaabbaaabbabbaaabaabbb"
FIBONACCI_12 = "010010100100"


def prefix(generator, length, **kw):
    return "".join(WordSpec(generator, kw).stream().prefix(length))


class TestDisplayedPrefixes:
    def test_thue_morse(self):
        assert prefix("thue_morse", 8) == "abbabaab"
        assert prefix("thue_morse", 24) == THUE_MORSE_24

    def test_rudin_shapiro(self):
        assert prefix("rudin_shapiro", 8) == "aaabaaba"
        assert prefix("rudin_shapiro", 24) == RUDIN_SHAPIRO_24

    def test_paperfolding(self):
        assert prefix("paperfolding", 8) == "aabaabba"
        assert prefix("paperfolding", 24) == PAPERFOLDING_24

    def test_fibonacci(self):
        assert prefix("fibonacci", 12) == FIBONACCI_12


class TestDfao:
    def test_thue_morse_machine_examples(self):
        assert dfao_eval(THUE_MORSE_DFAO, 3) == "a"  # binary 11: two ones
        assert dfao_eval(THUE_MORSE_DFAO, 0) == "a"  # empty digit string
        assert dfao_eval(THUE_MORSE_DFAO, 4) == "b"  # binary 100: one one

    def test_machine_equals_bit_parity_formula(self):
        assert all(THUE_MORSE_DFAO.eval(n) == thue_morse_letter(n)
                   for n in range(2 ** 16))

    def test_validation(self):
        with pytest.raises(ValueError):
            DFAO(base=2, transitions=((0,),), outputs=("a",))  # not total
        with pytest.raises(ValueError):
            DFAO(base=2, transitions=((0, 5),), outputs=("a",))  # bad target
        with pytest.raises(ValueError):
            DFAO(base=2, transitions=((0, 0),), outputs=("a", "b"))

    def test_json_round_trip(self):
        obj = THUE_MORSE_DFAO.to_json()
        assert DFAO.from_json(obj) == THUE_MORSE_DFAO

    def test_dfao_word_stream(self):
        spec = WordSpec("dfao", {"dfao": THUE_MORSE_DFAO.to_json()})
        assert "".join(spec.stream().prefix(8)) == "abbabaab"


class TestFibonacci:
    def test_substitution_fixed_point_oracle(self):
        # independent oracle: iterate 0 -> 01, 1 -> 0 from "0"
        s = "0"
        while len(s) < 10 ** 5:
            s = "".join("01" if ch == "0" else "0" for ch in s)
        stream = WordSpec("fibonacci").stream()
        assert stream.prefix(10 ** 5) == list(s[:10 ** 5])

    def test_formula_letters(self):
        assert [fibonacci_letter(n) for n in range(1, 13)] == list(FIBONACCI_12)


class TestSturmian:
    GOLDEN_CONJUGATE = QuadraticSlope(a=-1, b=1, c=2, d=5)  # (sqrt(5)-1)/2

    def test_matches_fibonacci_up_to_letter_swap(self):
        st = WordSpec("sturmian", {"slope": self.GOLDEN_CONJUGATE}).stream()
        fib = WordSpec("fibonacci").stream()
        swap = {"a": "1", "b": "0"}
        assert [swap[x] for x in st.prefix(3000)] == fib.prefix(3000)

    def test_exact_floor_against_interval_oracle(self):
        # bracket sqrt(5) to 40 digits; for n <= 400 the value n*slope + beta
        # is never that close to an integer, so the interval decides the floor
        import math
        slope = self.GOLDEN_CONJUGATE
        scale = 10 ** 40
        root = math.isqrt(5 * scale * scale)
        lo, hi = F(root, scale), F(root + 1, scale)
        beta = F(1, 7)
        for n in range(1, 400):
            m = floor_linear_in_slope(slope, n, beta)
            assert m <= n * (lo - 1) / 2 + beta
            assert n * (hi - 1) / 2 + beta < m + 1

    def test_slope_validation(self):
        with pytest.raises(ValueError):
            QuadraticSlope(a=1, b=1, c=2, d=4)  # square d
        with pytest.raises(ValueError):
            QuadraticSlope(a=1, b=0, c=2, d=5)  # rational
        with pytest.raises(ValueError):
            WordSpec("sturmian",
                     {"slope": QuadraticSlope(a=3, b=1, c=2, d=5)}).stream()

    def test_intercept(self):
        spec = WordSpec("sturmian", {"slope": self.GOLDEN_CONJUGATE,
                                     "intercept": "1/3"})
        letters = spec.stream().prefix(50)
        assert set(letters) <= {"a", "b"}

    def test_json_round_trip(self):
        spec = WordSpec("sturmian", {"slope": self.GOLDEN_CONJUGATE,
                                     "intercept": F(1, 3)})
        back = WordSpec.from_json(spec.to_json())
        assert back.stream().prefix(200) == spec.stream().prefix(200)


class TestOtherGenerators:
    def test_periodic(self):
        spec = WordSpec("periodic", {"period": ["0", "1", "1"]})
        assert spec.stream().prefix(7) == list("0110110")

    def test_explicit_exhausts(self):
        spec = WordSpec("explicit", {"letters": ["0", "8/3"]})
        stream = spec.stream()
        assert stream.prefix(2) == ["0", "8/3"]
        with pytest.raises(ValueError):
            stream.letter(3)

    def test_palindromic_closure(self):
        spec = WordSpec("palindromic_closure", {"seeds": [["a"], ["b"], ["a"]]})
        stream = spec.stream()
        # T_1 = ab + ba, T_2 = abbaa + aabba
        assert "".join(stream.prefix(4)) == "abba"
        assert "".join(stream.prefix(10)) == "abbaaaabba"
        # every stage is a palindrome prefix
        for m in (4, 10):
            block = stream.prefix(m)
            assert block == block[::-1]

    def test_palindromic_closure_finite_seeds(self):
        spec = WordSpec("palindromic_closure",
                        {"seeds": [["a"], ["b"]], "periodic_seeds": False})
        stream = spec.stream()
        assert "".join(stream.prefix(4)) == "abba"
        with pytest.raises(ValueError):
            stream.letter(5)

    def test_square_blocks(self):
        spec = WordSpec("block_staircase", {"variant": "square_blocks"})
        assert "".join(spec.stream().prefix(12)) == "010011000111"

    def test_mirrored_blocks(self):
        spec = WordSpec("block_staircase", {"variant": "mirrored_blocks"})
        # beta_1 ~beta_1 beta_2 beta_3 ~beta_3 ~beta_2
        assert "".join(spec.stream().prefix(16)) == "0110011011111101"


class TestConcurrency:
    def test_materialising_generators_are_thread_safe(self):
        from concurrent.futures import ThreadPoolExecutor
        stream = WordSpec("palindromic_closure",
                          {"seeds": [["a"], ["b"]]}).stream()
        indices = list(range(1, 400)) * 3
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(stream.letter, indices))
        expected = stream.prefix(399)
        assert results == [expected[n - 1] for n in indices]


class TestAlphabetMaps:
    def test_prefix_values(self):
        spec = WordSpec("thue_morse", {}, {"a": F(1, 3), "b": F(2, 3)})
        vals = spec.stream().values(4)
        assert vals == [F(1, 3), F(2, 3), F(2, 3), F(1, 3)]

    def test_partial_quotient_mode_rejects_small_norm(self):
        spec = WordSpec("explicit", {"letters": ["0", "8/3"]})
        with pytest.raises(ValueError, match="partial"):
            spec.stream().values(2, p=3, require_partial_quotients=True)

    @pytest.mark.parametrize("letters, bad", [
        (["8/3", "5/3", "8/3", "2", "0", "2"], "2"),
        (["8/3", "0", "5/3", "2", "0"], "0"),
    ])
    def test_partial_quotient_mode_names_first_bad_value(self, letters, bad):
        spec = WordSpec("explicit", {"letters": letters})
        with pytest.raises(ValueError, match=f"^value {bad} is not"):
            spec.stream().values(len(letters), p=3,
                                 require_partial_quotients=True)

    def test_partial_quotient_mode_checks_each_value_once(self, monkeypatch):
        import padiccf.words as words
        calls = []
        monkeypatch.setattr(words, "vp", lambda v, p: calls.append(v) or -1)
        spec = WordSpec("thue_morse", {}, {"a": F(8, 3), "b": F(5, 3)})
        spec.stream().values(512, p=3, require_partial_quotients=True)
        assert calls == [F(8, 3), F(5, 3)]

    def test_partial_quotient_mode_accepts_valid(self):
        spec = WordSpec("thue_morse", {}, {"a": F(8, 3), "b": F(5, 3)})
        vals = spec.stream().values(8, p=3, require_partial_quotients=True)
        assert len(vals) == 8

    def test_duplicate_values_rejected(self):
        with pytest.raises(ValueError):
            WordSpec("thue_morse", {}, {"a": F(1, 3), "b": F(1, 3)})

    def test_unmapped_symbol_is_an_error(self):
        spec = WordSpec("thue_morse", {}, {"a": F(1, 3)})
        with pytest.raises(ValueError, match="missing"):
            spec.stream().values(2)

    def test_first_unmapped_symbol_by_position_is_named(self):
        spec = WordSpec("explicit", {"letters": ["a", "y", "x", "a", "x"]},
                        {"a": F(8, 3), "x": F(1, 3)})
        with pytest.raises(ValueError, match="^symbol 'y' missing"):
            spec.stream().values(5, p=3, require_partial_quotients=True)

    def test_values_of_a_held_prefix(self):
        stream = WordSpec("rudin_shapiro", {}, {"a": F(8, 3),
                                                "b": F(5, 3)}).stream()
        symbols = stream.prefix(64)
        assert (stream.values(64, p=3, require_partial_quotients=True,
                              symbols=symbols)
                == stream.values(64) == [stream.value(n) for n in range(1, 65)])
        with pytest.raises(ValueError, match="63 symbols for length 64"):
            stream.values(64, symbols=symbols[:63])

    def test_json_round_trip(self):
        spec = WordSpec("thue_morse", {}, {"a": F(8, 3), "b": F(5, 3)})
        back = WordSpec.from_json(spec.to_json())
        assert back == spec
        spec2 = WordSpec("periodic", {"period": ["8/3"]})
        assert WordSpec.from_json(spec2.to_json()) == spec2

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            WordSpec("nonsense")
