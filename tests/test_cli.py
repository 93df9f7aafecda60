import json
from fractions import Fraction as F

import pytest

from padiccf.cli import (
    _attach_negative_values,
    _option_names,
    build_parser,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_ruban_minus_three(self, capsys):
        code, out, _ = run(capsys, "expand", "--p", "3", "--floor", "ruban",
                           "--alpha", "-3", "--max-terms", "5")
        assert code == 0
        obj = json.loads(out)
        assert obj["a"] == ["0", "8/3", "8/3", "8/3", "8/3"]
        assert obj["truncated"] is True

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "expand", "--p", "3", "--floor", "browkin",
                           "--alpha", "-3", "--format", "text")
        assert code == 0
        assert out.strip() == "0 -1/3"

    def test_bad_rational_exits_2(self, capsys):
        code, _, err = run(capsys, "expand", "--p", "3", "--floor", "ruban",
                           "--alpha", "0.5")
        assert code == 2
        assert "error" in err

    def test_bad_prime_exits_2(self, capsys):
        code, _, _ = run(capsys, "expand", "--p", "4", "--floor", "ruban",
                         "--alpha", "1/2")
        assert code == 2

    @pytest.mark.parametrize("alpha", ["-3/5", "-156927/177047", "-3"])
    def test_negative_alpha_as_separate_token(self, capsys, alpha):
        base = ["expand", "--p", "3", "--floor", "ruban", "--max-terms", "8"]
        code1, out1, err1 = run(capsys, *base, "--alpha", alpha)
        code2, out2, _ = run(capsys, *base, f"--alpha={alpha}")
        assert (code1, err1) == (0, "")
        assert code2 == 0 and out1 == out2
        assert json.loads(out1)["alpha"] == alpha

    @pytest.mark.parametrize("option", ["--alp", "--a"])
    def test_negative_alpha_after_abbreviated_option(self, capsys, option):
        base = ["expand", "--p", "3", "--floor", "ruban", "--max-terms", "8"]
        code1, out1, err1 = run(capsys, *base, option, "-3/5")
        code2, out2, _ = run(capsys, *base, "--alpha=-3/5")
        assert (code1, err1) == (0, "")
        assert code2 == 0 and out1 == out2

    def test_only_unambiguous_abbreviations_take_negative_values(self):
        options = _option_names(build_parser())
        assert _attach_negative_values(["--alp", "-3/5"], options) == \
            ["--alp=-3/5"]
        # "--p" is an option of its own and a prefix of both --period and
        # --preperiod; "--pe" names --period alone
        assert _attach_negative_values(["--p", "-3/5"], options) == \
            ["--p", "-3/5"]
        assert _attach_negative_values(["--pe", "-3/5"], options) == \
            ["--pe=-3/5"]


class TestEval:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "eval", "--letters", "0,8/3,8/3")
        assert code == 0
        assert json.loads(out) == {"value": "24/73"}

    def test_malformed_word(self, capsys):
        code, _, _ = run(capsys, "eval", "--letters", "1,0")
        assert code == 2

    def test_negative_first_letter(self, capsys):
        code, out, _ = run(capsys, "eval", "--letters", "-1/3,2")
        assert code == 0
        assert json.loads(out) == {"value": "1/6"}


class TestWord:
    def test_thue_morse_text(self, capsys):
        code, out, _ = run(capsys, "word", "--gen", "thue_morse",
                           "--length", "8", "--format", "text")
        assert code == 0
        assert out.strip() == "abbabaab"

    def test_word_spec_file(self, capsys, tmp_path):
        spec = {"generator": "periodic", "params": {"period": ["0", "1", "1"]}}
        path = tmp_path / "word.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run(capsys, "word", "--word", str(path),
                           "--length", "7", "--format", "text")
        assert code == 0
        assert out.strip() == "0110110"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, "word", "--gen", "fibonacci",
                           "--length", "12", "--output", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["letters"] == list("010010100100")


class TestComplexity:
    def test_rudin_shapiro_known_value(self, capsys):
        code, out, _ = run(capsys, "complexity", "--gen", "rudin_shapiro",
                           "--length", "4096", "--n", "8")
        assert code == 0
        assert json.loads(out)["complexity"] == [{"n": 8, "count": 56}]

    def test_range(self, capsys):
        code, out, _ = run(capsys, "complexity", "--gen", "fibonacci",
                           "--length", "2000", "--n", "1:5")
        assert code == 0
        counts = [c["count"] for c in json.loads(out)["complexity"]]
        assert counts == [2, 3, 4, 5, 6]

    @pytest.mark.parametrize("n, bad", [("3:10", 9), ("0:5", 0),
                                        ("2:10000000000000", 9),
                                        ("12:10000000000000", 12)])
    def test_range_checked_before_it_is_built(self, capsys, n, bad):
        code, out, err = run(capsys, "complexity", "--gen", "fibonacci",
                             "--length", "8", "--n", n)
        assert code == 2 and out == ""
        assert err == f"error: need 1 <= n <= |prefix|, got n={bad}, L=8\n"


class TestDetect:
    def test_fibonacci_squares(self, capsys):
        code, out, _ = run(capsys, "detect", "--kind", "spade",
                           "--gen", "fibonacci", "--length", "100",
                           "--c-max", "0")
        assert code == 0
        obj = json.loads(out)
        us = [w["u"] for w in obj["witnesses"]]
        assert us == [3, 5, 8, 13, 21, 34]

    def test_budget_caps_prefix(self, capsys):
        code, out, _ = run(capsys, "detect", "--kind", "spade",
                           "--gen", "fibonacci", "--length", "100000",
                           "--budget", "100", "--c-max", "0")
        assert code == 0
        assert json.loads(out)["prefix_length"] == 100

    @pytest.mark.parametrize("command", ["detect", "complexity", "certify"])
    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_exits_2(self, capsys, command, budget):
        extra = {"detect": ["--kind", "spade"], "complexity": ["--n", "2"],
                 "certify": ["--p", "3", "--floor", "ruban",
                             "--map", "a=8/3,b=5/3"]}[command]
        code, out, err = run(capsys, command, "--gen", "thue_morse",
                             "--length", "64", "--budget", budget, *extra)
        assert code == 2 and out == ""
        assert err == f"error: --budget must be >= 1, got {budget}\n"


class TestQuadratic:
    def test_certificate_with_root_check(self, capsys):
        code, out, _ = run(capsys, "quadratic", "--preperiod", "0",
                           "--period", "8/3", "--p", "3",
                           "--verify-letters", "8")
        assert code == 0
        obj = json.loads(out)
        assert (obj["a"], obj["b"], obj["c"]) == ("-1", "8/3", "1")
        assert obj["root_check"]["valuation"] == "inf"
        assert obj["root_check"]["exact_root"] == "-3"

    def test_negative_preperiod_and_period(self, capsys):
        code, _, err = run(capsys, "quadratic", "--preperiod", "-1",
                           "--period", "-8/3")
        assert code == 2
        assert err == "error: preperiod must begin with 0\n"
        code1, out1, _ = run(capsys, "quadratic", "--preperiod", "0,-1/3",
                             "--period", "-8/3")
        code2, out2, _ = run(capsys, "quadratic", "--preperiod=0,-1/3",
                             "--period=-8/3")
        assert code1 == code2 == 0 and out1 == out2


class TestFloorValidate:
    def test_builtin_passes(self, capsys):
        code, out, _ = run(capsys, "floor-validate", "--floor", "ruban",
                           "--p", "5", "--samples", "0,7/5,-1/5,13,2/25")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_custom_spec_file(self, capsys, tmp_path):
        spec = {"kind": "custom", "p": 3,
                "remap": [{"class": "1/3", "rep": "10/3"}],
                "default": "ruban"}
        path = tmp_path / "floor.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run(capsys, "floor-validate", "--floor", str(path))
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_broken_custom_rejected(self, capsys, tmp_path):
        spec = {"kind": "custom", "p": 3,
                "remap": [{"class": "1/3", "rep": "4/3"}],
                "default": "ruban"}
        path = tmp_path / "floor.json"
        path.write_text(json.dumps(spec))
        code, _, err = run(capsys, "floor-validate", "--floor", str(path))
        assert code == 2
        assert "class" in err


class TestCertify:
    def test_thue_morse_pipeline(self, capsys, tmp_path):
        spec = {"generator": "thue_morse",
                "alphabet_map": {"a": "8/3", "b": "5/3"}}
        path = tmp_path / "tm.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run(capsys, "certify", "--p", "3", "--floor", "ruban",
                           "--word", str(path), "--length", "256",
                           "--kind", "club", "--c", "0")
        assert code == 0
        obj = json.loads(out)
        assert obj["required_k"] == 2
        assert obj["min_letter_exponent"] == 1
        assert obj["verdict"] == "failed(k-exponent)"
        assert obj["scope"] == "evidence-only"

    def test_inline_map(self, capsys):
        code, out, _ = run(capsys, "certify", "--p", "3", "--floor", "ruban",
                           "--gen", "thue_morse", "--map", "a=1/9,b=2/9",
                           "--length", "256", "--kind", "club", "--c", "0")
        assert code == 0
        assert json.loads(out)["verdict"] == "hypotheses-evidenced"


class TestDeterminism:
    CASES = [
        ("expand", "--p", "3", "--floor", "ruban", "--alpha", "24/73",
         "--max-terms", "12"),
        ("word", "--gen", "rudin_shapiro", "--length", "64"),
        ("detect", "--kind", "club", "--gen", "thue_morse", "--length", "128",
         "--c-max", "1"),
        ("quadratic", "--preperiod", "0", "--period", "7/5,2/5", "--p", "5",
         "--verify-letters", "12"),
        ("floor-validate", "--floor", "browkin", "--p", "7"),
        ("certify", "--p", "3", "--floor", "ruban", "--gen", "thue_morse",
         "--map", "a=8/3,b=5/3", "--length", "64"),
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda c: c[0])
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_word_source(self, capsys):
        code, _, err = run(capsys, "word", "--length", "5")
        assert code == 2

    @pytest.mark.parametrize("spec", [
        {"generator": "periodic", "params": {"period": 5}},
        [1, 2],
        {"generator": "explicit", "params": {"letters": "ab"},
         "alphabet_map": {"a": 3}},
        {"generator": "sturmian", "params": {"slope": {"a": 1}}},
    ])
    def test_malformed_word_spec_exits_2(self, capsys, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "detect", "--kind", "spade", "--word",
                             str(path), "--length", "10")
        assert (code, out) == (2, "")
        assert err.startswith("error: malformed word spec: ")

    @pytest.mark.parametrize("spec", [
        [3],
        {"kind": "custom", "p": 3, "remap": [1]},
        {"kind": "custom", "p": 3, "remap": [{"class": 1, "rep": "1"}]},
        {"kind": "custom", "p": [3]},
    ])
    def test_malformed_floor_spec_exits_2(self, capsys, tmp_path, spec):
        path = tmp_path / "floor.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "expand", "--floor", str(path),
                             "--alpha", "1/3")
        assert (code, out) == (2, "")
        assert err.startswith("error: malformed floor spec: ")

    def test_invariant_violation_exits_3_with_report(self, capsys, monkeypatch):
        import padiccf.cli as cli_mod

        class FailingReport:
            all_passed = False

            def to_json(self):
                return {"all_passed": False,
                        "checks": [{"name": "determinant", "passed": False}]}

        monkeypatch.setattr(cli_mod, "verify_identities",
                            lambda rec: FailingReport())
        code, _, err = run(capsys, "expand", "--p", "3", "--floor", "ruban",
                           "--alpha", "-3", "--max-terms", "5")
        assert code == 3
        assert "determinant" in err
