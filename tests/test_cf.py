import random
from fractions import Fraction as F

import pytest

from padiccf.cf import (
    DegenerateTailError,
    ExpansionRecord,
    MalformedWordError,
    continuant_matrix,
    continuants,
    eval_cf,
    expand,
    tail_reconstruct,
    verify_identities,
)
from padiccf.floors import FloorFunction
from padiccf.padic import vp


def random_in_p_z_p(rng, p, bound=2000):
    q = F(rng.randint(-bound, bound) or 1, rng.randint(1, bound))
    v = vp(q, p)
    return q * F(p) ** max(0, 1 - v)


class TestExpand:
    def test_zero(self):
        rec = expand(F(0), FloorFunction.ruban(3), 10)
        assert rec.partial_quotients == [0]
        assert rec.terminated and not rec.truncated

    def test_minus_three_browkin(self):
        rec = expand(F(-3), FloorFunction.browkin(3), 10)
        assert rec.partial_quotients == [0, F(-1, 3)]
        assert rec.terminated

    def test_minus_three_ruban_periodic(self):
        rec = expand(F(-3), FloorFunction.ruban(3), 5)
        assert rec.partial_quotients == [0] + [F(8, 3)] * 4
        assert rec.truncated and not rec.terminated

    def test_partial_quotients_have_norm_above_one(self):
        rng = random.Random(8)
        for p in (3, 5, 7):
            for _ in range(30):
                q = F(rng.randint(-500, 500) or 1, rng.randint(1, 500))
                rec = expand(q, FloorFunction.ruban(p), 12)
                assert all(vp(a, p) <= -1 for a in rec.partial_quotients[1:])

    def test_bad_max_terms(self):
        with pytest.raises(ValueError):
            expand(F(1), FloorFunction.ruban(3), 0)


class TestContinuants:
    def test_example(self):
        st = continuants([F(0), F(8, 3), F(8, 3)])
        assert [s.A for s in st] == [0, 1, F(8, 3)]
        assert [s.B for s in st] == [1, F(8, 3), F(73, 9)]

    def test_base_case(self):
        st = continuants([F(7, 5)])
        assert st[0].A == F(7, 5) and st[0].B == 1

    def test_determinant(self):
        st = continuants([F(0), F(8, 3)])
        assert st[-1].determinant() == 1  # (-1)^2 at n = 1
        rng = random.Random(2)
        word = [F(rng.randint(-9, 9) or 1, 3) for _ in range(10)]
        for s in continuants(word):
            assert s.determinant() == F(-1) ** (s.index + 1)

    def test_matrix_composition(self):
        # the matrix of a concatenation is the product of the matrices
        rng = random.Random(6)
        for _ in range(40):
            u = [F(rng.randint(1, 9), 3) for _ in range(rng.randint(1, 5))]
            v = [F(rng.randint(1, 9), 3) for _ in range(rng.randint(1, 5))]
            (a, b), (c, d) = continuant_matrix(u)
            (e, f), (g, h) = continuant_matrix(v)
            prod = ((a * e + b * g, a * f + b * h),
                    (c * e + d * g, c * f + d * h))
            assert continuant_matrix(u + v) == prod

    def test_mirrored_extension_products(self):
        # appending rev(W) (or rev(W) minus its last letter) to the word
        # [0, W, U, V, rev(U)] composes the continuants at the junction
        # with those of [0, W]: four bilinear product identities
        def rletter(rng, p=3):
            k = rng.choice((-1, -2))
            d = {n: rng.randint(0, p - 1) for n in range(k, 1)}
            while d[k] == 0:
                d[k] = rng.randint(1, p - 1)
            return sum(x * F(p) ** n for n, x in d.items())

        rng = random.Random(17)
        for _ in range(30):
            W = [rletter(rng) for _ in range(rng.randint(1, 3))]
            U = [rletter(rng) for _ in range(rng.randint(1, 3))]
            V = [rletter(rng) for _ in range(rng.randint(0, 2))]
            full = [F(0)] + W + U + V + U[::-1]
            S = continuants(full)[-1]
            SW = continuants([F(0)] + W)[-1]
            Q = continuants(full + W[::-1])[-1]
            Qp = continuants(full + W[1:][::-1])[-1]
            assert Q.B == S.B * SW.B + S.B_prev * SW.B_prev
            assert Qp.B == S.B * SW.A + S.B_prev * SW.A_prev
            assert Q.A == S.A * SW.B + S.A_prev * SW.B_prev
            assert Qp.A == S.A * SW.A + S.A_prev * SW.A_prev


class TestEval:
    def test_examples(self):
        assert eval_cf([F(0), F(-1, 3)]) == -3
        assert eval_cf([F(0), F(8, 3), F(8, 3)]) == F(24, 73)
        assert eval_cf([F(7, 5)]) == F(7, 5)

    def test_terminated_expansion_round_trip(self):
        rng = random.Random(12)
        for p in (3, 5, 7):
            for _ in range(40):
                q = F(rng.randint(-10**5, 10**5) or 1, rng.randint(1, 10**5))
                rec = expand(q, FloorFunction.browkin(p), 10**4)
                assert rec.terminated
                assert eval_cf(rec.partial_quotients) == q

    def test_malformed(self):
        with pytest.raises(MalformedWordError):
            eval_cf([F(1), F(0)])
        with pytest.raises(MalformedWordError):
            eval_cf([])


class TestTailReconstruct:
    def test_empty_prefix(self):
        assert tail_reconstruct([], F(-1, 3)) == F(-1, 3)

    def test_examples(self):
        assert tail_reconstruct([F(0)], F(-1, 3)) == -3
        assert tail_reconstruct([F(0), F(8, 3)], F(-1, 3)) == -3

    def test_round_trip_every_step(self):
        rng = random.Random(3)
        for p in (3, 5):
            floor = FloorFunction.ruban(p)
            for _ in range(25):
                alpha = random_in_p_z_p(rng, p)
                rec = expand(alpha, floor, 12)
                for k, gamma in enumerate(rec.complete_quotients):
                    assert tail_reconstruct(
                        rec.partial_quotients[:k], gamma) == alpha

    def test_degenerate(self):
        with pytest.raises(DegenerateTailError):
            tail_reconstruct([F(2)], F(0))


class TestIdentities:
    def test_minus_three_all_pass(self):
        rec = expand(F(-3), FloorFunction.ruban(3), 6)
        report = verify_identities(rec)
        assert report.all_passed
        # |alpha - A_2/B_2|_3 = 3^-5 = 1/|B_2 B_3|_3
        st = continuants(rec.partial_quotients)
        assert vp(rec.alpha - st[2].A / st[2].B, 3) == 5
        assert vp(st[2].B, 3) + vp(st[3].B, 3) == -5

    def test_random_records_pass(self):
        rng = random.Random(31)
        for p in (3, 5, 7):
            for kind in ("ruban", "browkin"):
                floor = FloorFunction(kind, p)
                for _ in range(15):
                    alpha = random_in_p_z_p(rng, p)
                    rec = expand(alpha, floor, 12)
                    if len(rec.partial_quotients) < 2:
                        continue
                    report = verify_identities(rec)
                    assert report.all_passed, (p, kind, alpha, report.to_json())

    def test_nonzero_a0_records_pass(self):
        # records whose alpha is not in pZ_p exercise the adjusted products
        rng = random.Random(32)
        for p in (3, 5):
            floor = FloorFunction.ruban(p)
            for _ in range(15):
                alpha = F(rng.randint(-999, 999) or 1, rng.randint(1, 999))
                rec = expand(alpha, floor, 10)
                if len(rec.partial_quotients) < 2:
                    continue
                report = verify_identities(rec)
                assert report.all_passed, (p, alpha, report.to_json())

    def test_tampering_detected(self):
        rec = expand(F(-3), FloorFunction.ruban(3), 6)
        rec.partial_quotients[2] = F(5, 3)
        report = verify_identities(rec)
        assert not report.all_passed
        failing = [c for c in report.checks if c.applicable and not c.passed]
        assert failing
        assert min(c.first_failed_index for c in failing) == 2

    def test_too_short(self):
        rec = expand(F(0), FloorFunction.ruban(3), 5)
        with pytest.raises(ValueError):
            verify_identities(rec)

    def test_convergence_valuation_increases(self):
        rec = expand(F(-3), FloorFunction.ruban(3), 8)
        st = continuants(rec.partial_quotients)
        vals = [vp(rec.alpha - s.A / s.B, 3) for s in st[1:-1]]
        assert vals == sorted(vals) and len(set(vals)) == len(vals)
        assert all(v >= n + 2 for n, v in enumerate(vals, start=1))


class TestJson:
    def test_round_trip(self):
        rec = expand(F(-3), FloorFunction.ruban(3), 5)
        obj = rec.to_json()
        assert obj["a"] == ["0", "8/3", "8/3", "8/3", "8/3"]
        assert obj["alpha"] == "-3"
        assert obj["truncated"] is True
        back = ExpansionRecord.from_json(obj)
        assert back.partial_quotients == rec.partial_quotients
        assert back.alpha == rec.alpha

    @pytest.mark.parametrize("kind,alpha", [("browkin", F(-3)), ("ruban", F(-3))])
    def test_flags_must_match_re_expansion(self, kind, alpha):
        obj = expand(alpha, FloorFunction(kind, 3), 5).to_json()
        for flag in ("terminated", "truncated"):
            tampered = {**obj, flag: not obj[flag]}
            with pytest.raises(ValueError, match=f"stored {flag} flag"):
                ExpansionRecord.from_json(tampered)
        swapped = {**obj, "terminated": obj["truncated"],
                   "truncated": obj["terminated"]}
        with pytest.raises(ValueError):
            ExpansionRecord.from_json(swapped)
        assert ExpansionRecord.from_json(obj).to_json() == obj

    def test_stored_p_must_match_floor(self):
        obj = expand(F(-3), FloorFunction.ruban(3), 5).to_json()
        with pytest.raises(ValueError, match="stored p = 5"):
            ExpansionRecord.from_json({**obj, "p": 5})
