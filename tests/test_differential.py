"""Differential property tests: the linear identity battery and the
one-reduction floors against slow reference implementations.

The oracles below are the straightforward definitions: the battery
recomputes every valuation product and every tail round trip from scratch
(quadratic in the record length), and the floors sum Hensel digits read
off :func:`canonical_digits`.
"""

from fractions import Fraction as F

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padiccf.cf import (
    ExpansionRecord,
    IdentityCheck,
    IdentityReport,
    continuants,
    expand,
    tail_reconstruct,
    verify_identities,
)
from padiccf.floors import FloorFunction, browkin_floor, ruban_floor
from padiccf.padic import canonical_digits, format_rational, vp

PRIMES = (3, 5, 7, 11)


# -- oracles ------------------------------------------------------------------


def _neg_vp_sum(word, p, upto):
    return sum(-vp(a, p) for a in word[1:upto + 1])


def oracle_verify_identities(rec: ExpansionRecord) -> IdentityReport:
    """The identity battery recomputed from its definitions, O(n^2)."""
    word = rec.partial_quotients
    if len(word) < 2:
        raise ValueError("need at least 2 partial quotients")
    p = rec.p
    states = continuants(word)
    checks = []

    bad = next((s.index for s in states
                if s.determinant() != F(-1) ** (s.index + 1)), None)
    checks.append(IdentityCheck("determinant", bad is None,
                                first_failed_index=bad))

    a0 = word[0]
    last = len(word) - 1

    bad = None
    for s in states[1:]:
        if -vp(s.B, p) != _neg_vp_sum(word, p, s.index):
            bad = s.index
            break
    checks.append(IdentityCheck("b-valuation-product", bad is None,
                                first_failed_index=bad))

    if a0 == 0:
        bad = None
        for s in states[2:]:
            expected = _neg_vp_sum(word, p, s.index) + vp(word[1], p)
            if -vp(s.A, p) != expected:
                bad = s.index
                break
        checks.append(IdentityCheck("a-valuation-product", bad is None,
                                    first_failed_index=bad))
    elif vp(a0, p) <= 0:
        bad = None
        for s in states[1:]:
            expected = _neg_vp_sum(word, p, s.index) - vp(a0, p)
            if -vp(s.A, p) != expected:
                bad = s.index
                break
        checks.append(IdentityCheck("a-valuation-product", bad is None,
                                    first_failed_index=bad,
                                    detail="adjusted by |a_0|_p"))
    else:
        checks.append(IdentityCheck("a-valuation-product", True,
                                    applicable=False,
                                    detail="vp(a_0) > 0: no product form"))

    bad = None
    for prev, cur in zip(states, states[1:]):
        growing = (vp(cur.B, p) < vp(prev.B, p)
                   and vp(cur.A, p) < vp(prev.A, p))
        if a0 == 0 and not (vp(cur.A, p) >= vp(cur.B, p)):
            growing = False
        if not growing:
            bad = cur.index
            break
    checks.append(IdentityCheck("valuation-monotonicity", bad is None,
                                first_failed_index=bad))

    bad = None
    for s in states[:last]:
        lhs = vp(s.B * rec.alpha - s.A, p)
        if lhs != _neg_vp_sum(word, p, s.index + 1):
            bad = s.index
            break
    if rec.terminated and states[last].B * rec.alpha - states[last].A != 0:
        bad = last
    checks.append(IdentityCheck("approximation-valuation", bad is None,
                                first_failed_index=bad))

    M = max(abs(a) for a in word)
    scale = max(F(1), abs(a0))
    bad = next((s.index for s in states
                if max(abs(s.A), abs(s.B)) > scale * (M + 1) ** s.index), None)
    checks.append(IdentityCheck("archimedean-growth", bad is None,
                                first_failed_index=bad,
                                detail=f"M = {format_rational(M)}"))

    bad = None
    detail = ""
    gammas = rec.complete_quotients
    for i, (ai, gi) in enumerate(zip(word, gammas)):
        if rec.floor.apply(gi) != ai:
            bad, detail = i, "a_i != s(gamma_i)"
            break
        if i + 1 < len(gammas) and gammas[i + 1] != 1 / (gi - ai):
            bad, detail = i, "gamma recurrence broken"
            break
        if tail_reconstruct(word[:i], gi) != rec.alpha:
            bad, detail = i, "tail reconstruction misses alpha"
            break
    checks.append(IdentityCheck("record-consistency", bad is None,
                                first_failed_index=bad, detail=detail))

    return IdentityReport(checks)


def oracle_ruban(q, p):
    if q == 0 or vp(q, p) >= 1:
        return F(0)
    lo = min(vp(q, p), 0)
    digits = canonical_digits(q, p, lo, 0)
    return sum(d * F(p) ** n for n, d in zip(range(lo, 1), digits))


def oracle_browkin(q, p):
    """Balanced digits from the canonical ones, carrying upward."""
    if q == 0 or vp(q, p) >= 1:
        return F(0)
    lo = min(vp(q, p), 0)
    total, carry = F(0), 0
    for n, d in zip(range(lo, 1), canonical_digits(q, p, lo, 0)):
        t = d + carry
        carry = 0
        if t > (p - 1) // 2:
            t -= p
            carry = 1
        assert abs(t) <= (p - 1) // 2
        total += t * F(p) ** n
    return total


# -- strategies ---------------------------------------------------------------


@st.composite
def rationals(draw, p, lo=-4, hi=3):
    """Rationals of every valuation in [lo, hi], and 0."""
    num = draw(st.integers(-10**6, 10**6))
    den = draw(st.integers(1, 10**6))
    return F(num, den) * F(p) ** draw(st.integers(lo, hi))


@st.composite
def floors(draw, p):
    kind = draw(st.sampled_from(("ruban", "browkin", "custom")))
    if kind != "custom":
        return FloorFunction(kind, p)
    remap = {}
    for _ in range(draw(st.integers(1, 3))):
        depth = draw(st.integers(1, 2))
        cls = ruban_floor(F(draw(st.integers(1, p ** depth - 1)), p ** depth), p)
        if cls != 0:
            remap[cls] = cls + p * draw(st.integers(-2, 2))
    return FloorFunction.custom(p, sorted(remap.items()),
                                draw(st.sampled_from(("ruban", "browkin"))))


@st.composite
def records(draw):
    p = draw(st.sampled_from(PRIMES))
    floor = draw(floors(p))
    alpha = draw(rationals(p, lo=-2, hi=2))
    if draw(st.booleans()):
        # alpha in pZ_p, so a_0 = 0
        alpha *= F(p) ** max(0, 1 - vp(alpha, p)) if alpha else 1
    rec = expand(alpha, floor, draw(st.integers(2, 40)))
    assume(len(rec.partial_quotients) >= 2)
    return rec


def outcome(battery, rec):
    try:
        return "ok", battery(rec).to_json()
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


# -- properties ---------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(records())
def test_battery_matches_oracle(rec):
    got = verify_identities(rec).to_json()
    assert got == oracle_verify_identities(rec).to_json()
    assert got["all_passed"]


@settings(max_examples=250, deadline=None)
@given(records(), st.data())
def test_battery_matches_oracle_on_tampered_records(rec, data):
    n = len(rec.partial_quotients)
    target = data.draw(st.sampled_from(("a", "gamma", "alpha")))
    value = data.draw(rationals(rec.p, lo=-3, hi=2))
    if target == "a":
        i = data.draw(st.integers(0, n - 1))
        assume(rec.partial_quotients[i] != value)
        rec.partial_quotients[i] = value
    elif target == "gamma":
        i = data.draw(st.integers(0, len(rec.complete_quotients) - 1))
        assume(rec.complete_quotients[i] != value)
        rec.complete_quotients[i] = value
    else:
        assume(rec.alpha != value)
        rec.alpha = value
    got = outcome(verify_identities, rec)
    assert got == outcome(oracle_verify_identities, rec)
    if got[0] == "ok":
        assert not got[1]["all_passed"]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_floors_match_digit_sums(data):
    p = data.draw(st.sampled_from(PRIMES))
    q = data.draw(rationals(p))
    assert ruban_floor(q, p) == oracle_ruban(q, p)
    assert browkin_floor(q, p) == oracle_browkin(q, p)


def test_floors_vanish_on_p_z_p():
    for p in PRIMES:
        for q in (F(0), F(p), F(-2 * p, 13), F(p * p, 4)):
            assert ruban_floor(q, p) == oracle_ruban(q, p) == 0
            assert browkin_floor(q, p) == oracle_browkin(q, p) == 0
