"""Differential property tests: the fast exact paths against slow reference
implementations.

The oracles below are the straightforward definitions: the continuants run
the three-term recurrence over ``Fraction``, and the battery, tail round
trips, quadratic coefficients and mirror laws read those ``Fraction``
states, never the library's integer core; the battery recomputes every
valuation product and every tail round trip from scratch (quadratic in the
record length), the floors sum Hensel digits read off
:func:`canonical_digits`, the observed growth constant is a binary search
that re-powers every state at every probe, and ``floor_log_exact`` counts k
upward.  The indexed detector is compared with the naive one, and the prefix
scans with direct square and palindrome checks and a right-to-left period
loop.
"""

from fractions import Fraction as F

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from padiccf.certify import (
    GrowthBounds,
    _approx_valuation,
    floor_log_exact,
    growth_bounds,
)
from padiccf.combinatorics import PrefixScan, detect, scan_special_prefixes
from padiccf.cf import (
    ContinuantState,
    DegenerateTailError,
    ExpansionRecord,
    IdentityCheck,
    IdentityReport,
    continuants,
    eval_cf,
    expand,
    integer_continuants,
    tail_reconstruct,
    verify_identities,
)
from padiccf.floors import FloorFunction, browkin_floor, ruban_floor
from padiccf.padic import INFINITY, canonical_digits, format_rational, vp
from padiccf.quadratic import (
    QuadraticCertificate,
    palindrome_symmetry,
    periodic_to_quadratic,
    reversal_quotient,
)
from padiccf.words import WordSpec

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
    states = oracle_continuants(word)
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
        if oracle_tail_reconstruct(word[:i], gi) != rec.alpha:
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


def oracle_continuants(word):
    """The three-term recurrences over Fraction."""
    out = []
    A_pp, A_p = F(0), F(1)
    B_pp, B_p = F(1), F(0)
    for n, an in enumerate(word):
        an = F(an)
        A_n = an * A_p + A_pp
        B_n = an * B_p + B_pp
        out.append(ContinuantState(n, A_p, A_n, B_p, B_n))
        A_pp, A_p = A_p, A_n
        B_pp, B_p = B_p, B_n
    return out


def oracle_tail_reconstruct(prefix, gamma):
    """(gamma*A_{k-1} + A_{k-2}) / (gamma*B_{k-1} + B_{k-2}) over Fraction."""
    gamma = F(gamma)
    states = oracle_continuants(prefix)
    if states:
        last = states[-1]
        A1, A2, B1, B2 = last.A, last.A_prev, last.B, last.B_prev
    else:
        A1, A2, B1, B2 = F(1), F(0), F(0), F(1)
    den = gamma * B1 + B2
    if den == 0:
        raise DegenerateTailError("gamma*B_{k-1} + B_{k-2} = 0")
    return (gamma * A1 + A2) / den


def oracle_periodic_to_quadratic(preperiod, period):
    """The coefficients from the Fraction states at w and l."""
    preperiod = [F(x) for x in preperiod]
    period = [F(x) for x in period]
    states = oracle_continuants(preperiod + period)
    sw, sl = states[len(preperiod) - 1], states[-1]
    a = sw.B_prev * sl.B - sw.B * sl.B_prev
    b = (sw.B_prev * sl.A - sw.B * sl.A_prev
         + sw.A_prev * sl.B - sw.A * sl.B_prev)
    c = sw.A_prev * sl.A - sw.A * sl.A_prev
    return QuadraticCertificate(a, b, c, tuple(preperiod), tuple(period),
                                degenerate=(a == 0 and b == 0 and c == 0))


def oracle_palindrome_symmetry(letters):
    """A_m == B_{m-1} for [0, a_1..a_m], from the Fraction states."""
    last = oracle_continuants([F(0)] + [F(x) for x in letters])[-1]
    return last.A == last.B_prev, {
        "A_m": format_rational(last.A),
        "B_m_minus_1": format_rational(last.B_prev),
    }


def oracle_reversal_quotient(word):
    """The mirror laws asserted on the Fraction states."""
    word = [F(x) for x in word]
    last = oracle_continuants(word)[-1]
    if word[0] == 0:
        quotient = last.B_prev / last.B
        assert quotient == eval_cf([F(0)] + word[:0:-1])
        return quotient
    if last.B_prev == 0:
        raise ValueError("B_{n-1} = 0: reversal quotient undefined")
    quotient = last.B / last.B_prev
    assert quotient == eval_cf(word[:0:-1])
    if last.A_prev != 0:
        assert last.A / last.A_prev == eval_cf(word[::-1])
    return quotient


def _ceil_isqrt(n):
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def oracle_growth_bounds(source, p=None, grid=1024):
    """growth_bounds with the binary search over num that re-powers every
    state at every probe."""
    if isinstance(source, ExpansionRecord):
        word = [F(a) for a in source.partial_quotients]
        p = source.p
    else:
        word = [F(0)] + [F(a) for a in source]
    states = oracle_continuants(word)[1:]
    tops = [max(abs(s.A), abs(s.B)) for s in states]

    def fits(num):
        return all(t.numerator * grid ** s.index <= num ** s.index * t.denominator
                   for s, t in zip(states, tops))

    lo = grid
    guess_log2 = max((t.numerator.bit_length() - t.denominator.bit_length())
                     / s.index for s, t in zip(states, tops))
    hi = max(lo + 1, int(2.0 ** min(guess_log2, 40.0) * grid) + 2)
    while not fits(hi):
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid + 1
    observed = F(lo, grid)

    closed = None
    T = None
    if word[0] == 0:
        T = max(abs(a) for a in word[1:])
        m = T.numerator ** 2 + 4 * T.denominator ** 2
        surd_ub = F(_ceil_isqrt(m * grid * grid), T.denominator * grid)
        closed = min((T + surd_ub) / 2, T + 1)

    acc = 0
    exponent = F(0)
    for i, a in enumerate(word[1:], start=1):
        acc += -vp(a, p)
        exponent = max(exponent, F(acc, i))
    return GrowthBounds(observed, closed, T, exponent, (1, states[-1].index))


def oracle_floor_log_exact(p, C, t):
    C, t = F(C), F(t)
    tn, td = t.numerator, t.denominator
    k = 0
    while p ** ((k + 1) * td) * C.denominator ** tn <= C.numerator ** tn:
        k += 1
    return k


# -- strategies ---------------------------------------------------------------


def oracle_scan_special_prefixes(prefix) -> PrefixScan:
    """Square and palindrome checks on every length, and for each period q
    the preperiod read off the rightmost mismatch, O(L^2)."""
    seq = tuple(prefix)
    L = len(seq)
    square_u = max((u for u in range(1, L // 2 + 1)
                    if seq[:u] == seq[u:2 * u]), default=0)
    pal = max((m for m in range(1, L + 1) if seq[:m] == seq[:m][::-1]),
              default=0)
    candidates = []
    for q in range(1, L // 3 + 1):
        r = 0
        for i in range(L - q - 1, -1, -1):
            if seq[i] != seq[i + q]:
                r = i + 1
                break
        if r + 2 * q <= L:
            candidates.append((r, q))
    return PrefixScan(square_u, pal, candidates)


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


@st.composite
def letter_lists(draw, max_size=30):
    """Nonzero rational letters of either sign, most of them outside Z[1/p]."""
    num = st.integers(-10**4, 10**4).filter(bool)
    den = st.sampled_from((1, 2, 3, 5, 7, 9, 25, 27, 49, 121, 1000))
    return draw(st.lists(st.builds(F, num, den), min_size=1,
                         max_size=max_size))


# 1 == 1.0 == True: one symbol, as both detectors and the scans must see it
ALPHABETS = ([0, 1], ["a", "b", "c"], [1, 1.0, True, "a", (1, 2), (1,)],
             [1, 1.0, True], list(range(5)))


@st.composite
def words(draw, max_size=40):
    """Random words, and periodic words after a random preperiod."""
    alphabet = st.sampled_from(draw(st.sampled_from(ALPHABETS)))
    if draw(st.booleans()):
        return draw(st.lists(alphabet, max_size=max_size))
    preperiod = draw(st.lists(alphabet, max_size=8))
    period = draw(st.lists(alphabet, min_size=1, max_size=6))
    size = draw(st.integers(0, max_size))
    return (preperiod + period * max_size)[:size]


def outcome(battery, rec):
    try:
        return "ok", battery(rec).to_json()
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


def value_or_error(fn, *args):
    """fn's value, or the type of the exception it raised."""
    try:
        return "ok", fn(*args)
    except (ArithmeticError, AssertionError, ValueError) as exc:
        return "raised", type(exc)


@st.composite
def floor_letters(draw, floor, max_size=12):
    """Letters s(q) with vp(q) <= -1: in Im(s) \\ {0} with |.|_p > 1."""
    p = floor.p
    unit = st.integers(-10**4, 10**4).filter(lambda m: m % p)
    qs = st.builds(lambda m, n, k: floor.apply(F(m, n * p ** k)),
                   unit, unit.map(abs), st.integers(1, 3))
    half = draw(st.lists(qs, min_size=1, max_size=max_size))
    shape = draw(st.sampled_from(("random", "even", "odd")))
    if shape == "random":
        return half
    middle = [draw(qs)] if shape == "odd" else []
    return half + middle + half[::-1]


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


@settings(max_examples=300, deadline=None)
@given(st.one_of(letter_lists(), records().map(lambda r: r.partial_quotients)))
def test_integer_core_matches_fraction_recurrence(word):
    Ah, Bh, D = integer_continuants(word)
    assert len(Ah) == len(Bh) == len(D) == len(word)
    for n, want in enumerate(oracle_continuants(word)):
        assert (F(Ah[n], D[n]), F(Bh[n], D[n])) == (want.A, want.B)
    assert continuants(word) == oracle_continuants(word)


@settings(max_examples=300, deadline=None)
@given(letter_lists(), st.sampled_from(PRIMES), st.sampled_from((1, 7, 1024)))
@example([F(8, 3)] * 8, 3, 1024)
@example([F(1, 2)] * 5, 3, 7)
@example([F(-10**4, 7), F(10**4)], 5, 1)
def test_growth_bounds_match_binary_search(letters, p, grid):
    assert growth_bounds(letters, p=p, grid=grid).to_json() == \
        oracle_growth_bounds(letters, p=p, grid=grid).to_json()


@settings(max_examples=150, deadline=None)
@given(records(), st.sampled_from((1, 7, 1024)))
def test_growth_bounds_match_binary_search_on_records(rec, grid):
    # records include a_0 != 0 and custom floors
    assert growth_bounds(rec, grid=grid).to_json() == \
        oracle_growth_bounds(rec, grid=grid).to_json()


@settings(max_examples=200, deadline=None)
@given(st.one_of(letter_lists(), records().map(lambda r: r.partial_quotients)),
       st.sampled_from(PRIMES))
def test_spot_check_valuation_matches_fraction_form(word, p):
    states = oracle_continuants(word)
    assume(states[-1].B != 0)
    x_full = states[-1].A / states[-1].B
    core = integer_continuants(word)
    for s in states:
        want = vp(s.B * x_full - s.A, p)
        got = _approx_valuation(core, s.index, p)
        assert got == want
        assert (got is INFINITY) == (want is INFINITY)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(PRIMES + (13, 101)),
       st.builds(F, st.integers(2, 10**6), st.integers(1, 10**3)),
       st.builds(F, st.integers(1, 40), st.integers(1, 6)))
def test_floor_log_exact_matches_counting(p, C, t):
    assume(C > 1)
    assert floor_log_exact(p, C, t) == oracle_floor_log_exact(p, C, t)


def test_floor_log_exact_at_exact_ties():
    # p^k = C^t exactly, where the floor is k itself
    for p in PRIMES:
        for j in range(1, 6):
            for t in (F(1), F(2), F(3), F(1, 2), F(3, 4), F(j, 7)):
                C = F(p) ** j
                assert floor_log_exact(p, C, t) == \
                    oracle_floor_log_exact(p, C, t)
            # C^t = p^j with rational exponent: C = p^2, t = j/2
            assert floor_log_exact(p, F(p * p), F(j, 2)) == j
            # just above and below the tie
            assert floor_log_exact(p, F(p ** j * 1000 + 1, 1000), 1) == j
            assert floor_log_exact(p, F(p ** j * 1000 - 1, 1000), 1) == j - 1


@settings(max_examples=300, deadline=None)
@given(words(), st.sampled_from(("spade", "club")),
       st.fractions(min_value=0, max_value=4, max_denominator=6))
@example([1, 1.0, True, 1], "spade", F(0))
@example(["a", (1, 2), (1, 2), "a"], "club", F(0))
# (w, v) = (0, 0) at some u, found without the block index
@example(list("aaaaab"), "spade", F(2))
@example(list("abbaab"), "club", F(2))
# no witness at u = 2 once c_max*u >= L - 2u: the scan stops there
@example(list("abcdefgh"), "spade", F(2))
@example(list("abacde"), "club", F(2))
def test_indexed_detector_matches_naive(word, kind, c_max):
    assume(word)
    fast = detect(kind, word, c_max, method="hashed")
    slow = detect(kind, word, c_max, method="naive")
    assert fast.to_json() == slow.to_json()


@pytest.mark.parametrize("generator", ["thue_morse", "fibonacci",
                                       "rudin_shapiro", "paperfolding"])
def test_indexed_detector_matches_naive_on_automatic_words(generator):
    # L = 160 takes the block index to 2^6 and, at c_max >= 1/2, past the
    # u where c_max*u >= L - 2u
    word = WordSpec(generator).stream().prefix(160)
    for kind in ("spade", "club"):
        for c_max in (F(0), F(1, 2), F(1), F(2)):
            fast = detect(kind, word, c_max, method="hashed")
            slow = detect(kind, word, c_max, method="naive")
            assert fast.to_json() == slow.to_json(), (kind, c_max)


@settings(max_examples=400, deadline=None)
@given(words())
@example([])
@example([1, 1.0, True])
@example(["a", "b", "a", "b", "a", "b", "b"])
def test_prefix_scan_matches_oracle(word):
    assert (scan_special_prefixes(word).to_json()
            == oracle_scan_special_prefixes(word).to_json())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(F, st.integers(-10**4, 10**4),
                          st.sampled_from((1, 2, 3, 9, 25, 49))),
                max_size=12),
       letter_lists(max_size=8))
@example([], [F(8, 3)])
@example([F(5, 3), F(-1, 2)], [F(1, 3), F(4, 3), F(7, 9)])
@example([F(2), F(-1, 2)], [F(3)])  # B_2 = 0 inside the preperiod
def test_quadratic_certificate_matches_fraction_states(pre, period):
    preperiod = [F(0)] + pre
    assert (periodic_to_quadratic(preperiod, period).to_json()
            == oracle_periodic_to_quadratic(preperiod, period).to_json())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES), st.sampled_from(("ruban", "browkin")),
       st.data())
def test_palindrome_symmetry_matches_fraction_states(p, kind, data):
    floor = FloorFunction(kind, p)
    letters = data.draw(floor_letters(floor))
    got = palindrome_symmetry(letters, floor)
    assert got == oracle_palindrome_symmetry(letters)
    assert got[0] == (letters == letters[::-1])


@settings(max_examples=300, deadline=None)
@given(letter_lists(max_size=12), st.booleans())
@example([F(1), F(2), F(-1, 2), F(3)], False)  # a_0 != 0 and B_{n-1} = 0
@example([F(2), F(-1, 2)], True)  # a_0 = 0 and B_n = 0
@example([F(2), F(-1, 2), F(5)], True)  # a_0 = 0 and B_{n-1} = 0
@example([F(3), F(-1, 3), F(2)], False)  # A_{n-1} = 0
def test_reversal_quotient_matches_fraction_states(letters, zero_a0):
    word = [F(0)] + letters if zero_a0 or len(letters) < 2 else letters
    assert (value_or_error(reversal_quotient, word)
            == value_or_error(oracle_reversal_quotient, word))


@settings(max_examples=300, deadline=None)
@given(letter_lists(max_size=12), st.booleans(), st.integers(0, 13),
       st.builds(F, st.integers(-10**4, 10**4), st.integers(1, 10**3)))
@example([], False, 0, F(7, 3))  # the empty prefix returns gamma
@example([], False, 0, F(0))
@example([F(5)], False, 1, F(0))  # gamma*B_0 + B_{-1} = 0
@example([F(3), F(2)], False, 2, F(-1, 2))  # gamma*B_1 + B_0 = 0
@example([F(7, 5), F(5, 3)], True, 3, F(-21, 50))  # gamma*B_2 + B_1 = 0
def test_tail_reconstruct_matches_fraction_states(letters, zero_a0, k, gamma):
    prefix = ([F(0)] + letters if zero_a0 else letters)[:k]
    assert (value_or_error(tail_reconstruct, prefix, gamma)
            == value_or_error(oracle_tail_reconstruct, prefix, gamma))


@settings(max_examples=150, deadline=None)
@given(records())
def test_tail_reconstruct_round_trips(rec):
    # alpha = tail_reconstruct(a_0..a_{i-1}, gamma_i) at every i
    word = rec.partial_quotients
    for i, gamma in enumerate(rec.complete_quotients):
        assert tail_reconstruct(word[:i], gamma) == rec.alpha
