"""Growth constants, required exponents, corollary checkers, certificates.

Every inequality here is settled by integer arithmetic: floors of
log(C)/log(p) expressions are computed by cross-powering p against rational
C (never by floating logs), growth bounds are certified by exact power
comparison, and rational exponents are cleared through both sides before
comparing.  At an exact power tie p^k = C^t the floor is k itself.

A certificate is evidence, not proof: it records that the checkable parts
of the hypothesis list hold on the examined prefix and says so explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from . import combinatorics as comb
from .cf import ExpansionRecord, integer_continuants
from .floors import FloorFunction
from .padic import (INFINITY, Rational, format_rational, is_odd_prime,
                    require_odd_prime, vp)
from .words import LetterStream

__all__ = [
    "Certificate",
    "CorollaryReport",
    "GrowthBounds",
    "certify",
    "check_corollary",
    "floor_log_exact",
    "growth_bounds",
    "required_k",
]

SCHEMA_VERSION = 1

DISCLAIMER = (
    "Finite-prefix evidence only: detector witnesses, growth bounds, and "
    "exponent checks constrain the examined prefix. Unboundedness of the "
    "repetition lengths, non-ultimate-periodicity, and all-n growth bounds "
    "concern the infinite word and are not established by this computation. "
    "No claim about the nature of any number is made.")


# -- exact logarithm floors ----------------------------------------------------

def floor_log_exact(p: int, C: Fraction, t: Fraction) -> int:
    """Largest k >= 0 with p^k <= C^t, for rational C > 1 and t > 0.

    p^k <= C^(tn/td)  <=>  p^(k*td) <= C.num^tn / C.den^tn, and since the
    left side is an integer that is p^(k*td) <= q with q the floor of the
    right side.  So k = e // td with e the largest exponent p^e <= q, found
    from a float estimate of log_p(q) that exact powers of p then correct.
    """
    C, t = Fraction(C), Fraction(t)
    if C <= 1:
        raise ValueError("C must be > 1")
    if t <= 0:
        raise ValueError("t must be > 0")
    tn, td = t.numerator, t.denominator
    q = C.numerator ** tn // C.denominator ** tn  # >= 1, as C^t > 1
    e = max(0, int(math.log(q, p)) - 1)
    x = p ** e
    while x * p <= q:
        x *= p
        e += 1
    while x > q:
        x //= p
        e -= 1
    return e // td


def required_k(variant: str, p: int, c: Rational, C_inf: Rational) -> int:
    """The partial-quotient exponent demanded by the two hypothesis lists.

    spade: k = floor(max(3, 6c+2) * log(C_inf)/log(p)) + 1
    club:  k = floor(log(C_inf)/log(p)) + 1 when c = 0,
           floor((4+6c) * log(C_inf)/log(p)) + 1 otherwise.
    """
    require_odd_prime(p)
    c = Fraction(c)
    if c < 0:
        raise ValueError("c must be >= 0")
    C_inf = Fraction(C_inf)
    if C_inf <= 1:
        raise ValueError("C_inf must be > 1")
    if variant == "spade":
        t = max(Fraction(3), 6 * c + 2)
    elif variant == "club":
        t = Fraction(1) if c == 0 else 4 + 6 * c
    else:
        raise ValueError(f"variant must be spade or club, got {variant!r}")
    return floor_log_exact(p, C_inf, t) + 1


# -- growth bounds ---------------------------------------------------------------

def _ceil_isqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def _ceil_root(N: int, D: int, n: int) -> int:
    """Smallest x >= 1 with x^n * D >= N, for integers N, D > 0 and n >= 1.

    A float estimate of (N/D)^(1/n) only seeds the search: exact powers
    bracket the answer by galloping from the seed, then bisect.
    """
    def fits(x):
        return x ** n * D >= N

    e = (math.log2(N) - math.log2(D)) / n
    shift = max(0, int(e) - 60)
    hi = max(1, int(2.0 ** (e - shift)) << shift)
    step = 1
    if fits(hi):
        lo = hi - 1
        while lo >= 1 and fits(lo):
            hi, lo, step = lo, lo - step, 2 * step
        lo = max(lo, 0)  # 0 never fits, as N > 0
    else:
        lo, hi = hi, hi + 1
        while not fits(hi):
            lo, hi, step = hi, hi + step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _neg_valuations(letters: Sequence[Fraction], p: int) -> List[int]:
    """-vp(a) for every letter, one valuation per distinct letter."""
    table = {}
    out = []
    for a in letters:
        key = (a.numerator, a.denominator)
        v = table.get(key)
        if v is None:
            if a == 0:
                raise ValueError("partial quotients after a_0 must be nonzero")
            v = table[key] = -vp(a, p)
        out.append(v)
    return out


@dataclass
class GrowthBounds:
    """Certified archimedean and p-adic growth data of a continuant range.

    c_inf_observed is the smallest C on a fixed denominator grid with
    max(|A_n|, |B_n|) <= C^n over the observed range, proven by integer
    powering.  c_inf_for_all_n is the closed-form alphabet bound
    min(upper((T + sqrt(T^2+4))/2), T+1), valid for every n when a_0 = 0.
    c_p_exponent is the exact max of -vp(B_n)/n.
    """

    c_inf_observed: Fraction
    c_inf_for_all_n: Optional[Fraction]
    alphabet_bound_T: Optional[Fraction]
    c_p_exponent: Fraction
    n_range: Tuple[int, int]

    def to_json(self) -> dict:
        return {
            "c_inf_observed": format_rational(self.c_inf_observed),
            "c_inf_for_all_n": (None if self.c_inf_for_all_n is None
                                else format_rational(self.c_inf_for_all_n)),
            "alphabet_bound_T": (None if self.alphabet_bound_T is None
                                 else format_rational(self.alphabet_bound_T)),
            "c_p_exponent": format_rational(self.c_p_exponent),
            "n_range": list(self.n_range),
        }


def growth_bounds(source: Union[ExpansionRecord, Sequence[Rational]],
                  p: Optional[int] = None, grid: int = 1024) -> GrowthBounds:
    """Certified growth constants from a record or a partial-quotient list.

    A plain list is treated as the tail a_1 a_2 ... with a_0 = 0 prepended,
    which is the setting where the closed-form bound applies.

    The observed constant is the smallest num with max(|A_n|, |B_n|) <=
    (num/grid)^n for every n >= 1, that is max(|Â_n|, |B̂_n|)·grid^n <=
    num^n·D_n over the integer core, found in one pass: best and its powers
    only grow, so a state that already fits costs one comparison, and one
    that does not raises best to its exact ceiling n-th root.
    """
    if isinstance(source, ExpansionRecord):
        word = source.partial_quotients
        p = source.p
    else:
        word = [0, *source]
    word = [a if type(a) is Fraction else Fraction(a) for a in word]
    if p is None:
        raise ValueError("p required when passing a raw letter list")
    if len(word) < 2:
        raise ValueError("need at least 2 partial quotients")
    neg = _neg_valuations(word[1:], p)
    Ah, Bh, D = integer_continuants(word)

    best = grid  # C = 1
    best_pow = grid_pow = 1
    for n in range(1, len(word)):
        best_pow *= best
        grid_pow *= grid
        top = max(abs(Ah[n]), abs(Bh[n]))
        if (top.bit_length() + grid_pow.bit_length()
                < best_pow.bit_length() + D[n].bit_length() - 1):
            continue  # the product's bit length already settles it
        need = top * grid_pow
        if need > best_pow * D[n]:
            best = _ceil_root(need, D[n], n)
            best_pow = best ** n
    observed = Fraction(best, grid)

    closed = None
    T = None
    if word[0] == 0:
        T = max(map(abs, word[1:]))
        m = T.numerator ** 2 + 4 * T.denominator ** 2
        surd_ub = Fraction(_ceil_isqrt(m * grid * grid), T.denominator * grid)
        closed = min((T + surd_ub) / 2, T + 1)

    # c_p_exponent = max_i (sum_{j<=i} -vp(a_j)) / i, compared as integers
    acc, num, den = 0, 0, 1
    for i, v in enumerate(neg, start=1):
        acc += v
        if acc * den > num * i:
            num, den = acc, i

    return GrowthBounds(observed, closed, T, Fraction(num, den),
                        (1, len(word) - 1))


def _approx_valuation(core, n: int, p: int):
    """vp(B_n·x - A_n) for x = A_L/B_L, the core's last convergent.

    B_n·x - A_n = (B̂_n·Â_L - Â_n·B̂_L) / (D_n·B̂_L), so the valuation is
    vp(B̂_n·Â_L - Â_n·B̂_L) - vp(D_n) - vp(B̂_L), or INFINITY when the
    difference vanishes.
    """
    Ah, Bh, D = core
    diff = Bh[n] * Ah[-1] - Ah[n] * Bh[-1]
    if diff == 0:
        return INFINITY
    return vp(diff, p) - vp(D[n], p) - vp(Bh[-1], p)


# -- corollary checkers ----------------------------------------------------------

@dataclass
class CorollaryReport:
    which: str
    conditions: List[Tuple[str, Optional[bool], str]]
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.conditions if ok is not None)

    def to_json(self) -> dict:
        return {
            "which": self.which,
            "passed": self.passed,
            "conditions": [{"name": n, "passed": ok, "detail": d}
                           for n, ok, d in self.conditions],
            "extra": self.extra,
        }


def _rational_power_less_than(base: Fraction, expo: Fraction, bound: int) -> bool:
    """base^expo < bound, exactly, for base > 0 and expo > 0."""
    en, ed = expo.numerator, expo.denominator
    return base.numerator ** en < bound ** ed * base.denominator ** en


def check_corollary(which: str, **kw) -> CorollaryReport:
    """Exact evaluation of the explicit corollary conditions.

    which = "browkin_ruban":   floor kind + repetition/palindrome condition
                               against the exponent table from the built-in
                               alphabet bounds (p+1 and p/2+1).
    which = "finite_alphabet": (T+1)^max(3, 6c+2) < p for spade;
                               T < p-1 (c = 0) or (T+1)^(4+6c) < p for club.
    which = "automatic_binary": the three conditions on a two-letter
                               alphabet {a, b} with complexity constant C.
    which = "large_p":         least odd prime making {n/p, m/p} pass the
                               automatic_binary conditions.
    """
    if which == "browkin_ruban":
        p = require_odd_prime(kw["p"])
        floor_kind = kw["floor_kind"]
        condition = kw["condition"]  # "repetitions" | "palindromes"
        variant = "spade" if condition == "repetitions" else "club"
        C_inf = Fraction(p + 1) if floor_kind == "ruban" else Fraction(p, 2) + 1
        k = required_k(variant, p, 0, C_inf)
        conds = [("exponent-requirement", None,
                  f"needs |a_n|_p >= {p}^{k} for every n")]
        if "min_exponent" in kw:
            ok = kw["min_exponent"] >= k
            conds.append(("min-exponent-meets-k", ok,
                          f"min exponent {kw['min_exponent']} vs k = {k}"))
        if floor_kind == "ruban":
            conds.append(("irrationality", None,
                          "assumed, not checkable from a prefix"))
        return CorollaryReport(which, conds, {"required_k": k,
                                              "C_inf": format_rational(C_inf)})

    if which == "finite_alphabet":
        p = require_odd_prime(kw["p"])
        variant = kw["variant"]
        c = Fraction(kw["c"])
        T = Fraction(kw["T"])
        if variant == "spade":
            expo = max(Fraction(3), 6 * c + 2)
            ok = _rational_power_less_than(T + 1, expo, p)
            conds = [(f"(T+1)^{expo} < p", ok,
                      f"T = {format_rational(T)}, p = {p}")]
        elif c == 0:
            ok = T < p - 1
            conds = [("T < p-1", ok, f"T = {format_rational(T)}, p = {p}")]
        else:
            expo = 4 + 6 * c
            ok = _rational_power_less_than(T + 1, expo, p)
            conds = [(f"(T+1)^{expo} < p", ok,
                      f"T = {format_rational(T)}, p = {p}")]
        return CorollaryReport(which, conds)

    if which == "automatic_binary":
        p = require_odd_prime(kw["p"])
        a, b, C = Fraction(kw["a"]), Fraction(kw["b"]), Fraction(kw["C"])
        if a == b or a == 0 or b == 0:
            raise ValueError("alphabet letters must be distinct and nonzero")
        conds = [
            ("|a-b|_p >= 1", vp(a - b, p) <= 0,
             f"vp(a-b) = {vp(a - b, p)}"),
            ("min(|a|_p,|b|_p) >= p", vp(a, p) <= -1 and vp(b, p) <= -1,
             f"vp(a) = {vp(a, p)}, vp(b) = {vp(b, p)}"),
            ("(max(|a|,|b|)+1)^(18C+8) < p",
             _rational_power_less_than(max(abs(a), abs(b)) + 1, 18 * C + 8, p),
             f"exponent 18C+8 = {format_rational(18 * C + 8)}"),
        ]
        return CorollaryReport(which, conds)

    if which == "large_p":
        n, m, C = int(kw["n"]), int(kw["m"]), Fraction(kw["C"])
        if n == 0 or m == 0 or n == m:
            raise ValueError("n, m must be nonzero and distinct")
        limit = int(kw.get("search_limit", 10_000))
        found = None
        for p in range(3, limit + 1, 2):
            if not is_odd_prime(p):
                continue
            if (n * m * (n - m)) % p == 0:
                continue
            rep = check_corollary("automatic_binary",
                                  a=Fraction(n, p), b=Fraction(m, p), C=C, p=p)
            if rep.passed:
                found = p
                break
        conds = [("least-prime-found", found is not None,
                  f"searched odd primes up to {limit}")]
        return CorollaryReport(which, conds, {"least_prime": found})

    raise ValueError(f"unknown corollary {which!r}")


# -- certificates -----------------------------------------------------------------

@dataclass
class Certificate:
    p: int
    floor: FloorFunction
    word: dict
    prefix_length: int
    condition: dict
    witnesses: List[comb.Witness]
    growth: GrowthBounds
    required_k: int
    min_letter_exponent: int
    letter_check_passed: bool
    approx_spot_checks: List[dict]
    periodicity: dict
    verdict: str

    def to_json(self) -> dict:
        # field order is fixed so identical inputs serialise byte-identically
        return {
            "schema_version": SCHEMA_VERSION,
            "scope": "evidence-only",
            "inputs": {
                "p": self.p,
                "floor": self.floor.to_json(),
                "word": self.word,
                "prefix_length": self.prefix_length,
            },
            "condition": self.condition,
            "witnesses": [w.to_json() for w in self.witnesses],
            "growth": self.growth.to_json(),
            "required_k": self.required_k,
            "min_letter_exponent": self.min_letter_exponent,
            "letter_check_passed": self.letter_check_passed,
            "approx_spot_checks": self.approx_spot_checks,
            "periodicity": self.periodicity,
            "verdict": self.verdict,
            "disclaimer": DISCLAIMER,
        }


def certify(p: int, floor: FloorFunction, stream: LetterStream, length: int,
            condition_hint: Optional[str] = None,
            c_hint: Optional[Rational] = None,
            c_max: Rational = Fraction(2),
            min_witnesses: int = 3) -> Certificate:
    """Assemble hypothesis evidence for the word prefix of the given length.

    The word's letters must be valid partial quotients arising from the
    floor function: fixed points of s with |.|_p > 1.  A letter failing that
    cannot appear in any expansion attached to s, so it is an input error,
    not a failed hypothesis.
    """
    require_odd_prime(p)
    if length < 16:
        raise ValueError("prefix length must be >= 16")
    if floor.p != p:
        raise ValueError("floor function and certificate disagree on p")
    symbols = stream.prefix(length)
    values = stream.values(length, p=p, require_partial_quotients=True,
                           symbols=symbols)
    for v in sorted(set(values)):
        if floor.apply(v) != v:
            raise ValueError(
                f"letter {format_rational(v)} is not fixed by the floor "
                f"function: s(letter) = {format_rational(floor.apply(v))}")

    kinds = [condition_hint] if condition_hint else ["spade", "club"]
    c_cap = Fraction(c_hint) if c_hint is not None else Fraction(c_max)
    detections = {k: comb.detect(k, symbols, c_cap, min_witnesses)
                  for k in kinds}
    chosen = max(detections,
                 key=lambda k: (len(detections[k].witnesses),
                                detections[k].largest_u))
    det = detections[chosen]
    family = det.witnesses
    c_achieved = max((w.ratio for w in family), default=Fraction(0))

    growth = growth_bounds(values, p=p)
    C_inf = growth.c_inf_for_all_n
    k = required_k(chosen, p, c_achieved, C_inf)
    neg = _neg_valuations(values, p)  # -vp(a_1), -vp(a_2), ...
    min_exp = min(neg)

    spots = []
    core = integer_continuants([0] + values)
    target_ns = [n for n in (4, 8, 16, 32) if n <= length - 2]
    for n in target_ns:
        expected = sum(neg[:n + 1])  # -vp(a_1) - ... - vp(a_{n+1})
        got = _approx_valuation(core, n, p)
        spots.append({"n": n, "expected": expected,
                      "valuation": got, "passed": got == expected})

    scan = comb.scan_special_prefixes(symbols)
    periodic = bool(scan.period_candidates)

    reasons = []
    if len(family) < min_witnesses:
        reasons.append("witnesses")
    if min_exp < k:
        reasons.append("k-exponent")
    if not all(s["passed"] for s in spots):
        reasons.append("approximation")
    verdict = "hypotheses-evidenced" if not reasons else \
        "failed(" + ",".join(reasons) + ")"

    condition = {
        "hint": condition_hint,
        "chosen": chosen,
        "c_max": format_rational(c_cap),
        "c_achieved": format_rational(c_achieved),
        "family_size": len(family),
        "min_witnesses": min_witnesses,
        "largest_u": det.largest_u,
    }
    periodicity = {
        "periodic_prefix": periodic,
        "candidates": [{"preperiod": r, "period": q}
                       for r, q in scan.period_candidates[:8]],
        "longest_square_u": scan.longest_square_u,
        "longest_palindromic_prefix": scan.longest_palindromic_prefix,
    }
    return Certificate(p, floor, stream.spec.to_json(), length, condition,
                       family, growth, k, min_exp, min_exp >= k, spots,
                       periodicity, verdict)
