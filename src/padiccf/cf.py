"""The p-adic continued fraction algorithm, continuants, and exact identities.

The expansion runs entirely over exact rationals: gamma_{n+1} = 1/(gamma_n -
a_n) with a_n the floor of gamma_n, stopping when a complete quotient equals
its floor.  Ruban expansions of rationals may never terminate, so a step cap
is mandatory and truncation is a flagged outcome rather than an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

from .floors import FloorFunction
from .padic import Rational, format_rational, parse_rational, vp

__all__ = [
    "ContinuantState",
    "ExpansionRecord",
    "IdentityCheck",
    "IdentityReport",
    "MalformedWordError",
    "DegenerateTailError",
    "continuant_matrix",
    "continuants",
    "eval_cf",
    "expand",
    "integer_continuants",
    "tail_reconstruct",
    "verify_identities",
]


class MalformedWordError(ValueError):
    """A finite word whose convergent has a vanishing denominator."""


class DegenerateTailError(ValueError):
    """tail_reconstruct hit a zero denominator."""


@dataclass(frozen=True)
class ContinuantState:
    """One step of the three-term recurrences, with the previous pair."""

    index: int
    A_prev: Fraction
    A: Fraction
    B_prev: Fraction
    B: Fraction

    def determinant(self) -> Fraction:
        """A_n B_{n-1} - B_n A_{n-1}; must equal (-1)^(n+1)."""
        return self.A * self.B_prev - self.B * self.A_prev


@dataclass
class ExpansionRecord:
    p: int
    floor: FloorFunction
    alpha: Fraction
    partial_quotients: List[Fraction]
    complete_quotients: List[Fraction]
    terminated: bool
    truncated: bool

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "floor": self.floor.to_json(),
            "alpha": format_rational(self.alpha),
            "a": [format_rational(a) for a in self.partial_quotients],
            "terminated": self.terminated,
            "truncated": self.truncated,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExpansionRecord":
        floor = FloorFunction.from_json(obj["floor"])
        if obj["p"] != floor.p:
            raise ValueError(f"stored p = {obj['p']} disagrees with the "
                             f"floor's p = {floor.p}")
        alpha = parse_rational(obj["alpha"])
        rec = expand(alpha, floor, max_terms=max(1, len(obj["a"])))
        if [format_rational(a) for a in rec.partial_quotients] != obj["a"]:
            raise ValueError("stored partial quotients disagree with re-expansion")
        for flag in ("terminated", "truncated"):
            if obj[flag] != getattr(rec, flag):
                raise ValueError(f"stored {flag} flag disagrees with re-expansion")
        return rec


def expand(alpha: Rational, floor: FloorFunction, max_terms: int) -> ExpansionRecord:
    """Run the expansion of alpha for at most max_terms partial quotients."""
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    alpha = Fraction(alpha)
    a: List[Fraction] = []
    gammas: List[Fraction] = []
    gamma = alpha
    terminated = False
    while len(a) < max_terms:
        gammas.append(gamma)
        an = floor.apply(gamma)
        a.append(an)
        if gamma == an:
            terminated = True
            break
        gamma = 1 / (gamma - an)
    return ExpansionRecord(floor.p, floor, alpha, a, gammas,
                           terminated, not terminated)


def integer_continuants(
        word: Sequence[Rational]) -> Tuple[List[int], List[int], List[int]]:
    """The integer continuant core: lists (Â_n), (B̂_n), (D_n) for a_0..a_n.

    Writing each letter in lowest terms as a_n = m_n/d_n, D_n = d_0···d_n
    and Â_n = D_n·A_n, B̂_n = D_n·B_n are integers obeying

        Â_n = m_n·Â_{n-1} + d_n·d_{n-1}·Â_{n-2}    (the same for B̂)

    from Â_{-2}=0, Â_{-1}=1, B̂_{-2}=1, B̂_{-1}=0 and d_{-1}=1, so no step
    takes a gcd.  A_n/B_n = Â_n/B̂_n, since both share the scale D_n.
    """
    Ah, Bh, D = [], [], []
    a2, a1, b2, b1 = 0, 1, 1, 0
    d1 = Dn = 1
    for an in word:
        if not isinstance(an, Fraction):
            an = Fraction(an)
        m, d = an.numerator, an.denominator
        dd = d * d1
        a2, a1 = a1, m * a1 + dd * a2
        b2, b1 = b1, m * b1 + dd * b2
        Dn *= d
        d1 = d
        Ah.append(a1)
        Bh.append(b1)
        D.append(Dn)
    return Ah, Bh, D


def continuants(word: Sequence[Rational]) -> List[ContinuantState]:
    """Continuant states for a_0..a_n with A_{-1}=1, A_0=a_0, B_{-1}=0, B_0=1,
    read off the integer core.

    This is the public Fraction view of :func:`integer_continuants`; the
    identity battery, tail round trips, quadratic certificates and mirror
    laws all read the integer core directly.
    """
    out = []
    A_p, B_p = Fraction(1), Fraction(0)
    for n, (a, b, d) in enumerate(zip(*integer_continuants(word))):
        A_n, B_n = Fraction(a, d), Fraction(b, d)
        out.append(ContinuantState(n, A_p, A_n, B_p, B_n))
        A_p, B_p = A_n, B_n
    return out


def continuant_matrix(word: Sequence[Rational]):
    """((A_n, A_{n-1}), (B_n, B_{n-1})), the product of the step matrices."""
    states = continuants(word)
    if not states:
        return ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    last = states[-1]
    return ((last.A, last.A_prev), (last.B, last.B_prev))


def eval_cf(word: Sequence[Rational]) -> Fraction:
    """Exact value A_n/B_n = Â_n/B̂_n of a finite word, from the integer core."""
    if not word:
        raise MalformedWordError("empty word has no value")
    Ah, Bh, _ = integer_continuants(word)
    if Bh[-1] == 0:
        raise MalformedWordError(
            f"word {[format_rational(Fraction(a)) for a in word]} has B_n = 0")
    return Fraction(Ah[-1], Bh[-1])


def tail_reconstruct(prefix: Sequence[Rational], gamma: Rational) -> Fraction:
    """alpha = (gamma*A_{k-1} + A_{k-2}) / (gamma*B_{k-1} + B_{k-2}).

    k = len(prefix); the k = 0 case uses A_{-1}=1, A_{-2}=0, B_{-1}=0,
    B_{-2}=1, forced by the matrix identity, so the empty prefix returns
    gamma itself.
    """
    gamma = Fraction(gamma)
    Ah, Bh, _ = integer_continuants(prefix)
    d = Fraction(prefix[-1]).denominator if prefix else 1
    return Fraction(*_tail_terms(Ah, Bh, len(prefix), d, gamma))


def _tail_terms(Ah: List[int], Bh: List[int], k: int, d: int,
                gamma: Fraction) -> Tuple[int, int]:
    """Numerator and denominator of tail_reconstruct(a_0..a_{k-1}, gamma).

    For gamma = g/h and d = d_{k-1}, the denominator of a_{k-1} (1 when
    k = 0), both are scaled by D_{k-1}·h:

        g·Â_{k-1} + h·d·Â_{k-2}  and  g·B̂_{k-1} + h·d·B̂_{k-2}

    with Â_{-2}, Â_{-1} = 0, 1 and B̂_{-2}, B̂_{-1} = 1, 0.  Ah and Bh are
    core lists covering at least a_0..a_{k-1}.  A zero denominator raises
    DegenerateTailError.
    """
    A1, B1 = (Ah[k - 1], Bh[k - 1]) if k >= 1 else (1, 0)
    if k >= 2:
        A2, B2 = Ah[k - 2], Bh[k - 2]
    else:
        A2, B2 = (1, 0) if k == 1 else (0, 1)
    g, hd = gamma.numerator, gamma.denominator * d
    den = g * B1 + hd * B2
    if den == 0:
        raise DegenerateTailError("gamma*B_{k-1} + B_{k-2} = 0")
    return g * A1 + hd * A2, den


# -- identity battery ---------------------------------------------------------


@dataclass
class IdentityCheck:
    name: str
    passed: bool
    applicable: bool = True
    first_failed_index: Optional[int] = None
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "applicable": self.applicable,
            "first_failed_index": self.first_failed_index,
            "detail": self.detail,
        }


@dataclass
class IdentityReport:
    checks: List[IdentityCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.applicable)

    def __getitem__(self, name: str) -> IdentityCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self) -> dict:
        return {"all_passed": self.all_passed,
                "checks": [c.to_json() for c in self.checks]}


def verify_identities(rec: ExpansionRecord) -> IdentityReport:
    """Exact checks of the determinant, valuation-product, approximation,
    archimedean-growth, and record-consistency identities.

    The valuation products for the A-continuants take their textbook shape
    only when a_0 = 0; for a nonzero a_0 the battery checks the adjusted
    products (every extra factor is |a_0|_p), so tampered records are caught
    either way.

    Every check reads the integer core of :func:`integer_continuants`: the
    state at n is Â_n, d_n·Â_{n-1}, B̂_n, d_n·B̂_{n-1} over the scale D_n,
    so each identity becomes an integer identity (the determinant law reads
    Â_n·B̂_{n-1} - B̂_n·Â_{n-1} = (-1)^(n+1)·D_n·D_{n-1}, and vp(A_n) =
    vp(Â_n) - vp(D_n)).  Linear in the record length: the core is computed
    once, every valuation once, the products as prefix sums, and each tail
    round trip is one cross-multiplication against alpha.
    """
    word = rec.partial_quotients
    if len(word) < 2:
        raise ValueError("need at least 2 partial quotients")
    p = rec.p
    Ah, Bh, D = integer_continuants(word)
    va = [vp(a, p) for a in word]
    # vp(D_n): the letters are in lowest terms, so vp(d_i) = max(0, -vp(a_i))
    vD = list(accumulate(max(0, -v) for v in va))
    vA = [vp(a, p) - v for a, v in zip(Ah, vD)]
    vB = [vp(b, p) - v for b, v in zip(Bh, vD)]
    # neg[n] = sum_{i=1..n} -vp(a_i), i.e. -log_p prod_{i=1..n} |a_i|_p
    neg = [0]
    for v in va[1:]:
        neg.append(neg[-1] - v)
    checks = []

    # determinant: A_n B_{n-1} - B_n A_{n-1} = (-1)^(n+1), scaled by
    # D_n·D_{n-1} from Â_{-1} = 1, B̂_{-1} = 0, D_{-1} = 1
    bad = None
    a1, b1, D1 = 1, 0, 1
    for n, (a, b, Dn) in enumerate(zip(Ah, Bh, D)):
        if a * b1 - b * a1 != (Dn * D1 if n % 2 else -Dn * D1):
            bad = n
            break
        a1, b1, D1 = a, b, Dn
    checks.append(IdentityCheck("determinant", bad is None,
                                first_failed_index=bad))

    a0 = word[0]
    last = len(word) - 1

    # |B_n|_p = prod_{i=1..n} |a_i|_p for n >= 1 (independent of a_0)
    bad = next((n for n in range(1, last + 1) if -vB[n] != neg[n]), None)
    checks.append(IdentityCheck("b-valuation-product", bad is None,
                                first_failed_index=bad))

    # |A_n|_p: prod_{i=2..n} when a_0 = 0 (n >= 2); with a_0 != 0 every
    # product gains the factor |a_0|_p (valid since vp(a_0) <= 0 for floor
    # images; skipped otherwise)
    if a0 == 0:
        bad = next((n for n in range(2, last + 1)
                    if -vA[n] != neg[n] + va[1]), None)
        checks.append(IdentityCheck("a-valuation-product", bad is None,
                                    first_failed_index=bad))
    elif va[0] <= 0:
        bad = next((n for n in range(1, last + 1)
                    if -vA[n] != neg[n] - va[0]), None)
        checks.append(IdentityCheck("a-valuation-product", bad is None,
                                    first_failed_index=bad,
                                    detail="adjusted by |a_0|_p"))
    else:
        checks.append(IdentityCheck("a-valuation-product", True,
                                    applicable=False,
                                    detail="vp(a_0) > 0: no product form"))

    # strict p-adic growth, and |A_n|_p <= |B_n|_p when a_0 = 0
    bad = next((n for n in range(1, last + 1)
                if not (vB[n] < vB[n - 1] and vA[n] < vA[n - 1])
                or (a0 == 0 and not vA[n] >= vB[n])), None)
    checks.append(IdentityCheck("valuation-monotonicity", bad is None,
                                first_failed_index=bad))

    # vp(B_n*alpha - A_n) = sum_{j<=n+1} -vp(a_j), below termination, where
    # B_n*alpha - A_n = (B̂_n*num - Â_n*den) / (den*D_n) for alpha = num/den
    num, den = rec.alpha.numerator, rec.alpha.denominator
    v_den = vp(den, p)
    bad = next((n for n in range(last)
                if vp(Bh[n] * num - Ah[n] * den, p) - v_den - vD[n]
                != neg[n + 1]), None)
    if rec.terminated and Bh[last] * num != Ah[last] * den:
        bad = last
    checks.append(IdentityCheck("approximation-valuation", bad is None,
                                first_failed_index=bad))

    # max(|A_n|, |B_n|) <= max(1, |a_0|) * (M+1)^n with M = max |a_i|,
    # scaled by D_n: max(|Â_n|, |B̂_n|)·s_d·M_d^n <= s_n·(M_n + M_d)^n·D_n
    M = max(abs(a) for a in word)
    scale = max(Fraction(1), abs(a0))
    step_num = M.numerator + M.denominator
    bound_num, bound_den = scale.numerator, scale.denominator
    bad = None
    for n, (a, b, Dn) in enumerate(zip(Ah, Bh, D)):
        if max(abs(a), abs(b)) * bound_den > bound_num * Dn:
            bad = n
            break
        bound_num *= step_num
        bound_den *= M.denominator
    checks.append(IdentityCheck("archimedean-growth", bad is None,
                                first_failed_index=bad,
                                detail=f"M = {format_rational(M)}"))

    # the record is self-consistent: floors, the gamma recurrence, and the
    # round trip through every tail
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
        t_num, t_den = _tail_terms(Ah, Bh, i,
                                   word[i - 1].denominator if i else 1,
                                   Fraction(gi))
        if t_num * den != t_den * num:
            bad, detail = i, "tail reconstruction misses alpha"
            break
    checks.append(IdentityCheck("record-consistency", bad is None,
                                first_failed_index=bad, detail=detail))

    return IdentityReport(checks)
