"""Periodic words to quadratic polynomials, and palindromic continuant laws.

A word [0, a_1..a_w, period a_{w+1}..a_l repeated] has a p-adic limit that is
a root of a X^2 - b X + c with coefficients built from the continuants at w
and l.  The limit itself is never materialised as a radical: certificates
carry the polynomial plus a truncation ladder, and callers wanting an
explicit p-adic branch can feed the discriminant to hensel_sqrt.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .cf import eval_cf, integer_continuants
from .floors import FloorFunction
from .padic import INFINITY, Rational, format_rational, parse_rational, vp

__all__ = [
    "QuadraticCertificate",
    "RootCheck",
    "palindrome_symmetry",
    "periodic_to_quadratic",
    "reversal_quotient",
    "verify_root",
]


@dataclass(frozen=True)
class QuadraticCertificate:
    """P(X) = a X^2 - b X + c together with the word that produced it."""

    a: Fraction
    b: Fraction
    c: Fraction
    preperiod: Tuple[Fraction, ...]
    period: Tuple[Fraction, ...]
    degenerate: bool = False

    def __call__(self, x: Rational) -> Fraction:
        x = Fraction(x)
        return self.a * x * x - self.b * x + self.c

    def discriminant(self) -> Fraction:
        return self.b * self.b - 4 * self.a * self.c

    def unroll(self, n_letters: int) -> List[Fraction]:
        """The word [preperiod, period, period, ...] with >= n_letters letters."""
        word = list(self.preperiod)
        while len(word) < n_letters:
            word.extend(self.period)
        return word

    def to_json(self) -> dict:
        return {
            "a": format_rational(self.a),
            "b": format_rational(self.b),
            "c": format_rational(self.c),
            "preperiod": [format_rational(x) for x in self.preperiod],
            "period": [format_rational(x) for x in self.period],
            "degenerate": self.degenerate,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "QuadraticCertificate":
        return periodic_to_quadratic(
            [parse_rational(x) for x in obj["preperiod"]],
            [parse_rational(x) for x in obj["period"]])


def periodic_to_quadratic(preperiod: Sequence[Rational],
                          period: Sequence[Rational]) -> QuadraticCertificate:
    """Quadratic certificate of [preperiod, period repeated].

    Writing the preperiod as a_0..a_w (a_0 must be 0) and the first period
    copy as a_{w+1}..a_l, the coefficients are

        a = B_{w-1} B_l - B_w B_{l-1}
        b = B_{w-1} A_l - B_w A_{l-1} + A_{w-1} B_l - A_w B_{l-1}
        c = A_{w-1} A_l - A_w A_{l-1}

    read off the integer continuant core as integers over D_w·D_l, each
    reduced once by Fraction.
    """
    preperiod = [Fraction(x) for x in preperiod]
    period = [Fraction(x) for x in period]
    if not period:
        raise ValueError("period must be nonempty")
    if not preperiod or preperiod[0] != 0:
        raise ValueError("preperiod must begin with 0")
    word = preperiod + period
    core = integer_continuants(word)
    w = len(preperiod) - 1
    # every continuant at w is over D_w and every one at l over D_l
    Aw, Aw1, Bw, Bw1, Dw = _scaled_state(word, core, w)
    Al, Al1, Bl, Bl1, Dl = _scaled_state(word, core, len(word) - 1)
    scale = Dw * Dl
    a = Fraction(Bw1 * Bl - Bw * Bl1, scale)
    b = Fraction(Bw1 * Al - Bw * Al1 + Aw1 * Bl - Aw * Bl1, scale)
    c = Fraction(Aw1 * Al - Aw * Al1, scale)
    return QuadraticCertificate(a, b, c, tuple(preperiod), tuple(period),
                                degenerate=(a == 0 and b == 0 and c == 0))


@dataclass(frozen=True)
class RootCheck:
    """Valuation evidence that the certificate's limit is a root of P."""

    valuation: object  # int, or INFINITY when P vanished exactly
    exact_root: Optional[Fraction]
    letters_used: int

    def to_json(self) -> dict:
        return {
            "valuation": "inf" if self.valuation is INFINITY else self.valuation,
            "exact_root": (None if self.exact_root is None
                           else format_rational(self.exact_root)),
            "letters_used": self.letters_used,
        }


def _rational_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    num = _isqrt_exact(q.numerator)
    den = _isqrt_exact(q.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _isqrt_exact(n: int) -> Optional[int]:
    import math
    r = math.isqrt(n)
    return r if r * r == n else None


def verify_root(cert: QuadraticCertificate, n_letters: int, p: int) -> RootCheck:
    """vp of P at the n_letters-truncation of the certificate's word.

    When the discriminant is a perfect rational square the limit may be a
    rational root r of P; r is confirmed exactly when vp(r - x_N) exceeds
    vp(disc)/2 - vp(a), the p-adic gap between the two roots, in which case
    the check reports valuation INFINITY with the root attached.
    """
    if n_letters < len(cert.preperiod) + len(cert.period):
        raise ValueError("n_letters must cover preperiod plus one period")
    word = cert.unroll(n_letters)
    x = eval_cf(word)
    value = cert(x)
    if value == 0:
        return RootCheck(INFINITY, x, len(word))
    if cert.a != 0:
        sq = _rational_sqrt(cert.discriminant())
        if sq is not None and sq != 0:
            # vp(root1 - root2) = vp(sqrt(disc)) - vp(a): anything p-adically
            # closer to x than that gap cannot be the other root
            gap = vp(sq, p) - vp(cert.a, p)
            for root in {(cert.b + sq) / (2 * cert.a),
                         (cert.b - sq) / (2 * cert.a)}:
                if vp(root - x, p) > gap:
                    return RootCheck(INFINITY, root, len(word))
    return RootCheck(vp(value, p), None, len(word))


def palindrome_symmetry(letters: Sequence[Rational], floor: FloorFunction):
    """Whether the product of the step matrices of a_1..a_m is symmetric.

    For letters drawn from Im(s) \\ {0} this happens exactly when the word is
    a palindrome, because a symmetric matrix forces A_m = B_{m-1} and the
    expansion attached to s is unique.  Letters outside a common floor image
    are rejected: without the unit-ball separation of Im(s) the equivalence
    genuinely fails.
    """
    letters = [Fraction(x) for x in letters]
    if not letters:
        raise ValueError("empty prefix")
    p = floor.p
    for x in letters:
        if x == 0 or floor.apply(x) != x or not (vp(x, p) <= -1):
            raise ValueError(
                f"letter {format_rational(x)} is not in Im(s) \\ {{0}} "
                f"with |.|_p > 1")
    # product of (a_i 1; 1 0) = (B_m B_{m-1}; A_m A_{m-1}) for [0, a_1..a_m]
    word = [Fraction(0)] + letters
    A, _, _, B1, D = _scaled_state(word, integer_continuants(word),
                                   len(letters))
    symmetric = A == B1
    witness = {
        "A_m": format_rational(Fraction(A, D)),
        "B_m_minus_1": format_rational(Fraction(B1, D)),
    }
    return symmetric, witness


def reversal_quotient(word: Sequence[Rational]) -> Fraction:
    """B_{n-1}/B_n (when a_0 = 0) or B_n/B_{n-1} (when a_0 is a valid letter).

    Both mirror laws are asserted exactly before returning.  The B-quotients
    never see a_0 (the recurrence starts at a_1), so their reversal drops it:
    B_n/B_{n-1} = [a_n, ..., a_1].  The full reversed word governs the
    A-quotient instead, A_n/A_{n-1} = [a_n, ..., a_0], which is checked too
    in the |a_0|_p > 1 case.
    """
    word = [Fraction(x) for x in word]
    if len(word) < 2:
        raise ValueError("need n >= 1: a single letter has no B_{n-1}/B_n")
    n = len(word) - 1
    A, A1, B, B1, _ = _scaled_state(word, integer_continuants(word), n)
    if word[0] == 0:
        quotient = Fraction(B1, B)
        mirrored = eval_cf([Fraction(0)] + word[:0:-1])
        if quotient != mirrored:
            raise AssertionError(f"mirror law violated: {quotient} != {mirrored}")
        return quotient
    if B1 == 0:
        raise ValueError("B_{n-1} = 0: reversal quotient undefined")
    quotient = Fraction(B, B1)
    if quotient != eval_cf(word[:0:-1]):
        raise AssertionError("denominator mirror law violated")
    if A1 != 0 and Fraction(A, A1) != eval_cf(word[::-1]):
        raise AssertionError("numerator mirror law violated")
    return quotient


def _scaled_state(word: Sequence[Fraction], core, n: int):
    """(Â_n, d_n·Â_{n-1}, B̂_n, d_n·B̂_{n-1}, D_n) from the integer core of
    word: A_n, A_{n-1}, B_n and B_{n-1} as integers over the one scale D_n,
    with Â_{-1} = 1 and B̂_{-1} = 0."""
    Ah, Bh, D = core
    d = word[n].denominator
    A1, B1 = (Ah[n - 1], Bh[n - 1]) if n else (1, 0)
    return Ah[n], d * A1, Bh[n], d * B1, D[n]
