"""Exact p-adic primitives over the rationals.

All scalars are `fractions.Fraction` (or ints), kept reduced by the stdlib;
p-adic sizes are carried as integer valuations so that every norm comparison
is an exact integer comparison.  Nothing here ever touches floating point
except the ``+inf`` marker used for the valuation of zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

Rational = Union[int, Fraction]

#: valuation of zero
INFINITY = math.inf

__all__ = [
    "INFINITY",
    "PAdicApprox",
    "PrecisionError",
    "abs_p",
    "canonical_digits",
    "format_rational",
    "hensel_sqrt",
    "in_z_one_over_p",
    "is_odd_prime",
    "parse_rational",
    "rational_mod",
    "require_odd_prime",
    "vp",
    "weil_height",
]


class PrecisionError(ArithmeticError):
    """An operation needed more p-adic precision than the operands carry."""


# -- primes -----------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_odd_prime(p: int) -> bool:
    """Deterministic primality test, restricted to odd primes >= 3."""
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        return False
    if p in _SMALL_PRIMES:
        return True
    if any(p % q == 0 for q in _SMALL_PRIMES):
        return False
    # deterministic Miller-Rabin; these bases decide primality below 3.3e24
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def require_odd_prime(p: int) -> int:
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime >= 3, got {p!r}")
    return p


# -- valuations and norms ---------------------------------------------------

def _vp_int(n: int, p: int) -> int:
    """vp(n) for an integer n != 0, in O(log vp(n)) divisions.

    Divide by p, p^2, p^4, ... while each power divides; what is left has
    valuation below the first power that failed, so the same powers tried
    downwards read off its binary digits.
    """
    v = 0
    powers = []
    pk = p
    while True:
        q, r = divmod(n, pk)
        if r:
            break
        n = q
        v += 1 << len(powers)
        powers.append(pk)
        pk *= pk
    for k in range(len(powers) - 1, -1, -1):
        q, r = divmod(n, powers[k])
        if not r:
            n = q
            v += 1 << k
    return v


def vp(q: Rational, p: int):
    """p-adic valuation of a rational; ``INFINITY`` for q = 0."""
    if isinstance(q, int):
        return _vp_int(q, p) if q else INFINITY
    q = Fraction(q)
    if q == 0:
        return INFINITY
    return _vp_int(q.numerator, p) - _vp_int(q.denominator, p)


def abs_p(q: Rational, p: int) -> Fraction:
    """|q|_p = p^(-vp(q)) as an exact Fraction; 0 for q = 0.

    The value is always an exact power of p, so callers comparing norms can
    equally compare valuations with :func:`vp`.
    """
    v = vp(q, p)
    if v is INFINITY:
        return Fraction(0)
    return Fraction(p) ** (-v)


def in_z_one_over_p(q: Rational, p: int) -> bool:
    """True iff q lies in Z[1/p], i.e. its denominator is a power of p."""
    den = Fraction(q).denominator
    while den % p == 0:
        den //= p
    return den == 1


def rational_mod(q: Rational, p: int, k: int = 1) -> int:
    """q mod p^k as an integer in [0, p^k), for q with vp(q) >= 0."""
    q = Fraction(q)
    m = p ** k
    if q.denominator % p == 0:
        raise ValueError(f"{q} has negative {p}-adic valuation")
    return q.numerator * pow(q.denominator, -1, m) % m


# -- canonical digits -------------------------------------------------------

def canonical_digits(q: Rational, p: int, lo: int, hi: int) -> list:
    """Hensel digits x_n in [0, p-1] of q for the window n = lo..hi.

    Positions below vp(q) hold digit 0.  Subtracting the digits between
    min(vp(q), lo) and hi from q leaves a remainder of valuation > hi, which
    is the round-trip identity the tests rely on.
    """
    if lo > hi:
        raise ValueError(f"empty digit window: lo={lo} > hi={hi}")
    q = Fraction(q)
    if q == 0:
        return [0] * (hi - lo + 1)
    v = vp(q, p)
    start = min(v, lo)
    digits = {}
    r = q
    for n in range(start, hi + 1):
        if r == 0 or vp(r, p) > n:
            digits[n] = 0
            continue
        x = rational_mod(r / Fraction(p) ** n, p)
        digits[n] = x
        r -= x * Fraction(p) ** n
    return [digits[n] for n in range(lo, hi + 1)]


# -- Weil height ------------------------------------------------------------

def weil_height(zs: Iterable[Rational], p: int) -> Fraction:
    """Multiplicative height max(1, max|z|_inf) * max(1, max|z|_p).

    Entries must lie in Z[1/p]; anything else is rejected because the
    two-place product formula below would silently miss their other primes.
    """
    zs = [Fraction(z) for z in zs]
    if not zs:
        raise ValueError("height of an empty vector")
    for z in zs:
        if not in_z_one_over_p(z, p):
            raise ValueError(f"{z} is not in Z[1/{p}]")
    arch = max(Fraction(1), max(abs(z) for z in zs))
    padic = max(Fraction(1), max(abs_p(z, p) for z in zs))
    return arch * padic


# -- rational wire format ---------------------------------------------------

def parse_rational(s: str) -> Fraction:
    """Parse "num" or "num/den" (no decimals, exactness preserved)."""
    s = s.strip()
    if "." in s or "e" in s.lower():
        raise ValueError(f"decimal notation not accepted: {s!r}")
    try:
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational string: {s!r}") from exc


def format_rational(q: Rational) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# -- truncated p-adic numbers ------------------------------------------------

@dataclass(frozen=True)
class PAdicApprox:
    """A truncated p-adic number u * p^v + O(p^(v+N)).

    Normal values keep ``0 < unit < p^precision`` with p not dividing unit.
    Two zero-ish states exist: the exact zero (``valuation`` is INFINITY) and
    a value only known to be O(p^m) (``unit == 0``, ``valuation == m``,
    ``precision == 0``) as produced by cancelling subtractions.  Arithmetic
    tracks precision pessimistically and never overstates it.
    """

    p: int
    valuation: object  # int, or INFINITY for the exact zero
    unit: int
    precision: int

    # -- constructors

    @classmethod
    def exact_zero(cls, p: int) -> "PAdicApprox":
        return cls(p, INFINITY, 0, 0)

    @classmethod
    def zero_to(cls, p: int, m: int) -> "PAdicApprox":
        """The class of values that are O(p^m)."""
        return cls(p, m, 0, 0)

    @classmethod
    def from_rational(cls, q: Rational, p: int, precision: int) -> "PAdicApprox":
        require_odd_prime(p)
        if precision < 1:
            raise ValueError("precision must be >= 1")
        q = Fraction(q)
        if q == 0:
            return cls.exact_zero(p)
        v = vp(q, p)
        unit = rational_mod(q / Fraction(p) ** v, p, precision)
        return cls(p, v, unit, precision)

    # -- predicates

    @property
    def is_exact_zero(self) -> bool:
        return self.valuation is INFINITY

    @property
    def is_zeroish(self) -> bool:
        """True when the value cannot be told apart from 0 at this precision."""
        return self.unit == 0

    # -- arithmetic

    def _require_same_p(self, other: "PAdicApprox"):
        if self.p != other.p:
            raise ValueError(f"mixed primes {self.p} and {other.p}")

    def __add__(self, other: "PAdicApprox") -> "PAdicApprox":
        self._require_same_p(other)
        a, b = self, other
        if a.is_exact_zero:
            return b
        if b.is_exact_zero:
            return a
        if a.is_zeroish or b.is_zeroish:
            if a.is_zeroish and b.is_zeroish:
                return PAdicApprox.zero_to(a.p, min(a.valuation, b.valuation))
            zero, val = (a, b) if a.is_zeroish else (b, a)
            m = min(zero.valuation, val.valuation + val.precision)
            if val.valuation >= m:
                return PAdicApprox.zero_to(a.p, m)
            n = m - val.valuation
            return PAdicApprox(a.p, val.valuation, val.unit % a.p ** n, n)
        m = min(a.valuation + a.precision, b.valuation + b.precision)
        v = min(a.valuation, b.valuation)
        if m <= v:
            return PAdicApprox.zero_to(a.p, m)
        w = (a.unit * a.p ** (a.valuation - v)
             + b.unit * b.p ** (b.valuation - v)) % a.p ** (m - v)
        if w == 0:
            return PAdicApprox.zero_to(a.p, m)
        d = _vp_int(w, a.p)
        return PAdicApprox(a.p, v + d, w // a.p ** d, m - v - d)

    def __neg__(self) -> "PAdicApprox":
        if self.is_zeroish:
            return self
        return PAdicApprox(self.p, self.valuation,
                           (-self.unit) % self.p ** self.precision,
                           self.precision)

    def __sub__(self, other: "PAdicApprox") -> "PAdicApprox":
        return self + (-other)

    def __mul__(self, other: "PAdicApprox") -> "PAdicApprox":
        self._require_same_p(other)
        a, b = self, other
        if a.is_exact_zero or b.is_exact_zero:
            return PAdicApprox.exact_zero(a.p)
        if a.is_zeroish or b.is_zeroish:
            # valuation is a lower bound for zeroish values, exact otherwise
            return PAdicApprox.zero_to(a.p, a.valuation + b.valuation)
        n = min(a.precision, b.precision)
        return PAdicApprox(a.p, a.valuation + b.valuation,
                           a.unit * b.unit % a.p ** n, n)

    def invert(self) -> "PAdicApprox":
        if self.is_zeroish:
            raise PrecisionError(
                "cannot invert a value indistinguishable from 0 "
                f"(known only to be O({self.p}^{self.valuation}))")
        return PAdicApprox(self.p, -self.valuation,
                           pow(self.unit, -1, self.p ** self.precision),
                           self.precision)

    def __repr__(self):
        if self.is_exact_zero:
            return f"PAdicApprox(0, p={self.p})"
        if self.is_zeroish:
            return f"PAdicApprox(O({self.p}^{self.valuation}))"
        return (f"PAdicApprox({self.unit}*{self.p}^{self.valuation} "
                f"+ O({self.p}^{self.valuation + self.precision}))")


# -- p-adic square roots -----------------------------------------------------

def _sqrt_mod_prime(a: int, p: int) -> Optional[int]:
    """A square root of a mod p (odd p), or None for a non-residue."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, sq = 0, t
        while sq != 1:
            sq = sq * sq % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return x


def hensel_sqrt(d: Rational, p: int, precision: int) -> Optional[PAdicApprox]:
    """One p-adic square-root branch of d, to the given relative precision.

    Returns None when no root exists (odd valuation, or a non-residue unit).
    The branch is pinned deterministically: the unit part is congruent mod p
    to the smaller of the two square roots of d's unit.
    """
    require_odd_prime(p)
    if precision < 1:
        raise ValueError("precision must be >= 1")
    d = Fraction(d)
    if d == 0:
        return PAdicApprox.exact_zero(p)
    v = vp(d, p)
    if v % 2 != 0:
        return None
    u = d / Fraction(p) ** v
    r = _sqrt_mod_prime(rational_mod(u, p), p)
    if r is None:
        return None
    r = min(r, p - r)
    # Newton lifting x -> (x + u/x)/2, doubling the modulus exponent
    x, k = r, 1
    inv2 = pow(2, -1, p ** precision)
    while k < precision:
        k = min(2 * k, precision)
        m = p ** k
        x = (x + rational_mod(u, p, k) * pow(x, -1, m)) * inv2 % m
    return PAdicApprox(p, v // 2, x % p ** precision, precision)
