"""Subword complexity and prefix-repetition/mirror witness detection.

A spade witness (w, u, v) means the prefix decomposes as W U V U with
|W| = w, |U| = u, |V| = v; a club witness has the second U reversed.  The
detector reports, per block length u, the minimum of max(w/u, v/u) over all
admissible pairs, as an exact rational.  Everything found on a finite prefix
is evidence about the infinite word, never proof: unboundedness of u and
non-ultimate-periodicity live beyond any prefix.

Two interchangeable search backends exist: a direct-comparison reference
that walks candidate pairs in tie-break order, and an indexed backend.  The
indexed one first compares the least pair (w, v) = (0, 0) directly, then asks
one Karp-Miller-Rosenberg index, shared by every u and both kinds: blocks of
length 2^k in the prefix and in its reversal get exact integer names, and
each name keeps the bitmask of its start positions, so the occurrences of a
block of length u in [2^k, 2^(k+1)) are the AND of its two halves' masks.
An index hit is a match and needs no re-check.  Once c_max*u >= L - 2u,
every pair that fits is admissible, so the first u with no witness ends the
search: any longer witness would cut down to one at u.  Both backends return
identical profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .padic import Rational

__all__ = [
    "CProfileEntry",
    "DetectionResult",
    "PrefixScan",
    "Witness",
    "check_witness",
    "complexity",
    "detect",
    "scan_special_prefixes",
    "spade_constant_from_complexity",
    "zarray",
]


def complexity(prefix: Sequence, n: int) -> int:
    """Number of distinct length-n blocks of the prefix.

    This is a lower bound for the complexity of the infinite word; equality
    needs the prefix to be long enough to exhibit every factor.
    """
    if not (1 <= n <= len(prefix)):
        raise ValueError(f"need 1 <= n <= |prefix|, got n={n}, L={len(prefix)}")
    seq = tuple(prefix)
    return len({seq[i:i + n] for i in range(len(seq) - n + 1)})


def spade_constant_from_complexity(C: Rational) -> Fraction:
    """The repetition constant 3C + 1 guaranteed by linear complexity <= C*n."""
    C = Fraction(C)
    if C <= 0:
        raise ValueError("C must be positive")
    return 3 * C + 1


@dataclass(frozen=True)
class Witness:
    kind: str
    w: int
    u: int
    v: int
    prefix_length_used: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(max(self.w, self.v), self.u)

    def to_json(self) -> dict:
        return {"kind": self.kind, "w": self.w, "u": self.u, "v": self.v,
                "prefix_length_used": self.prefix_length_used}


@dataclass(frozen=True)
class CProfileEntry:
    u: int
    ratio: Optional[Fraction]
    witness: Optional[Witness]

    def to_json(self) -> dict:
        return {"u": self.u,
                "min_ratio": None if self.ratio is None else
                f"{self.ratio.numerator}/{self.ratio.denominator}",
                "witness": None if self.witness is None else self.witness.to_json()}


@dataclass
class DetectionResult:
    kind: str
    c_max: Fraction
    prefix_length: int
    witnesses: List[Witness]
    profile: List[CProfileEntry]
    min_witnesses: int = 1

    @property
    def family_complete(self) -> bool:
        return len(self.witnesses) >= self.min_witnesses

    @property
    def largest_u(self) -> int:
        return self.witnesses[-1].u if self.witnesses else 0

    @property
    def prefix_fraction_used(self) -> Fraction:
        if not self.witnesses:
            return Fraction(0)
        w = self.witnesses[-1]
        return Fraction(w.w + 2 * w.u + w.v, self.prefix_length)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "c_max": f"{self.c_max.numerator}/{self.c_max.denominator}",
            "prefix_length": self.prefix_length,
            "min_witnesses": self.min_witnesses,
            "family_complete": self.family_complete,
            "largest_u": self.largest_u,
            "prefix_fraction_used":
                f"{self.prefix_fraction_used.numerator}/"
                f"{self.prefix_fraction_used.denominator}",
            "witnesses": [w.to_json() for w in self.witnesses],
            "profile": [e.to_json() for e in self.profile],
        }


def check_witness(kind: str, prefix: Sequence, w: int, u: int, v: int) -> bool:
    """Directly verify one candidate decomposition W U V U / W U V ~U."""
    if kind not in ("spade", "club"):
        raise ValueError(f"kind must be spade or club, got {kind!r}")
    if u < 1 or w < 0 or v < 0 or w + 2 * u + v > len(prefix):
        return False
    seq = tuple(prefix)
    left = seq[w:w + u]
    right = seq[w + u + v:w + 2 * u + v]
    return right == left if kind == "spade" else right == left[::-1]


def _wmax(c_max: Fraction, u: int) -> int:
    # the largest admissible w (equally v): w/u <= c_max
    return c_max.numerator * u // c_max.denominator


def _tie_break_pairs(m: int):
    # pairs with max(w, v) == m, in lexicographic (w, v) order
    for w in range(m):
        yield w, m
    for v in range(m + 1):
        yield m, v


def _best_pair_naive(kind, seq, u, c_max):
    L = len(seq)
    cap = _wmax(c_max, u)
    for m in range(cap + 1):
        for w, v in _tie_break_pairs(m):
            if w + 2 * u + v > L:
                continue
            if check_witness(kind, seq, w, u, v):
                return w, v
    return None


def _text(seq) -> str:
    # one character per distinct symbol (by ==/hash): s[j:j+u] names block j
    ids = {}
    return "".join(chr(ids.setdefault(x, len(ids))) for x in seq)


class _BlockIndex:
    """Karp-Miller-Rosenberg names of the blocks of one power-of-two length.

    At `size` = 2^k, ns[j] names s[j:j+size] and nr[j] names r[j:j+size]
    (r = s[::-1]) in one name space, and occ[x] is the bitmask of the
    positions in s where the block named x starts.  A block of any length u
    with size <= u < 2*size is then named exactly by the names of its two
    overlapping halves.  Only the current level is kept.
    """

    def __init__(self, s: str, r: str):
        self.L = len(s)
        self.size = 1
        self.ns = [ord(x) for x in s]
        self.nr = [ord(x) for x in r]
        self.occ = self._masks(max(self.ns) + 1)

    def _masks(self, count: int) -> List[int]:
        occ = [0] * count  # a name only r has keeps an empty mask
        for j, x in enumerate(self.ns):
            occ[x] |= 1 << j
        return occ

    def reach(self, u: int) -> None:
        """Advance to the level with size <= u < 2*size."""
        while 2 * self.size <= u:
            h, ids = self.size, {}
            self.ns = [ids.setdefault(ab, len(ids))
                       for ab in zip(self.ns, self.ns[h:])]
            self.nr = [ids.setdefault(ab, len(ids))
                       for ab in zip(self.nr, self.nr[h:])]
            self.size = 2 * h
            self.occ = self._masks(len(ids))


def _best_pair_hashed(kind, index, u, cap):
    L = index.L
    index.reach(u)
    d = u - index.size  # the halves of a length-u block start at a and a+d
    names, occ = (index.ns if kind == "spade" else index.nr), index.occ
    # candidates compare by (max(w, v), w, v): u is fixed, so this is the
    # order of (max(w, v)/u, w, v)
    best = None
    for i in range(min(cap, L - 2 * u) + 1):  # i = w, the left block's start
        if best is not None and best[0] <= i:
            break  # later i cannot beat the current minimum
        a = i if kind == "spade" else L - i - u  # the block to find, in s or r
        js = (occ[names[a]] & (occ[names[a + d]] >> d)) >> (i + u)
        if js:  # the lowest bit is the first j >= i+u, which gives the least v
            v = (js & -js).bit_length() - 1
            cand = (max(i, v), i, v)
            if v <= cap and (best is None or cand < best):
                best = cand
    return None if best is None else best[1:]


def detect(kind: str, prefix: Sequence, c_max: Rational,
           min_witnesses: int = 1, method: str = "hashed") -> DetectionResult:
    """Find, for every block length u, the best admissible (w, v) pair.

    Returns the full exact profile plus the witness family (one witness per
    u that admits one, so u is strictly increasing).  The family is evidence
    for the prefix only; `min_witnesses` is the caller's bar for treating it
    as meaningful, recorded in the result rather than enforced.
    """
    if kind not in ("spade", "club"):
        raise ValueError(f"kind must be spade or club, got {kind!r}")
    if not prefix:
        raise ValueError("empty prefix")
    c_max = Fraction(c_max)
    if c_max < 0:
        raise ValueError("c_max must be >= 0")
    if method not in ("hashed", "naive"):
        raise ValueError(f"unknown method {method!r}")
    seq = tuple(prefix)
    L = len(seq)
    if method == "hashed":
        s = _text(seq)
        r = s[::-1]
        index = None  # built on the first u that needs more than (0, 0)

    profile, witnesses = [], []
    for u in range(1, L // 2 + 1):
        if method == "naive":
            pair = _best_pair_naive(kind, seq, u, c_max)
        elif s[u:2 * u] == (s[:u] if kind == "spade" else r[L - u:]):
            pair = (0, 0)  # the least key
        else:
            cap = _wmax(c_max, u)
            if cap:
                if index is None:
                    index = _BlockIndex(s, r)
                pair = _best_pair_hashed(kind, index, u, cap)
            else:
                pair = None
            if pair is None and cap >= L - 2 * u:
                # every pair that fits is admissible from here on, and a
                # witness at u' > u would cut down to one at u: none is left
                profile += [CProfileEntry(x, None, None)
                            for x in range(u, L // 2 + 1)]
                break
        if pair is None:
            profile.append(CProfileEntry(u, None, None))
            continue
        w, v = pair
        wit = Witness(kind, w, u, v, L)
        profile.append(CProfileEntry(u, wit.ratio, wit))
        witnesses.append(wit)
    return DetectionResult(kind, c_max, L, witnesses, profile, min_witnesses)


# -- prefix scans ---------------------------------------------------------------

def zarray(seq: Sequence) -> List[int]:
    """z[i] = length of the longest common prefix of seq and seq[i:]."""
    seq = tuple(seq)
    n = len(seq)
    z = [0] * n
    if n == 0:
        return z
    z[0] = n
    l = r = 0
    for i in range(1, n):
        if i < r:
            z[i] = min(r - i, z[i - l])
        while i + z[i] < n and seq[z[i]] == seq[i + z[i]]:
            z[i] += 1
        if i + z[i] > r:
            l, r = i, i + z[i]
    return z


@dataclass
class PrefixScan:
    longest_square_u: int
    longest_palindromic_prefix: int
    period_candidates: List[Tuple[int, int]]  # (preperiod, period)

    def to_json(self) -> dict:
        return {
            "longest_square_u": self.longest_square_u,
            "longest_palindromic_prefix": self.longest_palindromic_prefix,
            "period_candidates": [{"preperiod": r, "period": q}
                                  for r, q in self.period_candidates],
        }


def scan_special_prefixes(prefix: Sequence) -> PrefixScan:
    """Longest square prefix, longest palindromic prefix, and all
    (preperiod, period) pairs with period <= |prefix|/3 that describe the
    whole prefix with at least two full periods visible."""
    s = _text(prefix)
    L = len(s)
    r = s[::-1]
    z = zarray(s)
    square_u = max((u for u in range(1, L // 2 + 1) if z[u] >= u), default=0)
    pal = next((m for m in range(L, 0, -1) if s[:m] == r[L - m:]), 0)
    # the least preperiod for period q is L - q - zrev[q] (zrev[q] matching
    # letters run back from the end); two full periods need zrev[q] >= q
    zrev = zarray(r)
    candidates = [(L - q - zrev[q], q) for q in range(1, L // 3 + 1)
                  if zrev[q] >= q]
    return PrefixScan(square_u, pal, candidates)
