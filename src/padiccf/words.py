"""Lazy generators for the word families used as partial-quotient sources.

Every stream exposes letter(n) for n >= 1, pure and reproducible, with
letter(1) the first letter of the word as conventionally displayed.  Symbols
are short strings; an alphabet map sends them to values in Z[1/p] when a
word is used as partial quotients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .padic import format_rational, parse_rational, vp

__all__ = [
    "DFAO",
    "LetterStream",
    "WordSpec",
    "dfao_eval",
    "fibonacci_letter",
    "paperfolding_letter",
    "rudin_shapiro_letter",
    "thue_morse_letter",
    "GENERATORS",
]


# -- automatic sequences (closed forms) ---------------------------------------

def thue_morse_letter(n: int) -> str:
    """'a' when the binary weight of n is even (sequence indexed from 0)."""
    return "a" if bin(n).count("1") % 2 == 0 else "b"


def rudin_shapiro_letter(n: int) -> str:
    """'a' when the count of (possibly overlapping) 11 blocks in binary n
    is even (sequence indexed from 0)."""
    b = bin(n)[2:]
    pairs = sum(1 for i in range(len(b) - 1) if b[i] == b[i + 1] == "1")
    return "a" if pairs % 2 == 0 else "b"


def paperfolding_letter(n: int) -> str:
    """'a' when the odd part of n is 1 mod 4 (sequence indexed from 1)."""
    if n < 1:
        raise ValueError("paperfolding sequence starts at n = 1")
    while n % 2 == 0:
        n //= 2
    return "a" if n % 4 == 1 else "b"


_SQRT5 = 5


def _floor_n_phi(n: int) -> int:
    # floor(n*(1+sqrt(5))/2) = floor((n + isqrt(5 n^2)) / 2), exact because
    # 5 n^2 is never a perfect square for n >= 1
    return (n + math.isqrt(_SQRT5 * n * n)) // 2


def fibonacci_letter(n: int) -> str:
    """Letter n >= 1 of 0100101001..., via 2 + floor(n*phi) - floor((n+1)*phi)."""
    if n < 1:
        raise ValueError("fibonacci word starts at n = 1")
    value = 2 + _floor_n_phi(n) - _floor_n_phi(n + 1)
    return str(value)


# -- DFAO ---------------------------------------------------------------------

@dataclass(frozen=True)
class DFAO:
    """Deterministic finite automaton with output, fed base-k digits of n
    most-significant-digit first; n = 0 reads the empty string."""

    base: int
    transitions: Tuple[Tuple[int, ...], ...]  # [state][digit] -> state
    outputs: Tuple[str, ...]
    initial: int = 0

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be >= 2")
        n_states = len(self.transitions)
        if len(self.outputs) != n_states:
            raise ValueError("one output per state required")
        if not (0 <= self.initial < n_states):
            raise ValueError("initial state out of range")
        for row in self.transitions:
            if len(row) != self.base:
                raise ValueError(f"transition row {row} is not total on digits")
            if any(not (0 <= t < n_states) for t in row):
                raise ValueError(f"transition row {row} leaves the state set")

    def eval(self, n: int) -> str:
        if n < 0:
            raise ValueError("index must be nonnegative")
        digits = []
        while n:
            n, d = divmod(n, self.base)
            digits.append(d)
        state = self.initial
        for d in reversed(digits):
            state = self.transitions[state][d]
        return self.outputs[state]

    def to_json(self) -> dict:
        return {"base": self.base,
                "states": list(range(len(self.transitions))),
                "initial": self.initial,
                "transitions": [list(r) for r in self.transitions],
                "outputs": list(self.outputs)}

    @classmethod
    def from_json(cls, obj: dict) -> "DFAO":
        return cls(int(obj["base"]),
                   tuple(tuple(r) for r in obj["transitions"]),
                   tuple(obj["outputs"]),
                   int(obj.get("initial", 0)))


def dfao_eval(machine: DFAO, n: int) -> str:
    return machine.eval(n)


THUE_MORSE_DFAO = DFAO(base=2, transitions=((0, 1), (1, 0)), outputs=("a", "b"))


# -- exact Sturmian floors ----------------------------------------------------

@dataclass(frozen=True)
class QuadraticSlope:
    """(a + b*sqrt(d)) / c with d > 0 a non-square, so the slope is an exactly
    representable irrational.  Floors of n*slope + beta are decided by integer
    square-root comparisons; no floating point is consulted, which is what
    keeps boundary cases sound."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.c == 0:
            raise ValueError("zero denominator")
        if self.d <= 0 or math.isqrt(self.d) ** 2 == self.d:
            raise ValueError("d must be a positive non-square")
        if self.b == 0:
            raise ValueError("slope must be irrational (b != 0)")

    def in_unit_interval(self) -> bool:
        return (_cmp_int_vs_surd(0, self.a, self.b, self.d) < 0) == (self.c > 0) \
            and (_cmp_int_vs_surd(self.c, self.a, self.b, self.d) > 0) == (self.c > 0)

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}


def _cmp_int_vs_surd(k: int, a: int, b: int, d: int) -> int:
    """sign of k - (a + b*sqrt(d)), exactly."""
    # compare (k - a) with b*sqrt(d)
    lhs = k - a
    if b == 0:
        return (lhs > 0) - (lhs < 0)
    if b > 0:
        if lhs <= 0:
            return -1
        return (lhs * lhs > b * b * d) - (lhs * lhs < b * b * d)
    if lhs >= 0:
        return 1
    return (lhs * lhs < b * b * d) - (lhs * lhs > b * b * d)


def floor_linear_in_slope(slope: QuadraticSlope, n: int, beta: Fraction) -> int:
    """floor(n*slope + beta), exact.  n*slope + beta = (A + B*sqrt(d))/C."""
    beta = Fraction(beta)
    # common denominator C > 0
    C = slope.c * beta.denominator
    A = n * slope.a * beta.denominator + beta.numerator * slope.c
    B = n * slope.b * beta.denominator
    if C < 0:
        A, B, C = -A, -B, -C
    # bracket A + B*sqrt(d) within an integer window of width 2
    s = math.isqrt(B * B * slope.d)
    low = A + (s if B >= 0 else -s - 1)
    for m in (low // C, (low + 1) // C, (low + 2) // C):
        # m is the floor iff m*C <= A + B*sqrt(d) < (m+1)*C
        if (_cmp_int_vs_surd(m * C, A, B, slope.d) <= 0
                and _cmp_int_vs_surd((m + 1) * C, A, B, slope.d) > 0):
            return m
    raise AssertionError("floor bracketing failed")  # unreachable


# -- materialising generators --------------------------------------------------

class _Materialized:
    """Base for generators that grow an explicit prefix on demand."""

    def __init__(self):
        self._letters: List[str] = []

    def _grow(self):
        raise NotImplementedError

    def letter(self, n: int) -> str:
        if n < 1:
            raise ValueError("letters are indexed from 1")
        while n > len(self._letters):
            before = len(self._letters)
            self._grow()
            if len(self._letters) <= before:
                raise ValueError("generator exhausted")
        return self._letters[n - 1]


class _PalindromicClosure(_Materialized):
    """T_{n+1} = T_n R_{n+1} reversed(T_n R_{n+1}), from a seed list.

    The seed list supplies R_0, R_1, ...; with periodic_seeds the list is
    cycled forever, otherwise the word is the finite T_N of the last seed.
    """

    def __init__(self, seeds: Sequence[Sequence[str]], periodic_seeds: bool = True):
        super().__init__()
        if not seeds or any(not s for s in seeds):
            raise ValueError("seeds must be nonempty words")
        self._seeds = [list(s) for s in seeds]
        self._periodic = periodic_seeds
        self._stage = 0
        self._letters = list(self._seeds[0])

    def _seed(self, i: int) -> Optional[List[str]]:
        if i < len(self._seeds):
            return self._seeds[i]
        if self._periodic:
            return self._seeds[i % len(self._seeds)]
        return None

    def _grow(self):
        nxt = self._seed(self._stage + 1)
        if nxt is None:
            return
        block = self._letters + nxt
        self._letters = block + block[::-1]
        self._stage += 1


class _SquareBlocks(_Materialized):
    """0^i 1^i adjoined for i = 1, 2, 3, ...; a two-letter word that fails
    both prefix-repetition conditions (the gap before any repeat outgrows
    the repeat itself)."""

    def __init__(self):
        super().__init__()
        self._i = 0

    def _grow(self):
        self._i += 1
        self._letters.extend(["0"] * self._i + ["1"] * self._i)


class _MirroredBlocks(_Materialized):
    """beta_i = 0 1^i grouped as beta_{2^n}..beta_{2^{n+1}-1} followed by the
    reversals in reverse order; mirrored-prefix structure without squares."""

    def __init__(self):
        super().__init__()
        self._n = 0

    @staticmethod
    def _beta(i: int) -> List[str]:
        return ["0"] + ["1"] * i

    def _grow(self):
        lo, hi = 2 ** self._n, 2 ** (self._n + 1) - 1
        group: List[str] = []
        for i in range(lo, hi + 1):
            group.extend(self._beta(i))
        mirror: List[str] = []
        for i in range(hi, lo - 1, -1):
            mirror.extend(self._beta(i)[::-1])
        self._letters.extend(group + mirror)
        self._n += 1


# -- word specs and streams ----------------------------------------------------

GENERATORS = ("thue_morse", "rudin_shapiro", "paperfolding", "fibonacci",
              "sturmian", "dfao", "periodic", "palindromic_closure",
              "block_staircase", "explicit")


@dataclass(frozen=True)
class WordSpec:
    """Declarative description of an infinite (or explicit finite) word."""

    generator: str
    params: dict = field(default_factory=dict)
    alphabet_map: Optional[Dict[str, Fraction]] = None

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        if self.alphabet_map is not None:
            values = list(self.alphabet_map.values())
            if len(set(values)) != len(values):
                raise ValueError("alphabet_map values must be pairwise distinct")

    def stream(self) -> "LetterStream":
        return LetterStream(self)

    def to_json(self) -> dict:
        obj = {"generator": self.generator}
        if self.params:
            params = dict(self.params)
            if isinstance(params.get("dfao"), DFAO):
                params["dfao"] = params["dfao"].to_json()
            if isinstance(params.get("slope"), QuadraticSlope):
                params["slope"] = params["slope"].to_json()
            if isinstance(params.get("intercept"), Fraction):
                params["intercept"] = format_rational(params["intercept"])
            obj["params"] = params
        if self.alphabet_map is not None:
            obj["alphabet_map"] = {k: format_rational(v)
                                   for k, v in self.alphabet_map.items()}
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "WordSpec":
        params = dict(obj.get("params", {}))
        amap = obj.get("alphabet_map")
        if amap is not None:
            amap = {k: parse_rational(v) for k, v in amap.items()}
        return cls(obj["generator"], params, amap)


class LetterStream:
    """Deterministic accessor for the letters of a WordSpec."""

    def __init__(self, spec: WordSpec):
        self.spec = spec
        g, params = spec.generator, spec.params
        if g == "thue_morse":
            self._letter = lambda n: thue_morse_letter(n - 1)
        elif g == "rudin_shapiro":
            self._letter = lambda n: rudin_shapiro_letter(n - 1)
        elif g == "paperfolding":
            self._letter = paperfolding_letter
        elif g == "fibonacci":
            self._letter = fibonacci_letter
        elif g == "sturmian":
            slope = params["slope"]
            if not isinstance(slope, QuadraticSlope):
                slope = QuadraticSlope(**slope)
            if not slope.in_unit_interval():
                raise ValueError("sturmian slope must lie in (0, 1)")
            beta = params.get("intercept", Fraction(0))
            if isinstance(beta, str):
                beta = parse_rational(beta)
            beta = Fraction(beta)

            def sturmian(n, slope=slope, beta=beta):
                step = (floor_linear_in_slope(slope, n + 1, beta)
                        - floor_linear_in_slope(slope, n, beta))
                return "a" if step == 0 else "b"

            self._letter = sturmian
        elif g == "dfao":
            machine = params["dfao"]
            if not isinstance(machine, DFAO):
                machine = DFAO.from_json(machine)
            self._letter = lambda n: machine.eval(n - 1)
        elif g == "periodic":
            period = [str(x) for x in params["period"]]
            if not period:
                raise ValueError("empty period")
            self._letter = lambda n: period[(n - 1) % len(period)]
        elif g == "explicit":
            letters = [str(x) for x in params["letters"]]

            def explicit(n, letters=letters):
                if n > len(letters):
                    raise ValueError(f"explicit word has only {len(letters)} letters")
                return letters[n - 1]

            self._letter = explicit
        elif g == "palindromic_closure":
            gen = _PalindromicClosure(params["seeds"],
                                      params.get("periodic_seeds", True))
            self._letter = gen.letter
        elif g == "block_staircase":
            variant = params.get("variant", "square_blocks")
            if variant == "square_blocks":
                gen = _SquareBlocks()
            elif variant == "mirrored_blocks":
                gen = _MirroredBlocks()
            else:
                raise ValueError(f"unknown block_staircase variant {variant!r}")
            self._letter = gen.letter
        else:  # pragma: no cover
            raise ValueError(g)

    def letter(self, n: int) -> str:
        if n < 1:
            raise ValueError("letters are indexed from 1")
        return self._letter(n)

    def prefix(self, length: int) -> List[str]:
        if length < 0:
            raise ValueError("length must be >= 0")
        return [self.letter(n) for n in range(1, length + 1)]

    def _symbol_value(self, sym: str) -> Fraction:
        if self.spec.alphabet_map is not None:
            try:
                return Fraction(self.spec.alphabet_map[sym])
            except KeyError:
                raise ValueError(f"symbol {sym!r} missing from alphabet_map")
        return parse_rational(sym)

    def value(self, n: int) -> Fraction:
        return self._symbol_value(self.letter(n))

    def values(self, length: int, p: Optional[int] = None,
               require_partial_quotients: bool = False,
               symbols: Optional[Sequence[str]] = None) -> List[Fraction]:
        """Mapped values of the first `length` letters.

        With require_partial_quotients, every value must satisfy |v|_p > 1
        so the word can serve as the tail a_1 a_2 ... of an expansion.
        A caller that already holds prefix(length) passes it as `symbols`,
        so the word is generated once.
        """
        if symbols is None:
            symbols = self.prefix(length)
        elif len(symbols) != length:
            raise ValueError(f"got {len(symbols)} symbols for length {length}")
        # one value per distinct symbol, in first-seen order, so the first
        # missing symbol and the first bad value are reported by position
        table = {sym: self._symbol_value(sym) for sym in dict.fromkeys(symbols)}
        if require_partial_quotients:
            if p is None:
                raise ValueError("p required for partial-quotient validation")
            for v in dict.fromkeys(table.values()):
                if v == 0 or not (vp(v, p) <= -1):
                    raise ValueError(
                        f"value {format_rational(v)} is not a valid partial "
                        f"quotient: |.|_{p} <= 1")
        return [table[sym] for sym in symbols]
