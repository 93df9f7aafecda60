"""p-adic floor functions: Ruban, Browkin, and finite custom remaps.

A floor function sends Q_p -> Z[1/p], fixes 0, moves every input by a
p-adic distance < 1, and is constant on open unit balls.  The two built-ins
truncate the Hensel expansion at position 0 using digit representatives in
[0, p-1] (Ruban) or [-(p-1)/2, (p-1)/2] (Browkin).  A custom floor rewrites
finitely many residue classes, falling back to a built-in elsewhere; this is
enough to realise any alternative choice of class representatives without
giving up a serialisable description.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .padic import (
    Rational,
    format_rational,
    in_z_one_over_p,
    parse_rational,
    require_odd_prime,
    vp,
)

__all__ = [
    "FloorFunction",
    "FloorValidationReport",
    "browkin_floor",
    "ruban_floor",
    "validate_floor",
]


def _window(q: Rational, p: int):
    """(r, p^k) with k = max(-vp(q), 0) and r = q*p^k mod p^(k+1) in [0, p^(k+1)).

    r/p^k is the sum of the Hensel digits of q at positions -k..0, so one
    modular inverse replaces the digit-by-digit extraction.  For vp(q) >= 1
    (q = 0 included) r is 0.
    """
    q = Fraction(q)
    num, den = q.numerator, q.denominator
    pk = 1
    while den % p == 0:
        den //= p
        pk *= p
    m = pk * p
    return num * pow(den, -1, m) % m, pk


def ruban_floor(q: Rational, p: int) -> Fraction:
    """Sum of the Hensel digits of q at positions min(vp(q), 0) .. 0.

    For vp(q) >= 1 the window is empty and the floor is 0; this is the one
    extension of the digit formula compatible with s(0) = 0 and constancy on
    unit balls.
    """
    r, pk = _window(q, p)
    return Fraction(r, pk)


def browkin_floor(q: Rational, p: int) -> Fraction:
    """Like :func:`ruban_floor` but with balanced digits.

    Each digit is taken in [-(p-1)/2, (p-1)/2].  With k+1 such digits the
    scaled sum r = s*p^k runs over the integers of (-p^(k+1)/2, p^(k+1)/2),
    one per residue class mod p^(k+1), so the floor is the balanced lift of
    the Ruban residue.
    """
    r, pk = _window(q, p)
    m = pk * p
    if r > m // 2:
        r -= m
    return Fraction(r, pk)


_BUILTINS = {"ruban": ruban_floor, "browkin": browkin_floor}


@dataclass(frozen=True)
class FloorFunction:
    """A validated floor-function description; immutable once built.

    ``remap`` pairs a canonical Ruban representative (the class key) with the
    chosen representative of the same class; unmapped classes fall back to
    ``default`` ("ruban" or "browkin").
    """

    kind: str
    p: int
    remap: tuple = ()
    default: str = "ruban"
    _table: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        require_odd_prime(self.p)
        if self.kind in _BUILTINS:
            if self.remap:
                raise ValueError(f"{self.kind} floor takes no remap table")
            return
        if self.kind != "custom":
            raise ValueError(f"unknown floor kind {self.kind!r}")
        if self.default not in _BUILTINS:
            raise ValueError(f"unknown default floor {self.default!r}")
        table = {}
        for cls, rep in self.remap:
            cls, rep = Fraction(cls), Fraction(rep)
            if ruban_floor(cls, self.p) != cls:
                raise ValueError(
                    f"remap key {cls} is not a canonical representative")
            if not in_z_one_over_p(rep, self.p):
                raise ValueError(f"representative {rep} is not in Z[1/{self.p}]")
            if vp(rep - cls, self.p) < 1:
                raise ValueError(
                    f"representative {rep} is not in the class of {cls}: "
                    f"vp(rep - class) = {vp(rep - cls, self.p)} < 1")
            if cls == 0 and rep != 0:
                raise ValueError("the class of 0 must map to 0")
            table[cls] = rep
        object.__setattr__(self, "_table", table)

    # -- constructors

    @classmethod
    def ruban(cls, p: int) -> "FloorFunction":
        return cls("ruban", p)

    @classmethod
    def browkin(cls, p: int) -> "FloorFunction":
        return cls("browkin", p)

    @classmethod
    def custom(cls, p: int, remap, default: str = "ruban") -> "FloorFunction":
        remap = tuple((Fraction(a), Fraction(b)) for a, b in remap)
        return cls("custom", p, remap, default)

    # -- application

    def apply(self, q: Rational) -> Fraction:
        q = Fraction(q)
        if self.kind in _BUILTINS:
            return _BUILTINS[self.kind](q, self.p)
        key = ruban_floor(q, self.p)
        if key in self._table:
            return self._table[key]
        return _BUILTINS[self.default](q, self.p)

    __call__ = apply

    # -- wire format

    def to_json(self) -> dict:
        obj = {"kind": self.kind, "p": self.p}
        if self.kind == "custom":
            obj["remap"] = [{"class": format_rational(a), "rep": format_rational(b)}
                            for a, b in self.remap]
            obj["default"] = self.default
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "FloorFunction":
        kind = obj["kind"]
        p = int(obj["p"])
        if kind in _BUILTINS:
            return cls(kind, p)
        remap = tuple((parse_rational(e["class"]), parse_rational(e["rep"]))
                      for e in obj.get("remap", ()))
        return cls(kind, p, remap, obj.get("default", "ruban"))


@dataclass
class FloorValidationReport:
    p: int
    kind: str
    samples_checked: int
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "kind": self.kind,
            "samples_checked": self.samples_checked,
            "passed": self.passed,
            "violations": [
                {"check": name, "input": format_rational(q), "detail": detail}
                for name, q, detail in self.violations
            ],
        }


def validate_floor(s: FloorFunction, samples, rng: Optional[random.Random] = None,
                   class_probes: int = 4) -> FloorValidationReport:
    """Check the floor-function axioms on the given sample inputs.

    Per sample q: the output moves q by p-adic distance < 1, lands in
    Z[1/p], agrees on randomized points q + p*t of the same unit ball, and
    s(0) = 0.  Violations are reported with their witnessing input; they are
    report content, not exceptions.
    """
    rng = rng or random.Random(0)
    violations = []
    if s.apply(0) != 0:
        violations.append(("zero-fixed", Fraction(0), f"s(0) = {s.apply(0)}"))
    samples = [Fraction(q) for q in samples]
    for q in samples:
        fq = s.apply(q)
        if not (vp(q - fq, s.p) >= 1):
            violations.append(
                ("distance", q, f"vp(q - s(q)) = {vp(q - fq, s.p)} < 1"))
        if not in_z_one_over_p(fq, s.p):
            violations.append(("image", q, f"s(q) = {fq} not in Z[1/{s.p}]"))
        for _ in range(class_probes):
            num = rng.randint(-999, 999)
            den = rng.randint(1, 999)
            while den % s.p == 0:
                den = rng.randint(1, 999)
            t = Fraction(num, den)  # vp(t) >= 0
            if s.apply(q + s.p * t) != fq:
                violations.append(
                    ("class-consistency", q,
                     f"s(q) = {fq} but s(q + {s.p}*{t}) = {s.apply(q + s.p * t)}"))
                break
    return FloorValidationReport(s.p, s.kind, len(samples), violations)
