"""Command-line front end.

Rationals cross this boundary as "num/den" strings only; no decimals are
parsed, so nothing is silently rounded.  Identical inputs produce
byte-identical JSON.  Exit codes: 0 success, 2 input validation failure,
3 internal invariant violation (the failing identity report is dumped).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import combinatorics as comb
from .certify import certify as run_certify
from .cf import expand, eval_cf, verify_identities
from .floors import FloorFunction, validate_floor
from .padic import format_rational, parse_rational
from .quadratic import periodic_to_quadratic, verify_root
from .words import WordSpec


class InvariantViolation(RuntimeError):
    def __init__(self, report):
        super().__init__("internal invariant violation")
        self.report = report


def _load_floor(args) -> FloorFunction:
    name = args.floor
    if name in ("ruban", "browkin"):
        if args.p is None:
            raise ValueError("--p is required with a built-in floor")
        return FloorFunction(name, args.p)
    with open(name, encoding="utf-8") as fh:
        obj = json.load(fh)
    try:
        return FloorFunction.from_json(obj)
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed floor spec: {exc}") from exc


def _load_word(args) -> WordSpec:
    if getattr(args, "word", None):
        with open(args.word, encoding="utf-8") as fh:
            obj = json.load(fh)
        try:
            spec = WordSpec.from_json(obj)
            spec.stream()  # builds the generator, so bad params show here
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed word spec: {exc}") from exc
        return spec
    if not getattr(args, "gen", None):
        raise ValueError("one of --word or --gen is required")
    amap = None
    if getattr(args, "map", None):
        amap = {}
        for part in args.map.split(","):
            sym, _, val = part.partition("=")
            if not _:
                raise ValueError(f"bad --map entry {part!r}")
            amap[sym.strip()] = parse_rational(val)
    return WordSpec(args.gen, {}, amap)


def _parse_letters(text: str):
    return [parse_rational(tok) for tok in text.split(",") if tok.strip()]


def _emit(args, obj, text: str = None):
    if getattr(args, "format", "json") == "text" and text is not None:
        payload = text if text.endswith("\n") else text + "\n"
    else:
        payload = json.dumps(obj, indent=2) + "\n"
    out = getattr(args, "output", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _cap_length(args) -> int:
    length = args.length
    budget = getattr(args, "budget", None)
    if budget is None:
        return length
    if budget < 1:
        raise ValueError(f"--budget must be >= 1, got {budget}")
    return min(length, budget)


# -- subcommand bodies ---------------------------------------------------------

def _cmd_expand(args):
    floor = _load_floor(args)
    alpha = parse_rational(args.alpha)
    rec = expand(alpha, floor, args.max_terms)
    if len(rec.partial_quotients) >= 2:
        report = verify_identities(rec)
        if not report.all_passed:
            raise InvariantViolation(report.to_json())
    text = " ".join(format_rational(a) for a in rec.partial_quotients)
    _emit(args, rec.to_json(), text)


def _cmd_eval(args):
    word = _parse_letters(args.letters)
    value = eval_cf(word)
    _emit(args, {"value": format_rational(value)}, format_rational(value))


def _cmd_word(args):
    spec = _load_word(args)
    stream = spec.stream()
    letters = stream.prefix(args.length)
    _emit(args, {"word": spec.to_json(), "length": args.length,
                 "letters": letters}, "".join(letters))


def _cmd_complexity(args):
    spec = _load_word(args)
    prefix = spec.stream().prefix(_cap_length(args))
    if ":" in args.n:
        lo, hi = (int(x) for x in args.n.split(":"))
        ns = range(lo, hi + 1)
        # check the range before walking it: the first bad n is lo or L + 1
        L = len(prefix)
        for n in (lo, L + 1):
            if n in ns and not 1 <= n <= L:
                raise ValueError(f"need 1 <= n <= |prefix|, got n={n}, L={L}")
    else:
        ns = [int(args.n)]
    counts = [{"n": n, "count": comb.complexity(prefix, n)} for n in ns]
    _emit(args, {"word": spec.to_json(), "prefix_length": len(prefix),
                 "complexity": counts},
          "\n".join(f"p({c['n']}) = {c['count']}" for c in counts))


def _cmd_detect(args):
    spec = _load_word(args)
    prefix = spec.stream().prefix(_cap_length(args))
    result = comb.detect(args.kind, prefix, parse_rational(args.c_max),
                         args.min_witnesses)
    text = "\n".join(f"u={w.u} w={w.w} v={w.v}" for w in result.witnesses)
    _emit(args, result.to_json(), text or "(no witnesses)")


def _cmd_quadratic(args):
    cert = periodic_to_quadratic(_parse_letters(args.preperiod),
                                 _parse_letters(args.period))
    obj = cert.to_json()
    if args.verify_letters:
        if args.p is None:
            raise ValueError("--p is required with --verify-letters")
        check = verify_root(cert, args.verify_letters, args.p)
        obj = {**obj, "root_check": check.to_json()}
    _emit(args, obj,
          f"P(X) = ({format_rational(cert.a)}) X^2 - ({format_rational(cert.b)}) X "
          f"+ ({format_rational(cert.c)})")


def _cmd_floor_validate(args):
    floor = _load_floor(args)
    samples = _parse_letters(args.samples) if args.samples else \
        [Fraction(0), Fraction(7, 5), Fraction(-1, 5), Fraction(13),
         Fraction(2, 25), Fraction(-3), Fraction(1, 3)]
    report = validate_floor(floor, samples)
    _emit(args, report.to_json(),
          "all checks passed" if report.passed else
          "\n".join(f"{name} violated at {format_rational(q)}: {d}"
                    for name, q, d in report.violations))


def _cmd_certify(args):
    floor = _load_floor(args)
    spec = _load_word(args)
    certificate = run_certify(
        args.p, floor, spec.stream(), _cap_length(args),
        condition_hint=args.kind,
        c_hint=parse_rational(args.c) if args.c else None,
        c_max=parse_rational(args.c_max),
        min_witnesses=args.min_witnesses)
    _emit(args, certificate.to_json(),
          f"verdict: {certificate.verdict} (k = {certificate.required_k}, "
          f"min exponent = {certificate.min_letter_exponent})")


# -- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padiccf",
        description="Exact p-adic continued fractions and word certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--output", help="write to this path instead of stdout")
        sp.add_argument("--format", choices=("json", "text"), default="json")

    sp = sub.add_parser("expand", help="continued fraction expansion")
    sp.add_argument("--p", type=int)
    sp.add_argument("--floor", required=True, help="ruban | browkin | spec.json")
    sp.add_argument("--alpha", required=True, help='rational, e.g. "-3" or "24/73"')
    sp.add_argument("--max-terms", type=int, default=32, dest="max_terms")
    common(sp)
    sp.set_defaults(func=_cmd_expand)

    sp = sub.add_parser("eval", help="evaluate a finite word exactly")
    sp.add_argument("--letters", required=True,
                    help='comma-separated rationals, e.g. "0,8/3,8/3"')
    common(sp)
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("word", help="emit a word prefix")
    sp.add_argument("--gen", help="thue_morse | rudin_shapiro | paperfolding | fibonacci")
    sp.add_argument("--word", help="WordSpec JSON path")
    sp.add_argument("--map", help='alphabet map, e.g. "a=8/3,b=5/3"')
    sp.add_argument("--length", type=int, required=True)
    common(sp)
    sp.set_defaults(func=_cmd_word)

    sp = sub.add_parser("complexity", help="distinct factors of a prefix")
    sp.add_argument("--gen")
    sp.add_argument("--word")
    sp.add_argument("--map")
    sp.add_argument("--length", type=int, required=True)
    sp.add_argument("--n", required=True, help='block length, or a range "8:12"')
    sp.add_argument("--budget", type=int, help="prefix length cap")
    common(sp)
    sp.set_defaults(func=_cmd_complexity)

    sp = sub.add_parser("detect", help="prefix repetition/mirror witnesses")
    sp.add_argument("--kind", choices=("spade", "club"), required=True)
    sp.add_argument("--gen")
    sp.add_argument("--word")
    sp.add_argument("--map")
    sp.add_argument("--length", type=int, required=True)
    sp.add_argument("--c-max", default="2", dest="c_max")
    sp.add_argument("--min-witnesses", type=int, default=1, dest="min_witnesses")
    sp.add_argument("--budget", type=int, help="prefix length cap")
    common(sp)
    sp.set_defaults(func=_cmd_detect)

    sp = sub.add_parser("quadratic", help="periodic word to quadratic certificate")
    sp.add_argument("--preperiod", required=True, help='e.g. "0"')
    sp.add_argument("--period", required=True, help='e.g. "8/3"')
    sp.add_argument("--p", type=int)
    sp.add_argument("--verify-letters", type=int, dest="verify_letters",
                    help="evaluate P at the truncation with this many letters")
    common(sp)
    sp.set_defaults(func=_cmd_quadratic)

    sp = sub.add_parser("floor-validate", help="check the floor axioms on samples")
    sp.add_argument("--p", type=int)
    sp.add_argument("--floor", required=True)
    sp.add_argument("--samples", help="comma-separated rationals")
    common(sp)
    sp.set_defaults(func=_cmd_floor_validate)

    sp = sub.add_parser("certify", help="assemble hypothesis evidence")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--floor", required=True)
    sp.add_argument("--gen")
    sp.add_argument("--word")
    sp.add_argument("--map")
    sp.add_argument("--length", type=int, required=True)
    sp.add_argument("--kind", choices=("spade", "club"))
    sp.add_argument("--c", help="condition constant hint")
    sp.add_argument("--c-max", default="2", dest="c_max")
    sp.add_argument("--min-witnesses", type=int, default=3, dest="min_witnesses")
    sp.add_argument("--budget", type=int, help="prefix length cap")
    common(sp)
    sp.set_defaults(func=_cmd_certify)

    return parser


# options whose value is a rational or a list of rationals, so may start with "-"
_RATIONAL_OPTIONS = ("--alpha", "--letters", "--preperiod", "--period")


def _option_names(parser):
    """Every option string of the parser and of its subcommands."""
    names = set()
    for action in parser._actions:
        names.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sp in action.choices.values():
                names |= _option_names(sp)
    return names


def _rational_option(tok, options):
    """Whether tok names a rational option in full or as an unambiguous
    prefix, argparse's abbreviation rule, without naming another option."""
    if tok in _RATIONAL_OPTIONS:
        return True
    return (tok.startswith("--") and tok not in options
            and sum(o.startswith(tok) for o in _RATIONAL_OPTIONS) == 1)


def _attach_negative_values(argv, options):
    """Rewrite "--alpha -3/5" (or "--alp -3/5") as "--alpha=-3/5".

    argparse reads a separate token such as "-3/5" as an unknown option,
    because only plain negative numbers are recognised as values.
    """
    out = []
    for tok in argv:
        if (out and _rational_option(out[-1], options) and len(tok) > 1
                and tok[0] == "-" and tok[1].isdigit()):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(
            _attach_negative_values(argv, _option_names(parser)))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.func(args)
    except InvariantViolation as exc:
        sys.stderr.write(json.dumps(exc.report, indent=2) + "\n")
        sys.stderr.write("error: internal invariant violation\n")
        return 3
    except AssertionError as exc:
        sys.stderr.write(f"error: internal invariant violation: {exc}\n")
        return 3
    except (ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
