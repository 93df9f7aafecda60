"""The three seeded workloads: corpora, ops and output checks.

Every workload is a closed loop with one client: the next op starts when the
previous one returns.  Inputs come only from the seed; ops reach the library
through module attributes (``M.cf.expand``), so the tracer's rebinding sees
every call.  Corpora are stratified -- every seed has the same mix of word
families, primes, hints and sizes, and the seed only picks letters, slopes,
periods and rationals -- so the cost of one pass barely moves with the seed.
"""

from __future__ import annotations

import importlib
import json
import math
from fractions import Fraction
from types import SimpleNamespace

from spans import MODULES

M = SimpleNamespace(**{m: importlib.import_module("padiccf." + m)
                       for m in MODULES})


def _dump(obj) -> str:
    """JSON exactly as the padiccf CLI writes it to stdout."""
    return json.dumps(obj, indent=2) + "\n"


def _fmt(q) -> str:
    return M.padic.format_rational(q)


def valid_letter(rng, p, floor_kind, depth, leading_only=False) -> Fraction:
    """A fixed point of the floor with vp = -depth: digits at -depth..0."""
    half = (p - 1) // 2
    while True:
        if floor_kind == "ruban":
            digits = [rng.randrange(p) for _ in range(depth + 1)]
        else:
            digits = [rng.randint(-half, half) for _ in range(depth + 1)]
        if leading_only:
            digits[1:] = [0] * depth
        if digits[0] != 0:
            return sum((Fraction(d) * Fraction(p) ** n
                        for n, d in zip(range(-depth, 1), digits)),
                       Fraction(0))


def _letter_pair(rng, p, floor_kind, depths, leading_only=False):
    a = valid_letter(rng, p, floor_kind, depths[0], leading_only)
    while True:
        b = valid_letter(rng, p, floor_kind, depths[1], leading_only)
        if b != a:
            return a, b


def seeded_slope(rng) -> dict:
    """(sqrt(d) - floor(sqrt(d))) / c, an irrational slope in (0, 1)."""
    while True:
        d = rng.randint(2, 40)
        s = math.isqrt(d)
        if s * s != d:
            return {"a": -s, "b": 1, "c": rng.randint(1, 2), "d": d}


def _is_primitive(word) -> bool:
    n = len(word)
    return all(word != word[k:] + word[:k] for k in range(1, n))


def _witness_failures(witnesses, symbols):
    """witnesses: (kind, w, u, v) tuples found on the prefix `symbols`."""
    seq = tuple(symbols)
    return [f"witness {w} fails check_witness" for w in witnesses
            if not M.combinatorics.check_witness(w[0], seq, *w[1:])]


class Workload:
    """Hooks every workload provides; the defaults do nothing."""

    growth_reps = 3  # reps of the growth_exp measurement

    def prepare(self, items, rng):
        """Seeded choices made once the corpus exists."""

    def verdict(self, out):
        """A label counted over first outputs, or None."""
        return None


# -- certify-corpus -----------------------------------------------------------

CERT_LENGTH = 512
CERT_FAMILIES = {"thue_morse": ("a", "b"), "rudin_shapiro": ("a", "b"),
                 "paperfolding": ("a", "b"), "fibonacci": ("0", "1"),
                 "sturmian": ("a", "b")}
HINTS = (None, "spade", "club")


class CertifyCorpus(Workload):
    """certify() on two-letter words at L = 512, serialised as the CLI does.

    Per (family, p) one of the three hints, chosen by the seed, gets depth-3
    letters with a single nonzero digit: their archimedean size is tiny, so
    required_k is 1 and those certificates are evidenced; the other letters
    (seeded depth 1-3) mostly fail on the k-exponent.  Both verdicts occur
    under every seed.
    """

    name = "certify-corpus"
    size_name = "L"
    base_size = CERT_LENGTH
    growth_keys = (("thue_morse", 3, "spade"), ("fibonacci", 5, "club"))
    cli_keys = (("sturmian", 3, "club"), ("thue_morse", 5, "spade"),
                ("fibonacci", 7, None))

    def build(self, rng):
        items = []
        for family, symbols in CERT_FAMILIES.items():
            for p in (3, 5, 7):
                small = rng.choice(HINTS)
                for hint in HINTS:
                    floor_kind = rng.choice(("ruban", "browkin"))
                    if hint == small:
                        letters = _letter_pair(rng, p, floor_kind, (3, 3),
                                               leading_only=True)
                    else:
                        depths = (rng.randint(1, 3), rng.randint(1, 3))
                        letters = _letter_pair(rng, p, floor_kind, depths)
                    spec = {"generator": family}
                    if family == "sturmian":
                        spec["params"] = {"slope": seeded_slope(rng)}
                    spec["alphabet_map"] = {s: _fmt(v)
                                            for s, v in zip(symbols, letters)}
                    items.append({
                        "key": (family, p, hint), "p": p, "hint": hint,
                        "floor": M.floors.FloorFunction(floor_kind, p),
                        "spec": spec,
                        "word": M.words.WordSpec.from_json(spec)})
        return items

    def op(self, item, scale=1):
        cert = M.certify.certify(item["p"], item["floor"],
                                 item["word"].stream(), CERT_LENGTH * scale,
                                 condition_hint=item["hint"])
        return _dump(cert.to_json())

    def canonical(self, item, out) -> str:
        return out

    def check(self, item, out, scale=1):
        obj = json.loads(out)
        fails = []
        if obj["scope"] != "evidence-only":
            fails.append(f"scope is {obj['scope']!r}")
        symbols = item["word"].stream().prefix(CERT_LENGTH * scale)
        fails += _witness_failures(
            [(w["kind"], w["w"], w["u"], w["v"]) for w in obj["witnesses"]],
            symbols)
        return fails

    def growth_items(self, items):
        return [it for it in items if it["key"] in self.growth_keys]

    def verdict(self, out):
        return json.loads(out)["verdict"]

    def cli_cases(self, items, spec_dir):
        """(CLI argv, in-process callable giving the expected stdout)."""
        by_key = {it["key"]: it for it in items}
        cases = []
        for key in self.cli_keys:
            it = by_key[key]
            family, p, hint = key
            argv = ["certify", "--p", str(p), "--floor", it["floor"].kind]
            if family == "sturmian":
                path = spec_dir / f"certify-{family}-{p}.json"
                path.write_text(json.dumps(it["spec"]), encoding="utf-8")
                argv += ["--word", str(path)]
            else:
                amap = ",".join(f"{s}={v}"
                                for s, v in it["spec"]["alphabet_map"].items())
                argv += ["--gen", family, "--map", amap]
            argv += ["--length", str(CERT_LENGTH)]
            if hint:
                argv += ["--kind", hint]
            cases.append((argv, lambda it=it: self.op(it)))
        return cases


# -- expand-verify ------------------------------------------------------------

RUBAN_TERMS = 120
BROWKIN_TERMS = 60
LADDER_STEPS = 8


class ExpandVerify(Workload):
    """Expansions, the identity battery, quadratic certificates, mirror laws.

    One op: expand a seeded rational under Ruban's floor to 120 terms and
    verify it; expand it under Browkin's floor (it terminates) and verify;
    build the quadratic certificate of a seeded periodic word and walk a
    verify_root ladder one period at a time; check a seeded palindrome.
    """

    name = "expand-verify"
    size_name = "ruban_terms"
    base_size = RUBAN_TERMS

    def build(self, rng):
        items = []
        for i in range(45):
            p = (3, 5, 7)[i % 3]
            inside = (i // 3) % 2 == 0  # alpha in pZ_p, or outside it
            while True:
                den = rng.randint(1, 10 ** 6)
                num = rng.randint(1, 10 ** 6) * rng.choice((1, -1))
                if inside:
                    num *= p
                    if den % p:
                        break
                elif num % p:
                    break
            ruban = M.floors.FloorFunction("ruban", p)
            pre = [Fraction(0)] + [valid_letter(rng, p, "ruban",
                                                rng.randint(1, 3))
                                   for _ in range(rng.randint(0, 3))]
            per = [valid_letter(rng, p, "ruban", rng.randint(1, 3))
                   for _ in range(rng.randint(1, 4))]
            half = [valid_letter(rng, p, "ruban", rng.randint(1, 3))
                    for _ in range(rng.randint(6, 10))]
            middle = [valid_letter(rng, p, "ruban", 1)] if i % 2 else []
            items.append({
                "key": i, "p": p, "alpha": Fraction(num, den),
                "ruban": ruban,
                "browkin": M.floors.FloorFunction("browkin", p),
                "pre": pre, "per": per,
                "ladder": [len(pre) + k * len(per)
                           for k in range(1, LADDER_STEPS + 1)],
                "palindrome": half + middle + half[::-1]})
        return items

    def op(self, item, scale=1):
        p = item["p"]
        ruban = M.cf.expand(item["alpha"], item["ruban"], RUBAN_TERMS * scale)
        browkin = M.cf.expand(item["alpha"], item["browkin"], BROWKIN_TERMS)
        cert = M.quadratic.periodic_to_quadratic(item["pre"], item["per"])
        return {
            "ruban": ruban,
            "ruban_report": M.cf.verify_identities(ruban),
            "browkin": browkin,
            "browkin_report": (M.cf.verify_identities(browkin)
                               if len(browkin.partial_quotients) >= 2
                               else None),
            "quadratic": cert,
            "ladder": [M.quadratic.verify_root(cert, n, p)
                       for n in item["ladder"]],
            "symmetry": M.quadratic.palindrome_symmetry(item["palindrome"],
                                                        item["ruban"]),
            "reversal": M.quadratic.reversal_quotient(
                [Fraction(0)] + item["palindrome"]),
        }

    def canonical(self, item, out) -> str:
        symmetric, witness = out["symmetry"]
        report = out["browkin_report"]
        return _dump({
            "ruban": out["ruban"].to_json(),
            "ruban_report": out["ruban_report"].to_json(),
            "browkin": out["browkin"].to_json(),
            "browkin_report": None if report is None else report.to_json(),
            "quadratic": out["quadratic"].to_json(),
            "ladder": [rc.to_json() for rc in out["ladder"]],
            "symmetry": {"symmetric": symmetric, **witness},
            "reversal": _fmt(out["reversal"]),
        })

    def check(self, item, out, scale=1):
        fails = []
        if not out["ruban_report"].all_passed:
            fails.append("Ruban identity battery failed")
        browkin = out["browkin"]
        if out["browkin_report"] is not None \
                and not out["browkin_report"].all_passed:
            fails.append("Browkin identity battery failed")
        if browkin.terminated and \
                M.cf.eval_cf(browkin.partial_quotients) != item["alpha"]:
            fails.append("terminated Browkin record misses alpha")
        vals = [rc.valuation for rc in out["ladder"]]
        for prev, cur in zip(vals, vals[1:]):
            if cur != M.padic.INFINITY and (prev == M.padic.INFINITY
                                            or cur <= prev):
                fails.append(f"verify_root ladder not increasing: {vals}")
                break
        if not out["symmetry"][0]:
            fails.append("palindrome gave a non-symmetric matrix")
        return fails

    def cli_cases(self, items, spec_dir):
        cases = []
        for it in items[:3]:
            argv = ["expand", "--p", str(it["p"]), "--floor", "ruban",
                    f"--alpha={_fmt(it['alpha'])}",  # "-3/5" is no flag
                    "--max-terms", str(RUBAN_TERMS)]

            def inproc(it=it):
                rec = M.cf.expand(it["alpha"], it["ruban"], RUBAN_TERMS)
                if not M.cf.verify_identities(rec).all_passed:
                    raise AssertionError("identity battery failed")
                return _dump(rec.to_json())

            cases.append((argv, inproc))
        return cases

    def growth_items(self, items):
        return items[:2]


# -- prefix-scan --------------------------------------------------------------

SCAN_LENGTH = 4096
COMPLEXITY_NS = range(1, 17)
PERIOD_LENGTHS = (1, 2, 3, 5, 8, 13, 21)
NAIVE_SAMPLE = 4


class PrefixScan(Workload):
    """Generate a prefix of 4096 letters, then detect spade and club at
    c_max = 0, complexity for n = 1..16 and scan_special_prefixes.

    Periodic words come with one seeded primitive period per length in
    PERIOD_LENGTHS, so every seed has the same spread of period-loop costs.
    """

    name = "prefix-scan"
    size_name = "L"
    base_size = SCAN_LENGTH
    growth_labels = ("periodic-3", "periodic-5", "fibonacci")
    # its doubled ops are short, so one rep's ratio is noisier; 5 reps cost
    # about what 3 cost on the other workloads
    growth_reps = 5
    cli_labels = ("periodic-5", "sturmian-1", "paperfolding")

    def build(self, rng):
        specs = []
        for n in PERIOD_LENGTHS:
            while True:
                period = [rng.choice("abc") for _ in range(n)]
                if n == 1 or (len(set(period)) > 1 and _is_primitive(period)):
                    break
            specs.append((f"periodic-{n}",
                          {"generator": "periodic",
                           "params": {"period": period}}))
        for family in ("fibonacci", "thue_morse", "paperfolding",
                       "rudin_shapiro"):
            specs.append((family, {"generator": family}))
        for k in (1, 2):
            specs.append((f"sturmian-{k}",
                          {"generator": "sturmian",
                           "params": {"slope": seeded_slope(rng)}}))
        for variant in ("square_blocks", "mirrored_blocks"):
            specs.append((variant, {"generator": "block_staircase",
                                    "params": {"variant": variant}}))
        for k in (1, 2):
            # seeds a, b first: the closure is never a constant word
            seeds = [["a"], ["b"]] + [
                [rng.choice("ab") for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(0, 2))]
            specs.append((f"palindromic_closure-{k}",
                          {"generator": "palindromic_closure",
                           "params": {"seeds": seeds}}))
        return [{"key": label, "spec": spec,
                 "word": M.words.WordSpec.from_json(spec)}
                for label, spec in specs]

    def op(self, item, scale=1):
        comb = M.combinatorics
        prefix = item["word"].stream().prefix(SCAN_LENGTH * scale)
        return {
            "letters": prefix,
            "spade": comb.detect("spade", prefix, 0),
            "club": comb.detect("club", prefix, 0),
            "complexity": [comb.complexity(prefix, n) for n in COMPLEXITY_NS],
            "scan": comb.scan_special_prefixes(prefix),
        }

    def canonical(self, item, out) -> str:
        return _dump({"letters": out["letters"],
                      "spade": out["spade"].to_json(),
                      "club": out["club"].to_json(),
                      "complexity": out["complexity"],
                      "scan": out["scan"].to_json()})

    def check(self, item, out, scale=1):
        fails = []
        for kind in ("spade", "club"):
            fails += _witness_failures(
                [(w.kind, w.w, w.u, w.v) for w in out[kind].witnesses],
                out["letters"])
        if item.get("naive"):
            for kind in ("spade", "club"):
                naive = M.combinatorics.detect(kind, out["letters"], 0,
                                               method="naive")
                if naive.to_json() != out[kind].to_json():
                    fails.append(f"naive {kind} detector disagrees")
        return fails

    def prepare(self, items, rng):
        # the naive detector re-checks a seeded subsample
        for it in rng.sample(items, NAIVE_SAMPLE):
            it["naive"] = True

    def cli_cases(self, items, spec_dir):
        by_label = {it["key"]: it for it in items}
        cases = []
        for label in self.cli_labels:
            it = by_label[label]
            path = spec_dir / f"scan-{label}.json"
            path.write_text(json.dumps(it["spec"]), encoding="utf-8")
            argv = ["detect", "--kind", "spade", "--word", str(path),
                    "--length", str(SCAN_LENGTH), "--c-max", "0"]

            def inproc(it=it):
                prefix = it["word"].stream().prefix(SCAN_LENGTH)
                return _dump(M.combinatorics.detect("spade", prefix,
                                                    0).to_json())

            cases.append((argv, inproc))
        return cases

    def growth_items(self, items):
        return [it for it in items if it["key"] in self.growth_labels]


WORKLOADS = {w.name: w
             for w in (CertifyCorpus(), ExpandVerify(), PrefixScan())}
