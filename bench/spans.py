"""Span tracing of the padiccf layers, installed from outside the package.

The tracer rebinds module and class attributes in the running process: every
attribute of a padiccf module (or of a class) that is the original function
object is replaced by a wrapper, so callers that imported the name into their
own namespace (``certify.continuants``, ``quadratic.eval_cf``, every module's
``vp``) are traced too.  Nothing under ``src/`` changes.  ``uninstall``
restores the originals.

A timed span records (name, op, parent, start, end); a counted-only hook adds
one to ``<name>.calls`` and nothing else, so its time stays in the caller's
self time.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter


MODULES = ("words", "combinatorics", "cf", "floors", "padic", "quadratic",
           "certify", "cli")

# (module, attribute or Class.method, span name, counter); the counter adds
# deterministic work counts from the call's arguments and result
TIMED = [
    ("words", "LetterStream.prefix", "words.prefix", "prefix"),
    ("words", "LetterStream.values", "words.values", None),
    ("combinatorics", "detect", "combinatorics.detect", "detect"),
    ("combinatorics", "complexity", "combinatorics.complexity", None),
    ("combinatorics", "scan_special_prefixes",
     "combinatorics.scan_special_prefixes", None),
    ("cf", "expand", "cf.expand", "expand"),
    ("cf", "continuants", "cf.continuants", "continuants"),
    ("cf", "eval_cf", "cf.eval_cf", None),
    ("cf", "tail_reconstruct", "cf.tail_reconstruct", None),
    ("cf", "verify_identities", "cf.verify_identities", None),
    ("floors", "FloorFunction.apply", "floors.apply", None),
    ("padic", "canonical_digits", "padic.canonical_digits", None),
    ("quadratic", "periodic_to_quadratic", "quadratic.periodic_to_quadratic",
     None),
    ("quadratic", "verify_root", "quadratic.verify_root", None),
    ("quadratic", "palindrome_symmetry", "quadratic.mirror", None),
    ("quadratic", "reversal_quotient", "quadratic.mirror", None),
    ("certify", "certify", "certify.certify", None),
    ("certify", "growth_bounds", "certify.growth_bounds", None),
    ("certify", "required_k", "certify.required_k", None),
]

# hot leaves: counted, not timed
COUNTED = [
    ("combinatorics", "check_witness", "combinatorics.check_witness"),
    ("padic", "vp", "padic.vp"),
]


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _count(tracer, kind, args, out):
    c = tracer.counts
    if kind == "prefix":
        c["words.prefix.letters"] += args[1]
    elif kind == "detect":
        c["combinatorics.detect.letters"] += len(args[1])
    elif kind == "expand":
        c["cf.expand.terms"] += len(out.partial_quotients)
    elif kind == "continuants":
        c["cf.continuants.states"] += len(out)
        if out:
            last = out[-1]
            bits = max(_bits(last.A), _bits(last.B))
            if bits > c["cf.continuants.max_bits"]:
                c["cf.continuants.max_bits"] = bits


def _module(name):
    return sys.modules["padiccf." + name]


class Tracer:
    """Collects spans and counts while installed."""

    def __init__(self):
        self.spans = []  # [name, op, parent index or None, start, end]
        self.counts = defaultdict(int)
        self.op = None
        self._stack = []
        self._undo = []

    # -- wrappers

    def _timed(self, fn, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            rec = [name, self.op, stack[-1] if stack else None,
                   perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            counts[calls] += 1
            if counter:
                _count(self, counter, args, out)
            return out

        return wrapper

    def _counted(self, fn, name):
        counts = self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall

    def _rebind(self, module, attr, make):
        mod = _module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            wrapper = make(original)
            for key, value in list(cls.__dict__.items()):
                if value is original:  # FloorFunction.__call__ = apply
                    self._undo.append((cls, key, value))
                    setattr(cls, key, wrapper)
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        owners = [sys.modules["padiccf"]] + [_module(m) for m in MODULES]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._undo.append((owner, key, value))
                    setattr(owner, key, wrapper)

    def install(self):
        for module, attr, name, counter in TIMED:
            self._rebind(module, attr,
                         lambda fn, n=name, c=counter: self._timed(fn, n, c))
        for module, attr, name in COUNTED:
            self._rebind(module, attr, lambda fn, n=name: self._counted(fn, n))

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- op spans

    def run_op(self, op_id, fn):
        """Run one benchmark op inside a ``bench.op`` span."""
        self.op = op_id
        rec = ["bench.op", op_id, None, perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn()
        finally:
            rec[4] = perf_counter()
            self._stack.pop()
            self.op = None

    # -- reduction

    def self_times(self):
        """Summed self time per span name: duration minus child coverage."""
        child = [0.0] * len(self.spans)
        for name, op, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, op, parent, start, end) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def op_seconds(self):
        return sum(end - start for name, _, _, start, end in self.spans
                   if name == "bench.op")

    def dump(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["name", "op", "parent", "start",
                                          "end"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)

