"""padiccf benchmark: three seeded closed-loop workloads with one client.

Run from the repository root; the package is imported from ``src/``:

    python3 bench/run.py --workload certify-corpus --seed 1 --seconds 25
    python3 bench/run.py --workload all --trace 1

``--trace 0`` times ops for ``--seconds`` seconds of op time with tracing
off and reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs one pass over the corpus, each input untraced and under the span
tracer (spans.py) back to back, sends a few inputs through the ``padiccf``
CLI, and reports the per-layer metrics.  Every op's output is checked
outside the timed region.  Human-readable lines come first; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
Full results (machine details, sample counts, digests) and the spans of a
traced run are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import pickle
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
DEFAULT_SEED = 1
SETUP_PROBES = 7
REFERENCE_S = 0.010
REFERENCE_WINDOW = 5
CLI_COLD_RUNS = 5
CHILD_TIMEOUT = 120
WORKLOAD_NAMES = ("certify-corpus", "expand-verify", "prefix-scan")


def load_program():
    """Import padiccf from ./src, refusing any other copy."""
    init = ROOT / "src" / "padiccf" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from the repository root")
    os.environ.pop("PADIC_CF_THREADS", None)  # default detector path
    sys.path.insert(0, str(ROOT / "src"))
    import padiccf
    if Path(padiccf.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported padiccf from {padiccf.__file__}")


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "PADIC_CF_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model or platform.processor(),
            "python": platform.python_version(),
            "PADIC_CF_THREADS": "unset"}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def op_order(n, rng):
    """Shuffled passes over the corpus, forever."""
    while True:
        idx = list(range(n))
        rng.shuffle(idx)
        yield from idx


class Ledger:
    """Runs ops and checks every output outside the timed region.

    The first output of an input goes through the workload's checks and,
    as canonical JSON, into the digest; every later output of that input
    must have the same pickle fingerprint.  No output is kept, so the
    benchmark's own memory does not grow with the corpus or the seed.
    """

    def __init__(self, wl, items):
        self.wl, self.items = wl, items
        self.fingerprint, self.digest = {}, {}
        self.bad = set()  # inputs whose first output failed a check
        self.verdicts = Counter()
        self.ops = Counter()
        self.failed = 0
        self.attempted = 0
        self.errors = []

    def timed(self, idx, call):
        """(seconds, output) of call() as one op on items[idx]; the output
        is None when the op raised."""
        self.attempted += 1
        self.ops[idx] += 1
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a failed op is counted, not fatal
            self.fail(f"input {idx} raised {type(exc).__name__}: {exc}")
            out = None
        return time.perf_counter() - t0, out

    def record(self, idx, out):
        """Check one op's output (not timed)."""
        if out is None:
            return
        fingerprint = hashlib.sha256(pickle.dumps(out)).digest()
        if idx not in self.fingerprint:
            self.fingerprint[idx] = fingerprint
            self.digest[idx] = sha256(self.wl.canonical(self.items[idx], out))
            self.verdicts[self.wl.verdict(out)] += 1
            problems = self.wl.check(self.items[idx], out)
            if problems:
                self.bad.add(idx)
                self.fail(f"input {idx}: {problems[0]}")
        elif fingerprint != self.fingerprint[idx]:
            self.fail(f"input {idx}: output differs from its first run")
        elif idx in self.bad:
            self.fail(f"input {idx}: same output as its failed first run")

    def run(self, idx, call):
        """Time call() as one op, check its output; return the seconds."""
        elapsed, out = self.timed(idx, call)
        self.record(idx, out)
        return elapsed

    def fail(self, message, ops=1):
        self.failed += ops
        self.errors.append(message)

    def settle(self):
        """Run, untimed, every input the timed phase never reached."""
        for idx, item in enumerate(self.items):
            if idx not in self.ops:
                self.run(idx, lambda item=item: self.wl.op(item))

    def corpus_digest(self):
        return sha256("".join(self.digest.get(i, "error")
                              for i in range(len(self.items))))


def check_digest(name, seed, digest, ledger):
    recorded = json.loads((BENCH_DIR / "digests.json").read_text())
    if seed != recorded["seed"]:
        return "not recorded for this seed"
    if recorded["digests"].get(name) != digest:
        ledger.fail(f"output digest {digest} differs from the recorded "
                    f"{recorded['digests'].get(name)}", 0)
        return "MISMATCH"
    return "matches the recorded digest"


# -- end-to-end run -----------------------------------------------------------

def reference_work():
    """A fixed stdlib-only workload that never calls padiccf: big-integer
    Fraction recurrences and tuple slicing into a set, like the program's
    hot loops.  It takes about REFERENCE_S on the machine's usual speed."""
    a, b = Fraction(0), Fraction(1)
    count = 0
    for _ in range(8):
        for _ in range(100):
            a, b = b, Fraction(8, 3) * b + a
        seq = tuple(i % 7 for i in range(1500))
        count += len({seq[i:i + 8] for i in range(len(seq) - 8)})
    return count


def reference_seconds():
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def scaled(samples, refs):
    """Scale each sample to the reference speed.

    refs[i] is the reference time measured right after samples[i].  The
    host's speed swings by up to 40% over tens of seconds, for every
    process alike; dividing each sample by the median reference time of
    its neighbourhood takes that swing out of the comparison between runs.
    """
    out = []
    for i, t in enumerate(samples):
        near = refs[max(0, i - REFERENCE_WINDOW):i + REFERENCE_WINDOW + 1]
        out.append(t * REFERENCE_S / statistics.median(near))
    return out


def setup_times(name, seed):
    """Wall time from spawning a fresh interpreter to the end of set-up,
    each probe followed by a reference measurement."""
    times, refs = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--probe-setup",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT, check=True)
        times.append(float(proc.stdout.split()[-1]) - t0)
        refs.append(reference_seconds())
    return times, refs


def growth(wl, ledger):
    """log2 of (op time at double size / op time at base size) over the
    workload's growth subset, built from a fixed seed so every run doubles
    the same inputs.  Each rep runs every input at both sizes back to back,
    in alternating order, and takes the ratio of the summed times scaled to
    the reference speed; the result is the median rep.  Sums do not jump
    between inputs that grow at different rates."""
    subset = wl.growth_items(wl.build(random.Random(f"{wl.name}/growth")))
    runs = []  # (rep, scale, seconds)
    refs = []
    for rep in range(wl.growth_reps):
        for item in subset:
            for scale in ((1, 2) if rep % 2 == 0 else (2, 1)):
                t0 = time.perf_counter()
                out = wl.op(item, scale)
                runs.append((rep, scale, time.perf_counter() - t0))
                refs.append(reference_seconds())
                if rep == 0 and scale == 2:
                    for problem in wl.check(item, out, scale):
                        ledger.fail(f"doubled {item['key']}: {problem}", 0)
    times = scaled([t for _, _, t in runs], refs)
    ratios = []
    for rep in range(wl.growth_reps):
        total = {1: 0.0, 2: 0.0}
        for (r, scale, _), t in zip(runs, times):
            if r == rep:
                total[scale] += t
        ratios.append(total[2] / total[1])
    return math.log2(statistics.median(ratios)), len(subset)


def end_to_end(wl, items, seed, seconds):
    setup_raw, setup_refs = setup_times(wl.name, seed)
    ledger = Ledger(wl, items)
    order = op_order(len(items), random.Random(f"{wl.name}/{seed}/order"))
    raw, stream, refs = [], [], []
    gc.collect()
    while sum(raw) < seconds:
        idx = next(order)
        raw.append(ledger.run(idx, lambda item=items[idx]: wl.op(item)))
        stream.append(idx)
        refs.append(reference_seconds())
    ledger.settle()
    growth_exp, subset = growth(wl, ledger)

    def timing(latencies, setup):
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
        return {"setup_s": statistics.median(setup),
                "ops_per_s": len(latencies) / sum(latencies),
                "op_ms_p50": 1000 * statistics.median(latencies),
                "op_ms_p90": 1000 * p90}

    latencies = scaled(raw, refs)
    metrics = {
        **timing(latencies, scaled(setup_raw, setup_refs)),
        "growth_exp": growth_exp,
        "fail_frac": ledger.failed / ledger.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    n = len(raw)
    above = sum(1000 * t > metrics["op_ms_p90"] for t in latencies)
    samples = {
        "setup_s": f"median of {len(setup_raw)} fresh interpreters",
        "ops_per_s": f"{n} ops in {sum(raw):.2f} s of op time",
        "op_ms_p50": f"{n} ops",
        "op_ms_p90": f"{n} ops, {above} above it",
        "growth_exp": f"{subset} fixed inputs, median of {wl.growth_reps} "
                      f"reps at {wl.size_name}={wl.base_size} and "
                      f"{2 * wl.base_size}",
        "fail_frac": f"{ledger.failed} of {ledger.attempted} ops",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    speed = {"reference_ms_median": 1000 * statistics.median(refs),
             "reference_ms_nominal": 1000 * REFERENCE_S,
             "unscaled": timing(raw, setup_raw)}
    return ledger, metrics, samples, {
        "speed": speed, "op_seconds": list(zip(stream, raw, refs))}


# -- traced run ---------------------------------------------------------------

def cli_wall(argv):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "padiccf.cli", *argv],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT)
    return time.perf_counter() - t0, proc


def cli_metrics(wl, items, ledger):
    """Cold start on a trivial input, and CLI wall time minus in-process time
    on a few corpus inputs whose stdout must match the in-process JSON."""
    spec_dir = OUT_DIR / "cli"
    spec_dir.mkdir(parents=True, exist_ok=True)
    cold = [cli_wall(["eval", "--letters", "0,8/3"])[0]
            for _ in range(CLI_COLD_RUNS)]
    overheads = []
    for argv, inproc in wl.cli_cases(items, spec_dir):
        t0 = time.perf_counter()
        expected = inproc()
        in_process = time.perf_counter() - t0
        wall, proc = cli_wall(argv)
        ledger.attempted += 1
        if proc.returncode != 0 or proc.stdout != expected.encode("utf-8"):
            ledger.fail(f"CLI {' '.join(argv)}: exit {proc.returncode}, "
                        f"stdout differs from the in-process JSON")
        overheads.append(wall - in_process)
    return {"cli.cold_start_ms": 1000 * statistics.median(cold),
            "cli.overhead_ms": 1000 * statistics.median(overheads)}


def traced(wl, items, seed, bench_spec):
    from spans import MODULES, Tracer

    ledger = Ledger(wl, items)
    order = list(range(len(items)))
    random.Random(f"{wl.name}/{seed}/order").shuffle(order)
    tracer = Tracer()
    # each input runs untraced and traced back to back, in alternating
    # order, so both sides of trace.overhead see the same machine speed
    plain = with_spans = 0.0
    gc.collect()
    for n, idx in enumerate(order):
        item = items[idx]
        for traced_side in ((False, True) if n % 2 == 0 else (True, False)):
            if not traced_side:
                plain += ledger.run(idx, lambda: wl.op(item))
                continue
            tracer.install()
            try:
                elapsed, out = ledger.timed(
                    idx, lambda: tracer.run_op(n, lambda: wl.op(item)))
            finally:
                tracer.uninstall()
            with_spans += elapsed
            ledger.record(idx, out)  # the checks stay out of the counts
    self_s = tracer.self_times()
    total = tracer.op_seconds()
    share = {m: sum(t for name, t in self_s.items()
                    if name.startswith(m + ".")) / total
             for m in MODULES + ("bench",)}
    extra = {"trace.overhead": 1 - plain / with_spans,
             **cli_metrics(wl, items, ledger)}
    metrics = {}
    for spec in bench_spec["per_layer"]:
        name = spec["name"]
        if name in extra:
            metrics[name] = extra[name]
        elif name.endswith(".self_s"):
            metrics[name] = self_s.get(name[:-len(".self_s")], 0.0)
        elif name.endswith(".share"):
            metrics[name] = share[name[:-len(".share")]]
        else:
            metrics[name] = tracer.counts.get(name, 0)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{seed}.json"
    tracer.dump(spans_path, {"workload": wl.name, "seed": seed})
    samples = {name: f"1 pass of {len(items)} ops" for name in metrics}
    samples.update({"cli.cold_start_ms": f"median of {CLI_COLD_RUNS} runs",
                    "cli.overhead_ms": "median of the CLI cases",
                    "trace.overhead": f"{len(items)} ops untraced vs traced"})
    return ledger, metrics, samples, {"spans": str(spans_path)}


# -- command line -------------------------------------------------------------

def run_one(args, bench_spec):
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    items = wl.build(random.Random(f"{wl.name}/{args.seed}"))
    wl.prepare(items, random.Random(f"{wl.name}/{args.seed}/prepare"))
    if args.probe_setup:
        print(time.monotonic())
        return 0
    if args.trace:
        ledger, metrics, samples, extra = traced(wl, items, args.seed,
                                                 bench_spec)
        wanted = bench_spec["per_layer"]
    else:
        ledger, metrics, samples, extra = end_to_end(wl, items, args.seed,
                                                     args.seconds)
        wanted = bench_spec["end_to_end"]
    digest = ledger.corpus_digest()
    digest_note = check_digest(wl.name, args.seed, digest, ledger)
    verdicts = {k: v for k, v in ledger.verdicts.items() if k is not None}
    env = machine()

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  nproc {env['nproc']}  "
          f"cpu {env['cpu_model']}  PADIC_CF_THREADS unset")
    units = {m["name"]: m["unit"] for m in wanted}
    if not args.trace:
        units["fail_frac"] = "ratio"
    for name, unit in units.items():
        print(f"  {name:42s} {metrics[name]:>14.6g} {unit:6s} "
              f"({samples[name]})")
    if "speed" in extra:
        speed = extra["speed"]
        print(f"  times scaled to a {speed['reference_ms_nominal']:g} ms "
              f"reference loop (median here "
              f"{speed['reference_ms_median']:.3f} ms); unscaled: "
              + ", ".join(f"{k} {v:.6g}"
                          for k, v in speed["unscaled"].items()))
    print(f"  output digest {digest}: {digest_note}")
    if verdicts:
        print(f"  verdicts: {json.dumps(verdicts, sort_keys=True)}")
    for message in ledger.errors[:10]:
        print(f"  FAILED: {message}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": env, "metrics": metrics,
              "samples": samples, "digest": digest, "verdicts": verdicts,
              "errors": ledger.errors, **extra}
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, default=str), encoding="utf-8")
    result = {"correct": not ledger.errors,
              "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": {name: {"value": metrics[name], "unit": m["unit"]}
                          for m in wanted for name in [m["name"]]}}
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_program()
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args)
    return run_one(args, bench_spec)


if __name__ == "__main__":
    sys.exit(main())
