"""legrack benchmark: one workload per run, results as one JSON line.

    python3 perfbench/run.py --workload census|sweep|fronts --seed N \
        --seconds S --trace 0|1

Run it from a source checkout; it imports the program from ``src/``.

With ``--trace 0`` the workload repeats passes of its fixed work while
``--seconds`` allows (at least one pass), checks every output, and reports
the end-to-end metrics: ``wall_s`` (median pass time), ``setup_s`` (median
of several fresh-interpreter imports plus input builds), ``peak_rss_mb``,
and the median and tail item times.  These times are read from the
thread's CPU clock and scaled by the host speed measured while they ran
(see ``HostSampler``).  With ``--trace 1`` it runs one untraced and one
traced pass (set-up included in both) and reports the per-layer metrics;
spans are written under ``perfbench/out/``.

The last line of standard output is the JSON result; the lines before it
are a readable summary.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("census", "sweep", "fronts")
SETUP_PROBES = 5
# The host reference loop: iterations per sample, samples per measurement
# outside a sampled run, the sample time on the nominal host that untraced
# times are scaled to, the real time between two samples during a run, and
# how far around an interval the samples that scale it are taken.
HOST_REF_ITERATIONS = 8000
HOST_REF_SAMPLES = 40
HOST_REF_NOMINAL_S = 0.0025
HOST_SAMPLE_INTERVAL_S = 0.05
SCALE_WINDOW_S = 0.1
# End-to-end times are read from this thread's CPU clock.  On a busy host
# it equals wall time except for the stretches in which the hypervisor
# takes the CPU away, which would otherwise decide the item tails.
CLOCK = time.thread_time


def load_workloads():
    """Import the program from this checkout's ``src/`` and the workloads."""
    sys.path.insert(0, SRC)
    import legrack

    if not os.path.abspath(legrack.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"legrack was imported from {legrack.__file__}, "
                         f"not from {SRC}")
    import workloads

    return workloads


def host_ref() -> float:
    """Time a fixed stdlib-only loop, to tell host drift from program change.

    The loop allocates no objects the garbage collector tracks, so no
    collection lands inside it.
    """
    t0 = CLOCK()
    table = [0] * 1021
    acc = 0
    for i in range(HOST_REF_ITERATIONS):
        key = i % 1021
        table[key] += i
        acc = (acc * 31 + table[(key * 7) % 1021]) & 0xFFFFF
    return CLOCK() - t0


class HostSampler:
    """Runs ``host_ref`` every ``HOST_SAMPLE_INTERVAL_S`` of real time while
    the workload runs.

    ``clock`` is ``CLOCK`` minus the time spent sampling, so it times the
    program alone.  ``scaled`` converts an interval of ``clock`` time to
    seconds on a host on which the reference loop takes
    ``HOST_REF_NOMINAL_S``.
    """

    def __init__(self):
        self.stamps: list[float] = []
        self.samples: list[float] = []
        self.paused = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = CLOCK()
        sample = host_ref()
        self.stamps.append(t0 - self.paused)
        self.samples.append(sample)
        self.paused += CLOCK() - t0

    def clock(self) -> float:
        while True:
            paused = self.paused
            now = CLOCK()
            if paused == self.paused:  # no sample ran in between
                return now - paused

    def _speed(self, t0: float, t1: float) -> float:
        """Nominal over the median sample taken between ``t0`` and ``t1``,
        or over all samples if there were none."""
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_right(self.stamps, t1)
        near = self.samples[lo:hi] or self.samples
        return HOST_REF_NOMINAL_S / statistics.median(near)

    def scaled(self, t0: float, t1: float) -> float:
        """``t1 - t0``, each stretch between two samples multiplied by the
        speed factor of the samples within ``SCALE_WINDOW_S`` of it.  One
        factor for a whole pass would miss the host's drift within it (the
        README gives the spreads of both).
        """
        cuts = ([t0] + self.stamps[bisect.bisect_right(self.stamps, t0):
                                   bisect.bisect_left(self.stamps, t1)] + [t1])
        return sum((b - a) * self._speed(a - SCALE_WINDOW_S, b + SCALE_WINDOW_S)
                   for a, b in zip(cuts, cuts[1:]))

    def __enter__(self):
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, HOST_SAMPLE_INTERVAL_S,
                         HOST_SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def reset_program_caches() -> None:
    """Clear the program's module-level caches, so every pass does the
    work of a fresh process."""
    for name, mod in list(sys.modules.items()):
        if name == "legrack" or name.startswith("legrack."):
            for value in list(vars(mod).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def setup_probe(workload: str, seed: int) -> float:
    """Seconds for a fresh interpreter to import the program and build the
    workload's inputs, timed inside a child process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def tail(items: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten samples
    and at least 1 % of the samples beyond it, or the maximum when there
    are too few samples."""
    s = sorted(items)
    n = len(s)
    beyond = max(10, n // 100)
    if n <= beyond:
        return s[-1], 100.0
    return s[n - 1 - beyond], 100.0 * (n - beyond) / n


class Spans:
    """A pass's (start, end) item times, kept flat in an array so that the
    run's peak memory does not grow with its number of passes."""

    def __init__(self):
        self.flat = array("d")

    def append(self, span: tuple[float, float]) -> None:
        self.flat.extend(span)

    def __iter__(self):
        it = iter(self.flat)
        return zip(it, it)


def _fmt(values) -> str:
    return "[" + ", ".join(f"{v:.4g}" for v in values) + "]"


def run_untraced(wl, workload: str, seed: int, seconds: float, checks):
    """Repeat passes while ``seconds`` allows; end-to-end metrics."""
    inputs = wl.setup(seed)
    raw_passes: list[tuple[float, float]] = []
    pass_spans: list[Spans] = []
    digests = set()
    sampler = HostSampler()
    with sampler:
        start = sampler.clock()
        while True:
            reset_program_caches()
            gc.collect()
            spans = Spans()
            t0 = sampler.clock()
            digests.add(wl.run_pass(inputs, checks, spans, sampler.clock))
            t1 = sampler.clock()
            raw_passes.append((t0, t1))
            pass_spans.append(spans)
            if t1 - start + (t1 - t0) > seconds:
                break
    # Read before the results are processed, so it is the passes' peak.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks.check(len(digests) == 1, "passes gave different results")
    # Scale every stretch of time between two host samples by the samples
    # near it.  Every pass does the same items in the same order; an item's
    # time is its median over the passes.
    passes = [sampler.scaled(t0, t1) for t0, t1 in raw_passes]
    per_pass = [[sampler.scaled(t0, t1) for t0, t1 in spans]
                for spans in pass_spans]
    items = [statistics.median(times) for times in zip(*per_pass)]
    tail_s, tail_pct = tail(items)
    setups = [setup_probe(workload, seed) for _ in range(SETUP_PROBES)]
    print(f"# passes: {len(passes)}, raw {_fmt(t1 - t0 for t0, t1 in raw_passes)}"
          f" s, scaled to the nominal host {_fmt(passes)} s")
    print(f"# host.ref_s: {statistics.mean(sampler.samples):.6f} mean of "
          f"{len(sampler.samples)} samples (nominal {HOST_REF_NOMINAL_S}), "
          f"{sampler.paused:.3f} s sampling")
    print(f"# items: {len(items)}, each the median of {len(per_pass)} "
          f"passes; item_tail_ms is p{tail_pct:.2f}")
    print(f"# setup probes: {_fmt(setups)} s")
    return {
        "wall_s": (statistics.median(passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "item_p50_ms": (1000 * statistics.median(items), "ms"),
        "item_tail_ms": (1000 * tail_s, "ms"),
    }


def run_traced(wl, seed: int, checks, trace_stem: str):
    """One untraced and one traced pass, set-up included; per-layer metrics.

    The spans are written to ``trace_stem.spans`` and ``trace_stem.json``.
    """
    from layers import LAYERS, layer_metrics
    from tracer import Tracer

    def ref_median() -> float:
        return statistics.median(host_ref() for _ in range(HOST_REF_SAMPLES))

    # Each wall is scaled by the host speed measured on both sides of it.
    ref_before = ref_median()
    reset_program_caches()
    gc.collect()
    t0 = time.perf_counter()
    plain = wl.run_pass(wl.setup(seed), checks, [])
    untraced_wall = time.perf_counter() - t0
    ref_between = ref_median()

    tracer = Tracer()
    tracer.install(LAYERS)
    try:
        reset_program_caches()
        gc.collect()
        t0 = time.perf_counter()
        traced = wl.run_pass(wl.setup(seed), checks, [])
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    checks.check(traced == plain, "traced pass gave different results")
    ref_after = ref_median()

    tracer.dump(trace_stem)
    metrics = layer_metrics(tracer.stats(), tracer.tallies, traced_wall,
                            tracer.root_time())
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_frac"] = (
        traced_wall / (ref_between + ref_after)
        / (untraced_wall / (ref_before + ref_between)) - 1)
    metrics["host.ref_s"] = statistics.median(
        (ref_before, ref_between, ref_after))
    print(f"# untraced wall {untraced_wall:.3f} s, traced wall "
          f"{traced_wall:.3f} s, {len(tracer.name_id)} spans")
    if tracer.absent:
        print(f"# absent (reported as 0): {', '.join(tracer.absent)}")
    return metrics


def main(argv=None) -> int:
    start = CLOCK()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = load_workloads()
    wl = workloads.make(args.workload, OUT)
    if args.setup_probe:
        wl.setup(args.seed)
        elapsed = CLOCK() - start
        refs = [host_ref() for _ in range(HOST_REF_SAMPLES)]
        print(elapsed * HOST_REF_NOMINAL_S / statistics.median(refs))
        return 0

    checks = workloads.Checks()
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        metrics = run_traced(wl, args.seed, checks,
                             os.path.join(OUT, f"trace-{args.workload}"))
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        result = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    else:
        metrics = run_untraced(wl, args.workload, args.seed, args.seconds,
                               checks)
        result = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    for message in checks.messages:
        print(f"# FAILED: {message}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
