"""One measured interpreter of the benchmark (started by ``run.py``).

The first thing it does is ``import suq2.cli``, the set-up every CLI call
pays, and it notes its CPU time at that point.  Then, by ``--mode``:

* ``setup``: nothing more;
* ``timed``: the untraced run: the workload's pass, each time with cold
  memo caches, until ``--seconds`` have passed; each pass's outputs are
  checked right after it, outside its time; then the edge probes;
* ``traced``: the pass under the tracer, between two untraced passes, for
  the per-layer metrics and the tracing overhead.

Timed figures are in *reference seconds*: CPU seconds of this process
(``time.process_time``, which leaves out time the host steals), scaled by
``REF_KERNEL_S`` over the CPU time of a fixed speed kernel run next to the
work.  The kernel touches no ``suq2`` code, so a change to ``suq2`` moves
the figures and a host that runs slower for a while does not.  The raw CPU
and wall times are reported beside them.

The result is one JSON object on the last line of stdout.
"""

import time

import suq2.cli  # noqa: F401  (the timed set-up)

SETUP_CPU_S = time.process_time()
SETUP_DONE = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

#: Spans of traced runs are written here, inside the checkout.
TRACE_DIR = Path(__file__).resolve().parent.parent / ".perfbench"

#: Tail percentile reported per workload, fixed so the metric keeps its
#: meaning when throughput moves.  At this commit's item counts (four or
#: more passes per run) each leaves at least ten timed items beyond it,
#: and each sits inside a cluster of items of like cost, not on the edge
#: between two clusters, where the seed would move it.
TAIL_PCT = {"cochain-closure": 98.0, "peterweyl-operators": 94.0,
            "residue-numerics": 90.0}

#: One reference second is the CPU time in which the speed kernel runs
#: 1 / REF_KERNEL_S times.
REF_KERNEL_S = 0.015
#: CPU seconds of work between two runs of the speed kernel.
SEGMENT_S = 0.3
_POLY = {k: (k * 7919) % 101 + 1 for k in range(-15, 16)}
_GRID = numpy.linspace(1.0, 2.0, 20000)
_TABLE = {i: (i, 3 * i) for i in range(1 << 16)}


def speed_kernel() -> float:
    """CPU seconds of a fixed piece of work that touches no ``suq2`` code.
    Half of it is core-bound: dict-of-int polynomial products with gcds
    (the shape of the exact layer) and numpy power sums (the shape of the
    lattice scans).  The other half walks a table of several megabytes at
    random, so the kernel also slows when the host's caches are shared.
    The table is read through once, untimed, first, so that what the
    workload left in the caches does not change the kernel's time."""
    g = sum(t[1] for t in _TABLE.values())
    gc.disable()  # a collection would time the workload's heap, not the host
    t0 = time.process_time()
    for _ in range(28):
        acc = {}
        for a, x in _POLY.items():
            for b, y in _POLY.items():
                acc[a + b] = acc.get(a + b, 0) + x * y
        for v in acc.values():
            g = math.gcd(g * 31 + v, 1234567891011)
        float(numpy.sum(_GRID ** -1.7)) + float(numpy.sum(numpy.sqrt(_GRID)))
    j = 12345
    for _ in range(20000):
        j = (j * 1103515245 + 12345) & 0xFFFF
        g += _TABLE[j][1]
    elapsed = time.process_time() - t0
    gc.enable()
    return elapsed


def nearest_rank(sorted_values, pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def call(item):
    """(output, error string or None); a failed item is counted, not fatal."""
    try:
        return item.call(), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def keep(item, out, err, lookup_store) -> None:
    """Keep the first output of each keyed item for later checks."""
    if err is None and item.key is not None:
        lookup_store.setdefault(item.key, out)


def run_items(items, lookup_store, trace=None):
    """Run items back to back from cold memo caches; returns (records,
    wall seconds).  Used for the traced run and the probes."""
    tracer.clear_caches()
    records = []
    perf = time.perf_counter
    start = perf()
    for idx, item in enumerate(items):
        if trace is not None:
            trace.item = idx
        t0 = perf()
        out, err = call(item)
        records.append((item, out, err, perf() - t0))
        keep(item, out, err, lookup_store)
    return records, perf() - start


def timed_pass(items, lookup_store):
    """One cold untraced pass.  The speed kernel runs before the pass and
    after every ``SEGMENT_S`` CPU seconds of items; each item's CPU time is
    scaled by the median kernel time of the four runs around its segment.
    Returns (records, scaled item seconds, wall seconds, kernel seconds);
    the records' times are raw CPU seconds."""
    tracer.clear_caches()
    cpu, perf = time.process_time, time.perf_counter
    wall0 = perf()
    kernels, segments, records = [speed_kernel()], [[]], []
    since = 0.0
    for item in items:
        t0 = cpu()
        out, err = call(item)
        dt = cpu() - t0
        records.append((item, out, err, dt))
        keep(item, out, err, lookup_store)
        segments[-1].append(dt)
        since += dt
        if since >= SEGMENT_S:
            kernels.append(speed_kernel())
            segments.append([])
            since = 0.0
    if segments[-1]:
        kernels.append(speed_kernel())
    else:
        segments.pop()
    wall = perf() - wall0
    scaled = []
    for i, seg in enumerate(segments):
        scale = REF_KERNEL_S / statistics.median(kernels[max(0, i - 1):i + 3])
        scaled += [dt * scale for dt in seg]
    return records, scaled, wall, kernels


def check(records, lookup_store):
    """One error string per item that raised or failed its check."""
    errors = []
    for item, out, err, _ in records:
        if err is None and item.check is not None:
            err = item.check(out, lookup_store.__getitem__)
        if err is not None:
            errors.append(f"{item.label}: {err}")
    return errors


def timed_loop(work, seconds):
    """Cold passes until their wall time adds up to ``seconds``.  Each
    pass is checked right after it, outside its time; only item times and
    error strings are kept, so memory does not grow with the pass count."""
    store, errors, durations = {}, [], []
    pass_s, pass_cpu_s, pass_wall_s, kernels = [], [], [], []
    attempted, caches = 0, {}
    while not pass_wall_s or math.fsum(pass_wall_s) < seconds:
        records, scaled, wall, ks = timed_pass(work.items, store)
        caches = cache_report()
        errors += check(records, store)
        attempted += len(records)
        durations += scaled
        pass_s.append(math.fsum(scaled))
        pass_cpu_s.append(math.fsum(r[3] for r in records))
        pass_wall_s.append(wall)
        kernels += ks
    return {"attempted": attempted, "errors": errors, "durations": durations,
            "pass_s": pass_s, "pass_cpu_s": pass_cpu_s,
            "pass_wall_s": pass_wall_s, "kernels": kernels,
            "caches": caches}


def probe(work):
    store = {}
    records, _ = run_items(work.probes, store)
    errors = check(records, store)
    return {"attempted": len(records), "failed": len(errors),
            "errors": errors}


def provenance():
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def cache_report():
    out = {}
    for layer in tracer.CACHES:
        ratio, size = tracer.cache_stats(layer)
        out[layer] = {"hit_ratio": ratio, "entries": size}
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_passes(work, trace_out: Path):
    """One pass under the tracer between two untraced ones, each starting
    with cold memo caches and checked after the tracer is gone; the
    untraced mean wall is the overhead base.  Writes the spans to
    ``trace_out``; returns (error strings, layer metrics, base)."""
    store = {}
    records, before = run_items(work.items, store)
    errors = check(records, store)
    trace = tracer.Tracer()
    trace.install()
    try:
        records, wall = run_items(work.items, store, trace=trace)
        layers = trace.metrics(wall)
        if work.probes:
            trace.item = -1
            probe(work)
        layers["spectral.failures"] = (trace.failures["spectral"], "count")
    finally:
        trace.uninstall()
    errors += check(records, store)
    records, after = run_items(work.items, store)
    errors += check(records, store)
    base = (before + after) / 2.0
    layers["trace.overhead_ratio"] = (wall / base, "ratio")
    trace_out.parent.mkdir(exist_ok=True)
    with open(trace_out, "w") as fh:
        json.dump({"spans_fields": ["item", "name", "start", "end",
                                    "parent"],
                   "spans": trace.spans,
                   "items": [item.label for item in work.items],
                   "layers": layers}, fh)
    return errors, layers, base


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", required=True,
                    choices=("setup", "timed", "traced"))
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args()
    kernel_s = statistics.median(speed_kernel() for _ in range(5))
    result = {"setup_done": SETUP_DONE, "setup_cpu_s": SETUP_CPU_S,
              "setup_s": SETUP_CPU_S * REF_KERNEL_S / kernel_s,
              "suq2_path": list(suq2.__path__)}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    work = workloads.build(args.workload, args.seed)
    result["provenance"] = provenance()
    if args.mode == "timed":
        loop = timed_loop(work, args.seconds)
        durations = sorted(loop.pop("durations"))
        pct = TAIL_PCT[args.workload]
        errors = loop.pop("errors")
        result.update(loop)
        result.update({
            "peak_rss_mb": peak_rss_mb(),
            "items_per_s": len(durations) / math.fsum(loop["pass_s"]),
            "item_p50_ms": 1e3 * statistics.median(durations),
            "item_tail_ms": 1e3 * nearest_rank(durations, pct),
            "item_tail_pct": pct,
            "items_beyond_tail": len(durations)
            - math.ceil(pct / 100.0 * len(durations)),
        })
        if work.probes:
            result["probes"] = probe(work)
    else:
        trace_out = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        errors, layers, base = traced_passes(work, trace_out)
        result.update({"attempted": 3 * len(work.items), "layers": layers,
                       "untraced_pass_s": base,
                       "spans_file": str(trace_out)})
    result.update({"failed": len(errors), "check_errors": errors[:20],
                   "pass_items": len(work.items)})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
