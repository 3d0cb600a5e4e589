"""The suq2 benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload cochain-closure --seed 1 \\
        --seconds 25 --trace 0

Run from the repository root.  This script never imports ``suq2`` itself:
every measured run is a fresh child interpreter (``child.py``) with
``PYTHONPATH=src``, BLAS threads pinned to ``nproc``, and cold memo
caches, started one at a time.  The load is a closed loop with one
client: items are issued back to back.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
several children of the CPU time up to the end of ``import suq2.cli``),
``wall_s`` (median time of one cold pass of the workload; the child
repeats the pass, clearing the memo caches each time, until ``--seconds``
have passed), and ``items_per_s``, ``item_p50_ms``, ``item_tail_ms`` and
``peak_rss_mb`` over all passes.  Times are in reference seconds, CPU time
scaled by a fixed speed kernel run next to the work (see ``child.py``), so
that a host running slower for a while does not read as a regression; the
raw CPU and wall times are in the report.  ``--trace 1`` runs the cold
pass three times in one child, untraced, traced, untraced, and prints the
per-layer metrics of the traced pass with ``trace.overhead_ratio`` (traced
over mean untraced pass wall).

The last stdout line is the JSON result; the line before it is a report
with provenance, sample counts, the tail percentile, ``error_rate``
(edge probes included) and the memo caches.  Exit codes: 0 all outputs
correct, 1 an output check failed, 2 usage error or no source tree,
3 a child crashed or ran out of time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cochain-closure", "peterweyl-operators", "residue-numerics")
SETUP_CHILDREN = 4
BUDGET_S = 170.0

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
             "item_p50_ms": "ms", "item_tail_ms": "ms", "peak_rss_mb": "MB"}


class ChildError(RuntimeError):
    pass


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    """One BLAS thread: the suq2 work is single-threaded, and CPU time then
    matches the time a user waits."""
    env = dict(os.environ)
    env.update({"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0",
                "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"})
    return env


def run_child(args, deadline: float) -> dict:
    """Start one child, wait for it, return its JSON and its set-up wall
    time from the moment it was started."""
    cmd = [sys.executable, str(HERE / "child.py")] + args
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise ChildError(f"child {args} ran out of time") from None
    if proc.returncode != 0:
        raise ChildError(f"child {args} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = str(SRC / "suq2")
    if out["suq2_path"] != [expected]:
        raise ChildError(f"suq2 imported from {out['suq2_path']}, "
                         f"not {expected}")
    out["setup_wall_s"] = out["setup_done"] - t0
    return out


def untraced(ns, deadline: float):
    setups = [run_child(["--mode", "setup"], deadline)
              for _ in range(SETUP_CHILDREN)]
    res = run_child(["--mode", "timed", "--seconds", str(ns.seconds),
                     "--workload", ns.workload, "--seed", str(ns.seed)],
                    deadline)
    setups.append(res)
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(res["pass_s"]),
        "items_per_s": res["items_per_s"],
        "item_p50_ms": res["item_p50_ms"],
        "item_tail_ms": res["item_tail_ms"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
               for k, v in values.items()}
    probes = res.get("probes", {"attempted": 0, "failed": 0, "errors": []})
    attempted = res["attempted"] + probes["attempted"]
    report = {
        "samples": {"setup_s": len(setups),
                    "wall_s": len(res["pass_s"]),
                    "items": res["attempted"],
                    "pass_items": res["pass_items"],
                    "items_beyond_tail": res["items_beyond_tail"],
                    "speed_kernel_runs": len(res["kernels"])},
        "item_tail_pct": res["item_tail_pct"],
        "error_rate": (res["failed"] + probes["failed"]) / attempted,
        "edge_probes": probes,
        "pass_s": res["pass_s"],
        "raw": {"pass_cpu_s": res["pass_cpu_s"],
                "pass_wall_s": res["pass_wall_s"],
                "setup_cpu_s": [s["setup_cpu_s"] for s in setups],
                "setup_wall_s": [s["setup_wall_s"] for s in setups],
                "speed_kernel_s_median": statistics.median(res["kernels"])},
        "caches": res["caches"],
        "provenance": res["provenance"],
        "check_errors": res["check_errors"],
    }
    return res, metrics, report


def traced(ns, deadline: float):
    args = ["--mode", "traced", "--workload", ns.workload,
            "--seed", str(ns.seed)]
    res = run_child(args, deadline)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in sorted(res["layers"].items())}
    report = {
        "samples": {"items": res["attempted"],
                    "pass_items": res["pass_items"],
                    "spans_file": res["spans_file"]},
        "untraced_pass_s": res["untraced_pass_s"],
        "traced_pass_s": res["layers"]["trace.wall_s"][0],
        "provenance": res["provenance"],
        "check_errors": res["check_errors"],
    }
    return res, metrics, report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args()
    if not (SRC / "suq2").is_dir():
        print(f"no suq2 source tree at {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + BUDGET_S
    try:
        res, metrics, report = (traced if ns.trace else untraced)(ns, deadline)
    except ChildError as exc:
        print(exc, file=sys.stderr)
        return 3
    correct = res["failed"] == 0
    report = {"workload": ns.workload, "seed": ns.seed, "trace": ns.trace,
              "git_sha": git_sha(), "correct": correct, **report}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
