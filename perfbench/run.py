"""Benchmark entry point.

    python3 perfbench/run.py --workload {validate,search_sat,search_unsat,all}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  Set-up (interpreter start, import of
the program from ``src/``, input generation) is timed on several fresh
worker processes, each time scaled to the reference speed that worker
measures right after, and reported as the median; one more worker, started
the same way, measures the workload (see worker.py).  Every worker runs with
PYTHONHASHSEED fixed.  Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  The exit status is 0 only when every output matched
its reference; ``--workload all`` runs each workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HASH_SEED = "0"
SETUP_PROBES = 9  # set-up-only workers; the measuring worker adds one more sample

# metric -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "verdict_s": ("s", "lower"),
    "verdict_geomean_ms": ("ms", "lower"),
}
# printed with the end-to-end metrics but not part of the gated set: the
# unscaled wall times show the machine's own speed, the route split exists
# only on validate, and failed_share is 0 on a good run
REPORTED = {
    "setup_wall_s": ("s", "lower"),
    "verdict_wall_s": ("s", "lower"),
    "verdict_geomean_wall_ms": ("ms", "lower"),
    "logic_s": ("s", "lower"),
    "direct_s": ("s", "lower"),
    "failed_share": ("ratio", "lower"),
}
PER_LAYER = {
    **{name: (unit, better) for name, (unit, better, _) in LAYER_METRICS.items()},
    "trace.overhead": ("%", "lower"),
    "bench.calib_s": ("s", "lower"),
}


class WorkerError(RuntimeError):
    pass


def start_worker(args: list[str], timeout: float):
    """Start a worker and time it until it reports READY.

    Returns (process, seconds to READY, kill timer); the timer kills the
    worker if it outlives `timeout`.
    """
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        rest = proc.stdout.read()
        proc.wait()
        timer.cancel()
        raise WorkerError(f"worker failed during set-up (exit {proc.returncode}): {line}{rest}")
    return proc, ready, timer


def finish_worker(proc, timer) -> str:
    out = proc.stdout.read()
    proc.wait()
    timer.cancel()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    return out


def scale_of(out: str) -> float:
    """The factor a worker printed to scale its times to the reference speed."""
    for line in out.splitlines():
        if line.startswith("SCALE "):
            return float(line.split()[1])
    raise WorkerError("worker printed no scale")


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    setups, walls = [], []
    for _ in range(SETUP_PROBES):
        proc, ready, timer = start_worker(base + ["--setup-only"], timeout=60)
        out = finish_worker(proc, timer)
        setups.append(ready * scale_of(out))
        walls.append(ready)
    proc, ready, timer = start_worker(
        base + ["--seconds", str(seconds), "--trace", str(trace)], timeout=2 * seconds + 60
    )
    out = finish_worker(proc, timer)
    setups.append(ready * scale_of(out))
    walls.append(ready)
    lines = [l for l in out.splitlines() if l.startswith("RESULT ")]
    if not lines:
        raise WorkerError("worker printed no result")
    result = json.loads(lines[-1][len("RESULT "):])
    result["end_to_end"]["setup_s"] = statistics.median(setups)
    result["end_to_end"]["setup_wall_s"] = statistics.median(walls)
    return result


def report(result: dict, trace: int) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    e2e = result["end_to_end"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"PYTHONHASHSEED {result['hashseed']}  passes {result['passes']} "
          f"(traced {result['traced_passes']})  digest {result['digest']}")
    for name, (unit, _) in {**END_TO_END, **REPORTED}.items():
        if name in e2e:
            print(f"  {name:<34} {e2e[name]:>14.6g} {unit}")
    print(f"  {'calib_s (diagnostic, not gated)':<34} {result['calib_s']:>14.6g} s")
    print(f"  {'ref_s (diagnostic, not gated)':<34} {result['ref_s']:>14.6g} s")
    print(f"  {'op':<34} {'scaled ms':>14} {'best wall ms':>14}")
    for op_id, ms in result["op_ms"].items():
        print(f"  op {op_id:<31} {ms:>14.6g} {result['op_wall_ms'][op_id]:>14.6g}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    for problem in result["problems"]:
        print(f"  WRONG {problem}")
    if trace:
        layers = dict(result["per_layer"], **{
            "trace.overhead": result["overhead_pct"],
            "bench.calib_s": result["calib_s"],
        })
        for name, (unit, _) in PER_LAYER.items():
            print(f"  {name:<34} {layers[name]:>14.6g} {unit}")
        for inst, counters in result["instance_counters"].items():
            print(f"  counters {inst}: " + ", ".join(f"{k} {v}" for k, v in sorted(counters.items())))
        print(f"  counters repeat across traced passes: {result['counters_repeat']}")
        for name, reason in result["missing"].items():
            print(f"  MISSING {name}: {reason}")
        if result.get("trace_file"):
            print(f"  spans written to {result['trace_file']}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "shaclsat" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
        except WorkerError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 2
        final = report(result, args.trace)
        print(json.dumps(final), flush=True)
        if not final["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
