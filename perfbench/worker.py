"""One measured run of one workload, in a fresh interpreter.

run.py starts this script with PYTHONHASHSEED fixed.  It imports the
program from the checkout's ``src/``, builds the workload's inputs from the
seed (set-up), prints ``READY``, and then runs passes over the workload's
operations until the time is up, checking every output against its
reference.  It ends with one ``RESULT`` line of JSON on stdout.

With ``--trace 1`` traced and untraced passes alternate: the traced ones
give the per-layer numbers, and the two kinds together give the tracing
overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, layer_metrics
from workloads import SEARCH_BUDGET_S, WORKLOADS, make_ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"
REPEAT_TARGET_S = 0.15  # an untraced pass repeats an operation until its runs add up to this
REPEATS = 8


def load_program():
    """Import the program from this checkout, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import shaclsat

    location = Path(shaclsat.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise ImportError(f"shaclsat was imported from {location}, not from {SRC}")
    return shaclsat


REFERENCE_NODES = 2000
REFERENCE_KEYS = 50_000
REFERENCE_STEPS = 6000
_rng = random.Random(0)
REFERENCE_GRAPH = [[_rng.randrange(REFERENCE_NODES) for _ in range(3)] for _ in range(REFERENCE_NODES)]
REFERENCE_MAP = {i * 7919 % (4 * REFERENCE_KEYS): _rng.randrange(REFERENCE_KEYS)
                 for i in range(REFERENCE_KEYS)}
REFERENCE_ORDER = [i * 7919 % (4 * REFERENCE_KEYS) for i in range(REFERENCE_KEYS)]
REF_NOMINAL_S = 0.0025  # the reference's time on the machine that the gated times are scaled to


def reference() -> float:
    """Fixed dict- and set-heavy work, timed; it runs right before and
    after each operation's runs on the same core.

    The VM this benchmark was tuned on changes speed by up to 1.6x for tens
    of seconds at a time, as its neighbours come and go.  Scaling each
    operation's time by REF_NOMINAL_S / (the reference's time next to it)
    cancels most of that; a change to the program moves the operation's
    time and not the reference's, so it shows in full.  The work is a walk
    over a small random graph, counting edges in a dict, and a run of
    lookups through a fixed random mapping in a 50,000-entry dict: on five
    operations from short dominoes to the largest validation, their sum
    tracked the program's slowdowns better than either part alone, and far
    better than a pure arithmetic loop (calibrate).  All keys are ints,
    which the cyclic garbage collector does not track, so that no
    collection of the program's objects falls into the reference's time.
    The work runs twice and the second is timed, so that what the
    operation left in the caches does not count.
    """
    for _ in range(2):
        t0 = time.perf_counter()
        edges, seen, stack, counts = REFERENCE_GRAPH, {0}, [0], {}
        while stack:
            q = stack.pop()
            for o in edges[q]:
                key = q * REFERENCE_NODES + o
                counts[key] = counts.get(key, 0) + 1
                if o not in seen:
                    seen.add(o)
                    stack.append(o)
        x, reached = 0, set()
        for _ in range(REFERENCE_STEPS):
            x = REFERENCE_MAP[REFERENCE_ORDER[x]]
            reached.add(x)
    return time.perf_counter() - t0


def calibrate() -> float:
    """A fixed pure-Python loop whose time tracks the machine, not the program."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def run_op(api, op):
    """Run one operation through the public API; returns (result, documents)."""
    if op.kind == "validate":
        graph = api.parse_turtle(op.text[0])
        doc = api.extract_document(api.parse_turtle(op.text[1]))
        route = api.validate if op.route == "logic" else api.validate_direct
        return route(graph, doc), (doc,)
    if op.kind == "sat":
        if op.lang == "ttl":
            doc = api.extract_document(api.parse_turtle(op.text[0]))
            sentence, docs = api.translate(doc), (doc,)
        else:
            sentence, docs = api.parse_scl(op.text[0]), ()
        if op.axiomatize:
            sentence = api.axiomatize(sentence)
        mode = {"mode": op.mode} if op.mode else {}
        verdict = api.bounded_sat(sentence, max_domain=op.max_domain, budget=SEARCH_BUDGET_S, **mode)
        return verdict, docs
    docs = tuple(api.extract_document(api.parse_turtle(text)) for text in op.text)
    verdict = api.check_containment(*docs, max_domain=op.max_domain, budget=SEARCH_BUDGET_S)
    return verdict, docs


def check(api, op, result, docs):
    """None when the output matches the reference, else what is wrong."""
    if op.kind == "validate":
        report = result.to_json()
        got = frozenset(v["focusNode"] for v in report["violations"])
        if got != op.expect:
            return f"{len(got - op.expect)} unexpected and {len(op.expect - got)} missing violations"
        if report["conforms"] != (not op.expect):
            return "conforms flag disagrees with the violations"
        return None
    if result.outcome != op.expect:
        return f"outcome {result.outcome}, expected {op.expect}"
    if result.outcome in ("UnsatUpTo", "NoCounterexampleUpTo"):
        return None if result.bound == op.max_domain else f"bound {result.bound}"
    if op.kind == "sat":
        size = len(result.model.domain)
        if op.model_size is not None and size != op.model_size:
            return f"model of {size} elements, expected {op.model_size}"
        if docs and not op.axiomatize:
            if not api.validate_direct(result.model.to_graph(), docs[0]).conforms:
                return "model does not conform to its document"
        return None
    graph = result.counterexample
    if not api.validate_direct(graph, docs[0]).conforms:
        return "counterexample violates the first document"
    if api.validate_direct(graph, docs[1]).conforms:
        return "counterexample conforms to the second document"
    return None


def timed_run(api, op, tracer=None):
    """Run one operation once; returns (seconds, result, documents, output).

    A crash is a failed operation, not the end of the run: the result is
    None and the output names the exception.
    """
    if tracer is not None:
        tracer.instance, tracer.enabled = op.id, True
    t0 = time.perf_counter()
    try:
        result, docs = run_op(api, op)
    except Exception:  # the run goes on; the crash is reported and counted
        result, docs = None, ()
        error = traceback.format_exc()
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False
    if result is None:
        print(f"{op.id} crashed:\n{error}", file=sys.stderr)
        output = {"error": error.strip().splitlines()[-1]}
    else:
        output = result.to_json()
    return elapsed, result, docs, output


def run_pass(api, ops, tracer=None) -> dict:
    """Time every operation and check its output.

    The reference runs right before and after an operation's runs to scale
    them (see reference()).  Untraced, an operation runs again, up to
    REPEATS times in a row, until its runs add up to REPEAT_TARGET_S, so
    that cheap instances get enough samples; a traced pass runs each
    operation once, so that its counters stay per operation.
    """
    gc.collect()
    times, scaled, refs, outputs, failed, problems, runs = [], [], [], [], 0, [], 0
    for op in ops:
        ref_before = reference()
        best, spent, first, samples = math.inf, 0.0, None, []
        for _ in range(1 if tracer is not None else REPEATS):
            elapsed, result, docs, output = timed_run(api, op, tracer)
            runs += 1
            samples.append(elapsed)
            best, spent = min(best, elapsed), spent + elapsed
            text = json.dumps(output, sort_keys=True)
            if result is None or output.get("outcome") == "Aborted":
                failed += 1
            elif first is None:
                problem = check(api, op, result, docs)
                if problem:
                    problems.append(f"{op.id}: {problem}")
            elif text != first:
                problems.append(f"{op.id}: output differs between repetitions")
            if first is None:
                first = text
                outputs.append(text)
            if result is None or spent >= REPEAT_TARGET_S:
                break
        times.append(best)
        ref = (ref_before + reference()) / 2
        refs.append(ref)
        scaled.append([t * REF_NOMINAL_S / ref for t in samples])
    digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
    return {"times": times, "scaled": scaled, "refs": refs, "digest": digest, "runs": runs,
            "failed": failed, "problems": problems, "traced": tracer is not None}


def middle_mean(values: list[float]) -> float:
    """The mean of the middle half of `values`; their median if fewer than five."""
    values, n = sorted(values), len(values)
    if n < 5:
        return statistics.median(values)
    return statistics.fmean(values[n // 4: n - n // 4])


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def measure(api, ops, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + seconds
    calib = []
    # the first pass also warms up lazy set-up: it is checked, and left out
    # of the scaled times
    passes = [run_pass(api, ops)]
    tracer = summaries = None
    if trace:
        tracer, summaries = Tracer(), []
        tracer.install()
    min_passes = 4 if trace else 3
    timed: list[dict] = []
    try:
        while True:
            traced = trace and len(timed) % 2 == 0
            if traced:
                tracer.reset()
            calib.append(calibrate())
            p = run_pass(api, ops, tracer if traced else None)
            timed.append(p)
            if traced:
                summaries.append(tracer.summarize())
            median_pass = statistics.median(sum(q["times"]) for q in timed)
            if len(timed) >= min_passes and time.perf_counter() + median_pass > deadline:
                break
    finally:
        if trace:
            tracer.uninstall()
    passes += timed

    problems = [msg for p in passes for msg in p["problems"]]
    digests = sorted({p["digest"] for p in passes})
    if len(digests) > 1:
        problems.append(f"outputs differ between passes ({len(digests)} digests)")
    untraced = [p for p in passes if not p["traced"]]
    attempted = sum(p["runs"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    # Each operation does the same work on every pass (its counters repeat
    # exactly), so the spread between its runs is the shared machine's.  The
    # gated times are scaled to the reference speed, and an operation's time
    # is the middle mean of its scaled runs after the first pass, which
    # warms up.
    op_s = [middle_mean([t for p in untraced[1:] for t in p["scaled"][i]]) for i in range(len(ops))]
    wall_s = [min(p["times"][i] for p in untraced) for i in range(len(ops))]
    e2e = {
        "verdict_s": sum(op_s),
        "verdict_geomean_ms": geomean(1000 * t for t in op_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_share": failed / attempted,
        "verdict_wall_s": sum(wall_s),
        "verdict_geomean_wall_ms": geomean(1000 * t for t in wall_s),
    }
    if any(op.kind == "validate" for op in ops):
        for route in ("logic", "direct"):
            e2e[f"{route}_s"] = sum(t for op, t in zip(ops, op_s) if op.route == route)
    out = {
        "correct": not problems,
        "problems": problems[:20],
        "attempted": attempted,
        "failed": failed,
        "digest": digests[0] if len(digests) == 1 else digests,
        "passes": len(timed),
        "traced_passes": len(passes) - len(untraced),
        "end_to_end": e2e,
        "calib_s": statistics.median(calib),
        "ref_s": statistics.median(r for p in untraced[1:] for r in p["refs"]),
        "op_ms": {op.id: 1000 * t for op, t in zip(ops, op_s)},
        "op_wall_ms": {op.id: 1000 * t for op, t in zip(ops, wall_s)},
    }
    if trace:
        sizes = {op.id: op.size for op in ops if op.kind == "validate"}
        traced_s = sum(
            middle_mean([t for p in timed if p["traced"] for t in p["scaled"][i]])
            for i in range(len(ops))
        )
        out["per_layer"] = layer_metrics(summaries, sizes)
        out["instance_counters"] = summaries[0]["instance_counters"]
        out["counters_repeat"] = all(
            s["instance_counters"] == out["instance_counters"] for s in summaries
        )
        out["overhead_pct"] = 100 * (traced_s / e2e["verdict_s"] - 1)
        out["missing"] = tracer.missing_metrics()
        out["missing_seams"] = tracer.missing_seams
        out["spans"] = [sp.to_json() for sp in tracer.spans]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up; used to time set-up on its own")
    args = ap.parse_args(argv)

    api = load_program()
    ops = make_ops(args.workload, args.seed)
    print("READY", flush=True)
    # run.py scales this worker's set-up time as the operations' times are
    print(f"SCALE {REF_NOMINAL_S / statistics.median(reference() for _ in range(3))!r}", flush=True)
    if args.setup_only:
        return 0
    result = measure(api, ops, args.seconds, bool(args.trace))
    result.update(workload=args.workload, seed=args.seed,
                  hashseed=os.environ.get("PYTHONHASHSEED", "random"))
    spans = result.pop("spans", None)
    if spans is not None:
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace_{args.workload}_seed{args.seed}.json"
        path.write_text(json.dumps({"instances": [op.id for op in ops], "spans": spans}))
        result["trace_file"] = str(path.relative_to(ROOT))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
