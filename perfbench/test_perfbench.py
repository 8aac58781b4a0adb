"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench -p "test_*.py"

Run from the root of a checkout.  They run small slices of the workloads
in-process, plus two short subprocesses for the hash-seed check.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from tracer import SEAMS, SPAN, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, PersonGraph, expected_violations, make_ops  # noqa: E402

api = worker.load_program()

FLIPPED_OUTCOME = {
    "Sat": "UnsatUpTo",
    "UnsatUpTo": "Sat",
    "NotContained": "NoCounterexampleUpTo",
    "NoCounterexampleUpTo": "NotContained",
}


def pick(workload: str, *ids: str, seed: int = 3):
    ops = {op.id: op for op in make_ops(workload, seed)}
    return [ops[i] for i in ids]


def flip(op):
    if op.kind == "validate":
        return dataclasses.replace(op, expect=op.expect - {min(op.expect)})
    return dataclasses.replace(op, expect=FLIPPED_OUTCOME[op.expect])


def traced_pass(ops, seams=SEAMS):
    tracer = Tracer(seams)
    tracer.install()
    try:
        result = worker.run_pass(api, ops, tracer)
    finally:
        tracer.uninstall()
    return result, tracer


def quick_ops():
    return (
        pick("validate", "validate.logic.r0", "validate.direct.r0")
        + pick("search_sat", "sat.domino.one.SO", "contains.weaker_min_count")
        + pick("search_unsat", "sat.domino.empty_h.SO", "contains.stronger_min_count")
    )


def shape(op):
    expect = len(op.expect) if isinstance(op.expect, frozenset) else op.expect
    return op.id, op.size, op.max_domain, expect


class GenerationTest(unittest.TestCase):
    def test_same_seed_gives_same_inputs(self):
        for workload in WORKLOADS:
            self.assertEqual(make_ops(workload, 7), make_ops(workload, 7))

    def test_seed_changes_inputs_but_not_their_shape(self):
        for workload in WORKLOADS:
            a, b = make_ops(workload, 1), make_ops(workload, 2)
            if workload != "search_unsat":  # the gadgets take no seed
                self.assertNotEqual([op.text for op in a], [op.text for op in b])
            self.assertEqual([shape(op) for op in a], [shape(op) for op in b])

    def test_reference_violations_by_reachability(self):
        # p0 -> p1 <-> p2, p3 -> p1 and a literal; p0 has two ages, p2 a bad one
        g = PersonGraph(
            n=5,
            knows=[[1], [2], [1], [1, "lit"], []],
            ages=[[("20", True), ("21", True)], [("30", True)], [("x", False)],
                  [("40", True)], [("50", True)]],
            order=[0, 1, 2, 3, 4],
        )
        self.assertEqual(expected_violations(g, "ns:"),
                         {"<ns:p0>", "<ns:p2>", "<ns:p3>", "<ns:p4>"})


class ReferenceTest(unittest.TestCase):
    def test_every_flipped_answer_is_caught(self):
        ops = quick_ops()
        clean = worker.run_pass(api, ops)
        self.assertEqual((clean["problems"], clean["failed"]), ([], 0))
        for i, op in enumerate(ops):
            bad = list(ops)
            bad[i] = flip(op)
            result = worker.run_pass(api, bad)
            self.assertEqual(len(result["problems"]), 1, op.id)
            self.assertEqual(result["failed"], 0, "a wrong answer is not a failed operation")
            self.assertEqual(result["digest"], clean["digest"])

    def test_flipped_answer_fails_the_run(self):
        ops = quick_ops()
        self.assertTrue(worker.measure(api, ops, 0.01, trace=False)["correct"])
        ops[0] = flip(ops[0])
        self.assertFalse(worker.measure(api, ops, 0.01, trace=False)["correct"])


class TracerTest(unittest.TestCase):
    def test_traced_and_untraced_outputs_match(self):
        ops = quick_ops() + pick("search_sat", "sat.filters8")
        plain = worker.run_pass(api, ops)
        traced, tracer = traced_pass(ops)
        self.assertEqual(plain["digest"], traced["digest"])
        self.assertEqual(traced["problems"], [])
        self.assertEqual(tracer.missing_seams, [])
        counters = tracer.summarize()["instance_counters"]["sat.filters8"]
        self.assertEqual(counters["witness_calls"], 1024)
        self.assertEqual(counters["solver_runs"], 12)
        self.assertEqual(counters["sizes_tried"], 4)

    def test_uninstall_restores_the_program(self):
        before = {name: getattr(api, name) for name in ("bounded_sat", "parse_turtle", "validate")}
        grounder_init = sys.modules["shaclsat.search"]._Grounder.__init__
        traced_pass(pick("search_sat", "sat.domino.one.SO"))
        self.assertEqual({name: getattr(api, name) for name in before}, before)
        self.assertIs(sys.modules["shaclsat.search"]._Grounder.__init__, grounder_init)

    def test_missing_seam_is_listed_and_solve_time_survives(self):
        # as after deleting the minimisation pass: no _solve_lex_least seam
        seams = tuple(s for s in SEAMS if s[1] not in ("_solve_lex_least", "_solve_once"))
        seams += (("search", "_solve_lex_least_renamed", "search.solve", SPAN),)
        ops = pick("search_sat", "sat.filters8")
        _, tracer = traced_pass(ops, seams)
        self.assertEqual(tracer.missing_seams, ["search._solve_lex_least_renamed"])
        self.assertIn("search.solve_s", tracer.missing_metrics())
        layers = layer_metrics([tracer.summarize()], {})
        self.assertEqual(layers["search.solver_runs"], 12)
        self.assertGreater(layers["search.solve_s"], 0)


class HashSeedTest(unittest.TestCase):
    SCRIPT = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); "
        "import test_perfbench as t; "
        "ops = t.pick('search_unsat', 'sat.infinity.STD') + t.pick('search_sat', 'sat.filters8'); "
        "_, tracer = t.traced_pass(ops); "
        "print(json.dumps(tracer.summarize()['instance_counters'], sort_keys=True))"
    )

    def test_counters_match_under_two_hash_seeds(self):
        outputs = []
        for hash_seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-c", self.SCRIPT, str(HERE)],
                env=dict(os.environ, PYTHONHASHSEED=hash_seed),
                capture_output=True, text=True, timeout=300, check=True,
            )
            outputs.append(json.loads(proc.stdout.splitlines()[-1]))
        self.assertEqual(outputs[0], outputs[1])
        self.assertEqual(outputs[0]["sat.infinity.STD"]["propagations"], 518809)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_prints(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(spec["paths"], [HERE.name])
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), WORKLOADS)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
                         run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
