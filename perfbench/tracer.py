"""Outside-in tracing of the program's layers.

The tracer wraps layer entry points ("seams") by module attribute from the
benchmark's own files; the program itself carries no instrumentation.  A
seam that does not exist is listed as missing instead of failing the run,
so the benchmark survives refactors that rename or delete internals.

A span records its name, the instance (operation) id, its parent, start
and end.  Spans nest as driver (``bounded_sat`` / ``check_containment``)
-> size k -> ground / solve / decode.  A size span opens when a grounder is
built under a driver and closes at the next grounder or when the driver
returns; its confirm time is whatever follows its decode.  A seam entered
again while a span of the same name is open records nothing, so the
outermost call owns the time.  Self time is a span's duration minus the
time its children cover.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "shaclsat"
SIZE = "search.size"
DRIVERS = ("search.bounded_sat", "containment.check")

SPAN, GROUND, COUNT = "span", "ground", "count"

# (module, attribute path, span or counter name, kind); a GROUND seam also
# opens a size span when it runs under one of the DRIVERS
SEAMS = (
    ("turtle", "parse_turtle", "turtle.parse", SPAN),
    ("shapes", "extract_document", "shapes.extract", SPAN),
    ("translate", "translate_tagged", "translate.translate", SPAN),
    ("translate", "translate", "translate.translate", SPAN),
    ("scl_text", "parse_scl", "scl_text.parse", SPAN),
    ("structures", "canonical_structure", "structures.build", SPAN),
    ("structures", "with_constants", "structures.build", SPAN),
    ("structures", "compute_shape_assignment", "structures.assign", SPAN),
    ("validation", "compute_shape_assignment", "structures.assign", SPAN),
    ("structures", "Evaluator.counterexamples", "structures.eval", SPAN),
    ("structures", "Evaluator.sentence", "structures.eval", SPAN),
    ("direct_validation", "validate_direct", "direct_validation.validate", SPAN),
    ("filters", "gamma_with_witnesses", "filters.witness", SPAN),
    ("filters", "axiomatize", "filters.axiomatize", SPAN),
    ("search", "bounded_sat", "search.bounded_sat", SPAN),
    ("containment", "check_containment", "containment.check", SPAN),
    ("search", "_build_catalog", "search.catalog", SPAN),
    ("search", "_Grounder.__init__", "search.ground", GROUND),
    ("containment", "_Grounder.__init__", "search.ground", GROUND),
    ("search", "_Grounder.sentence_lit", "search.ground", SPAN),
    ("search", "_solve_lex_least", "search.solve", SPAN),
    ("search", "_solve_once", "search.solve", SPAN),
    ("search", "_Solver.solve", "search.solver_run", SPAN),
    ("search", "_Solver._analyze", "search.conflicts", COUNT),
    ("search", "_Grounder.decode", "search.decode", SPAN),
)

MAX_K = 6  # the largest domain size any workload searches

# per-layer metric -> (unit, better, span or counter names it is built from)
LAYER_METRICS = {
    "turtle.parse_s": ("s", "lower", ("turtle.parse",)),
    "turtle.triples_per_s": ("1/s", "higher", ("turtle.parse",)),
    "shapes.extract_s": ("s", "lower", ("shapes.extract",)),
    "translate.translate_s": ("s", "lower", ("translate.translate",)),
    "scl_text.parse_s": ("s", "lower", ("scl_text.parse",)),
    "structures.build_s": ("s", "lower", ("structures.build",)),
    "structures.assign_s": ("s", "lower", ("structures.assign",)),
    "structures.eval_s": ("s", "lower", ("structures.eval",)),
    "structures.assign_exp": ("exponent", "lower", ("structures.assign",)),
    "direct_validation.validate_s": ("s", "lower", ("direct_validation.validate",)),
    "direct_validation.validate_exp": ("exponent", "lower", ("direct_validation.validate",)),
    "filters.witness_calls": ("count", "lower", ("filters.witness",)),
    "filters.witness_s": ("s", "lower", ("filters.witness",)),
    "filters.axiomatize_s": ("s", "lower", ("filters.axiomatize",)),
    "search.catalog_s": ("s", "lower", ("search.catalog",)),
    "search.catalog_terms": ("count", "lower", ("search.catalog",)),
    "search.ground_s": ("s", "lower", ("search.ground",)),
    "search.cnf_vars": ("count", "lower", ("search.ground",)),
    "search.cnf_clauses": ("count", "lower", ("search.ground",)),
    **{
        f"search.cnf_{what}.k{k}": ("count", "lower", ("search.ground",))
        for what in ("vars", "clauses")
        for k in range(1, MAX_K + 1)
    },
    "search.solve_s": ("s", "lower", ("search.solve",)),
    "search.propagations": ("count", "lower", ("search.solver_run",)),
    "search.conflicts": ("count", "lower", ("search.conflicts",)),
    "search.props_per_s": ("1/s", "higher", ("search.solver_run", "search.solve")),
    "search.solver_runs": ("count", "lower", ("search.solver_run",)),
    "search.useful_run_ratio": ("ratio", "higher", ("search.ground", "search.solver_run")),
    "search.sizes_tried": ("count", "lower", ("search.ground",)),
    "search.decode_s": ("s", "lower", ("search.decode",)),
    "search.confirm_s": ("s", "lower", ("search.bounded_sat", "search.ground", "search.decode")),
    "containment.confirm_s": ("s", "lower", ("containment.check", "search.ground", "search.decode")),
    "containment.self_s": ("s", "lower", ("containment.check",)),
}


class Span:
    __slots__ = ("id", "name", "instance", "parent", "start", "end", "attrs")

    def __init__(self, id, name, instance, parent, start):
        self.id, self.name, self.instance, self.parent = id, name, instance, parent
        self.start, self.end, self.attrs = start, start, {}

    def to_json(self) -> dict:
        return {
            "id": self.id, "name": self.name, "instance": self.instance, "parent": self.parent,
            "start": self.start, "end": self.end,
            **{k: v for k, v in self.attrs.items() if isinstance(v, (int, float, str))},
        }


def _after_parse(sp, args, result):
    sp.attrs["triples"] = len(result.triples)


def _after_catalog(sp, args, result):
    sp.attrs["terms"] = len(result)


def _after_solver_run(sp, args, result):
    sp.attrs["props"] = args[0].propagations


# exact counters reported per instance: span name -> counter name
INSTANCE_COUNTERS = {
    "filters.witness": "witness_calls",
    "search.solver_run": "solver_runs",
    SIZE: "sizes_tried",
}

AFTER = {
    "turtle.parse": _after_parse,
    "search.catalog": _after_catalog,
    "search.solver_run": _after_solver_run,
}


class Tracer:
    def __init__(self, seams=SEAMS) -> None:
        self.seams = seams
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.instance = ""
        self.enabled = False
        self.wrapped: set[str] = set()  # span/counter names with at least one live seam
        self.missing_seams: list[str] = []
        self._stack: list[Span] = []
        self._open: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self._wrappers: set[int] = set()

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, path, name, kind in self.seams:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            if "." in path:
                cls_name, attr = path.split(".", 1)
                owner = getattr(module, cls_name, None)
                target = vars(owner).get(attr) if isinstance(owner, type) else None
            else:
                owner, attr = None, path
                target = getattr(module, path, None)
            if not callable(target):
                self.missing_seams.append(f"{module_name}.{path}")
                continue
            self.wrapped.add(name)
            if id(target) in self._wrappers:
                continue  # an alias of a seam already wrapped
            wrapper = self._wrap(target, name, kind)
            self._wrappers.add(id(wrapper))
            if owner is not None:
                self._replace(owner, attr, wrapper)
            else:
                # replace the function under every name any module of the
                # package binds it to (``from .x import f`` makes aliases)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is target:
                            self._replace(m, key, wrapper)

    def _replace(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self._wrappers.clear()

    def _wrap(self, fn, name, kind):
        tracer = self
        after = AFTER.get(name)
        if kind == COUNT:
            def counted(*args, **kwargs):
                if tracer.enabled:
                    tracer.counts[(name, tracer.instance)] += 1
                return fn(*args, **kwargs)
            return counted

        def wrapper(*args, **kwargs):
            if not tracer.enabled or tracer._open[name]:
                return fn(*args, **kwargs)
            size = tracer._begin_size(args[0]) if kind == GROUND and args else None
            sp = tracer._push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(sp)
            if after is not None:
                try:
                    after(sp, args, result)
                except (AttributeError, TypeError):
                    pass  # a hook that no longer fits the seam records nothing
            if size is not None:
                size.attrs["k"] = getattr(args[0], "k", 0)
            if name == "search.decode" and sp.parent is not None:
                parent = tracer.spans[sp.parent]
                if parent.name == SIZE:
                    parent.attrs["decoded"] = sp.end
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- spans ----------------------------------------------------------------

    def reset(self) -> None:
        self.spans, self._stack = [], []
        self.counts = Counter()
        self._open = Counter()

    def _push(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, self.instance, parent, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        self._open[name] += 1
        return sp

    def _pop(self, sp: Span) -> None:
        # size spans stay open after their grounder returns; close them
        # when the span they sit under ends
        while self._stack:
            top = self._stack.pop()
            self._end(top)
            if top is sp:
                return

    def _end(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._open[sp.name] -= 1
        if sp.name == SIZE:
            cnf = getattr(sp.attrs.pop("grounder", None), "cnf", None)
            if cnf is not None:
                sp.attrs["vars"] = cnf.n_vars
                sp.attrs["clauses"] = len(cnf.clauses)
            if "decoded" in sp.attrs:
                sp.attrs["confirm"] = sp.end - sp.attrs["decoded"]

    def _begin_size(self, grounder):
        if self._stack and self._stack[-1].name == SIZE:
            self._end(self._stack.pop())
        if not self._stack or self._stack[-1].name not in DRIVERS:
            return None
        sp = self._push(SIZE)
        sp.attrs["grounder"] = grounder
        return sp

    # -- summaries --------------------------------------------------------------

    def summarize(self) -> dict:
        """Raw per-pass sums: seconds and calls per span name, counters,
        size-span totals, per-instance seconds per span name, and the
        search counters of each instance."""
        seconds: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        attrs: dict[str, float] = defaultdict(float)
        per_instance: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        counters: dict[str, Counter] = defaultdict(Counter)
        for (name, instance), n in self.counts.items():
            counters[instance][name.split(".")[-1]] += n
        for sp in self.spans:
            duration = sp.end - sp.start
            if sp.parent is not None:
                child_time[sp.parent] += duration
            per_instance[f"{sp.name}@{sp.instance}"] += duration
            if sp.name in INSTANCE_COUNTERS:
                counters[sp.instance][INSTANCE_COUNTERS[sp.name]] += 1
                if "props" in sp.attrs:
                    counters[sp.instance]["propagations"] += sp.attrs["props"]
            if sp.name == SIZE:
                driver = self.spans[sp.parent].name
                calls[SIZE] += 1
                k = sp.attrs.get("k", 0)
                for what in ("vars", "clauses"):
                    attrs[f"cnf_{what}"] += sp.attrs.get(what, 0)
                    attrs[f"cnf_{what}.k{k}"] += sp.attrs.get(what, 0)
                attrs[f"confirm@{driver}"] += sp.attrs.get("confirm", 0.0)
                continue
            seconds[sp.name] += duration
            calls[sp.name] += 1
            for key in ("triples", "terms", "props"):
                if key in sp.attrs:
                    attrs[key] += sp.attrs[key]
        for sp in self.spans:
            if sp.name == "containment.check":
                attrs["containment_self"] += (sp.end - sp.start) - child_time[sp.id]
        return {
            "seconds": dict(seconds),
            "calls": dict(calls),
            "counts": dict(sum(counters.values(), Counter())),
            "instance_counters": {inst: dict(c) for inst, c in counters.items()},
            "attrs": dict(attrs),
            "per_instance": dict(per_instance),
        }

    def missing_metrics(self) -> dict[str, str]:
        out = {}
        for metric, (_, _, needs) in LAYER_METRICS.items():
            absent = [n for n in needs if n not in self.wrapped]
            if absent:
                tried = [f"{m}.{p}" for m, p, n, _ in self.seams if n in absent]
                out[metric] = "no seam found for " + ", ".join(absent) + " (tried " + ", ".join(tried) + ")"
        return out


def _slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) over log(size)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx if sxx else 0.0


def layer_metrics(summaries: list[dict], sizes: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics over traced passes: the least of each per-pass sum
    (for counters, which repeat exactly, any pass gives the same value).

    `sizes` maps the validate instance ids to their data-graph triples, for
    the cost-curve exponents.
    """

    def best(get) -> float:
        return min(get(s) for s in summaries)

    def secs(name):
        return best(lambda s: s["seconds"].get(name, 0.0))

    def calls(name):
        return best(lambda s: s["calls"].get(name, 0))

    def attr(key):
        return best(lambda s: s["attrs"].get(key, 0))

    solve_s = secs("search.solve") or secs("search.solver_run")
    runs = calls("search.solver_run")
    parse_s = secs("turtle.parse")
    props = attr("props")
    out = {
        "turtle.parse_s": parse_s,
        "turtle.triples_per_s": attr("triples") / parse_s if parse_s else 0.0,
        "shapes.extract_s": secs("shapes.extract"),
        "translate.translate_s": secs("translate.translate"),
        "scl_text.parse_s": secs("scl_text.parse"),
        "structures.build_s": secs("structures.build"),
        "structures.assign_s": secs("structures.assign"),
        "structures.eval_s": secs("structures.eval"),
        "direct_validation.validate_s": secs("direct_validation.validate"),
        "filters.witness_calls": calls("filters.witness"),
        "filters.witness_s": secs("filters.witness"),
        "filters.axiomatize_s": secs("filters.axiomatize"),
        "search.catalog_s": secs("search.catalog"),
        "search.catalog_terms": attr("terms"),
        "search.ground_s": secs("search.ground"),
        "search.cnf_vars": attr("cnf_vars"),
        "search.cnf_clauses": attr("cnf_clauses"),
        "search.solve_s": solve_s,
        "search.propagations": props,
        "search.conflicts": best(lambda s: s["counts"].get("conflicts", 0)),
        "search.props_per_s": props / solve_s if solve_s else 0.0,
        "search.solver_runs": runs,
        "search.useful_run_ratio": calls(SIZE) / runs if runs else 0.0,
        "search.sizes_tried": calls(SIZE),
        "search.decode_s": secs("search.decode"),
        "search.confirm_s": attr("confirm@search.bounded_sat"),
        "containment.confirm_s": attr("confirm@containment.check"),
        "containment.self_s": attr("containment_self"),
    }
    for what in ("vars", "clauses"):
        for k in range(1, MAX_K + 1):
            out[f"search.cnf_{what}.k{k}"] = attr(f"cnf_{what}.k{k}")
    for metric, span, route in (
        ("structures.assign_exp", "structures.assign", "logic"),
        ("direct_validation.validate_exp", "direct_validation.validate", "direct"),
    ):
        points = [
            (size, best(lambda s: s["per_instance"].get(f"{span}@{inst}", 0.0)))
            for inst, size in sizes.items()
            if f".{route}." in inst
        ]
        out[metric] = _slope(points)
    return out
