"""Seeded inputs and reference answers for the benchmark workloads.

Every input is text the program parses (Turtle or logic text), built from
the seed during set-up.  The seed changes names and the wiring of the data
graphs, never the shape of a question: sizes, thresholds, cycle lengths
and violation counts are fixed, so that the spread between runs on
different seeds measures the program and the machine rather than the draw.
Names are drawn under one seeded namespace that sorts before every other
IRI in the inputs, so that the program's term order, and with it the
search order, is the same on every seed.

Answers come from outside the program: the validation reference is plain
reachability over the generator's own edge lists, and every search
question has its answer by construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("validate", "search_sat", "search_unsat")

XSD = "http://www.w3.org/2001/XMLSchema#"
PREFIXES = (
    "@prefix sh: <http://www.w3.org/ns/shacl#> .\n"
    f"@prefix xsd: <{XSD}> .\n"
)

# data-graph ladder: persons per rung, in the ratio 1:2:4
LADDER = (250, 500, 1000)
TAIL_SHARE = 10  # one person in ten has no incoming :knows edge
VIOLATION_SHARE = 10  # one person in ten carries a planted violation
VIOLATION_KINDS = ("min_count", "node_kind", "datatype", "max_count")

SEARCH_BUDGET_S = 150.0  # far above any instance; Aborted counts as failed


@dataclass(frozen=True)
class Op:
    """One operation of a pass: the program's inputs and the reference answer.

    `kind` is ``validate`` (text = data, shapes), ``sat`` (text = one
    document, Turtle when `lang` is ``ttl``, logic text when ``scl``) or
    ``contains`` (text = two shape documents).  For ``validate`` `expect`
    is the set of violating focus nodes in N-Triples spelling; for the
    others it is the verdict's outcome.
    """

    id: str
    kind: str
    text: tuple[str, ...]
    expect: object
    route: str = ""  # validate: "logic" or "direct"
    lang: str = ""
    mode: Optional[str] = None  # bounded_sat mode; None = the program's default
    axiomatize: bool = False
    max_domain: int = 0
    model_size: Optional[int] = None  # smallest model, where known by construction
    size: int = 0  # triples in the data graph (validate), for the cost curve


def namespace(seed: int) -> str:
    # "http://bench." sorts before "http://www.w3.org/" and "urn:shaclsat:"
    return f"http://bench.example/s{seed}/"


def make_ops(workload: str, seed: int) -> list[Op]:
    if workload == "validate":
        return validate_ops(seed)
    if workload == "search_sat":
        return search_sat_ops(seed)
    if workload == "search_unsat":
        return search_unsat_ops(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# --------------------------------------------------------------------------
# validate: the person shape over a ladder of data graphs
# --------------------------------------------------------------------------


def person_shapes(ns: str) -> str:
    return PREFIXES + f"@prefix : <{ns}> .\n" + (
        ":PersonShape a sh:NodeShape ;\n"
        "    sh:targetClass :Person ;\n"
        "    sh:property [ sh:path :knows ; sh:minCount 1 ] ;\n"
        "    sh:property [ sh:path [ sh:zeroOrMorePath :knows ] ; sh:nodeKind sh:IRI ] ;\n"
        "    sh:property [ sh:path :age ; sh:datatype xsd:integer ; sh:maxCount 1 ] .\n"
    )


@dataclass
class PersonGraph:
    """A data graph as the generator's own edge lists.

    `knows[p]` lists person indices and, for a planted node-kind violation,
    a string standing for a literal object.  `ages[p]` lists
    (lexical form, is integer) pairs.
    """

    n: int
    knows: list[list]
    ages: list[list[tuple[str, bool]]]
    order: list[int]  # the order persons are written in


def person_graph(n: int, rng: random.Random) -> PersonGraph:
    """Each person has one random :knows edge; the shape of the graph is fixed.

    Nine persons in ten sit on :knows cycles of about 1.25*sqrt(n) persons,
    the expected cycle-plus-tail length of a random mapping, so the star
    closure grows as it would for fully random edges but is the same size
    on every seed.  The other persons are tails, with no incoming edge,
    pointing into a random cycle.  Planted violations sit where they cannot
    cut a chain: a missing :knows edge or an extra edge to a literal only on
    tails, a bad datatype or a second age on anyone.
    """
    perm = rng.sample(range(n), n)
    tails = n // TAIL_SHARE
    tail_ids, cycle_ids = perm[:tails], perm[tails:]
    length = round(1.25 * math.sqrt(n))
    cycles = max(1, round(len(cycle_ids) / length))
    knows: list[list] = [[] for _ in range(n)]
    start = 0
    for c in range(cycles):
        end = start + len(cycle_ids) // cycles + (1 if c < len(cycle_ids) % cycles else 0)
        ring = cycle_ids[start:end]
        for i, p in enumerate(ring):
            knows[p].append(ring[(i + 1) % len(ring)])
        start = end
    for p in tail_ids:
        knows[p].append(rng.choice(cycle_ids))
    ages = [[(str(rng.randint(18, 90)), True)] for _ in range(n)]

    per_kind = n // VIOLATION_SHARE // len(VIOLATION_KINDS)
    on_tails = rng.sample(tail_ids, 2 * per_kind)
    for p in on_tails[:per_kind]:
        knows[p] = []
    for p in on_tails[per_kind:]:
        knows[p].append(f"lit{p}")
    rest = rng.sample(sorted(set(range(n)) - set(on_tails)), 2 * per_kind)
    for p in rest[:per_kind]:
        ages[p] = [(ages[p][0][0], False)]
    for p in rest[per_kind:]:
        ages[p].append((str(int(ages[p][0][0]) + 1), True))
    return PersonGraph(n, knows, ages, rng.sample(range(n), n))


def person_turtle(g: PersonGraph, ns: str) -> str:
    lines = [PREFIXES, f"@prefix : <{ns}> .\n"]
    for p in g.order:
        objects = [f":p{o}" if isinstance(o, int) else f'"{o}"' for o in g.knows[p]]
        ages = [lex if ok else f'"{lex}"' for lex, ok in g.ages[p]]
        parts = [":Person"]
        if objects:
            parts.append(":knows " + " , ".join(objects))
        parts.append(":age " + " , ".join(ages))
        lines.append(f":p{p} a {' ; '.join(parts)} .\n")
    return "".join(lines)


def triple_count(g: PersonGraph) -> int:
    return sum(1 + len(g.knows[p]) + len(g.ages[p]) for p in range(g.n))


def expected_violations(g: PersonGraph, ns: str) -> frozenset[str]:
    """Focus nodes violating the person shape, by plain reachability."""
    bad = set()
    for p in range(g.n):
        if not g.knows[p] or len(g.ages[p]) > 1 or not all(ok for _, ok in g.ages[p]):
            bad.add(p)
            continue
        seen, stack = {p}, [p]
        while stack:
            q = stack.pop()
            for o in g.knows[q]:
                if isinstance(o, str):  # a literal is not an IRI
                    bad.add(p)
                    stack = []
                    break
                if o not in seen:
                    seen.add(o)
                    stack.append(o)
    return frozenset(f"<{ns}p{p}>" for p in bad)


def validate_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ns = namespace(seed)
    shapes = person_shapes(ns)
    ops = []
    for rung, n in enumerate(LADDER):
        g = person_graph(n, rng)
        data = person_turtle(g, ns)
        expect = expected_violations(g, ns)
        for route in ("logic", "direct"):
            ops.append(
                Op(f"validate.{route}.r{rung}", "validate", (data, shapes), expect,
                   route=route, size=triple_count(g))
            )
    return ops


# --------------------------------------------------------------------------
# search: SHACL questions, filter catalogs, gadgets
# --------------------------------------------------------------------------


def filter_document(ns: str, with_pattern: bool = True) -> str:
    """Eight filters: string, length and pattern facets on :name, integer
    and range facets on :age, an IRI facet on :friend.  Smallest model:
    the focus, one more IRI friend, a name and an age."""
    pattern = ' ; sh:pattern "^a"' if with_pattern else ""
    return PREFIXES + f"@prefix : <{ns}> .\n" + (
        ":FilterShape a sh:NodeShape ; sh:targetNode :alice ;\n"
        "    sh:property [ sh:path :name ; sh:minCount 1 ; sh:datatype xsd:string ;\n"
        f"                  sh:minLength 2 ; sh:maxLength 5{pattern} ] ;\n"
        "    sh:property [ sh:path :age ; sh:minCount 1 ; sh:datatype xsd:integer ;\n"
        "                  sh:minInclusive 18 ; sh:maxInclusive 99 ] ;\n"
        "    sh:property [ sh:path :friend ; sh:minCount 2 ; sh:nodeKind sh:IRI ] .\n"
    )


def property_document(ns: str, shape: str, path: str, facets: str) -> str:
    return PREFIXES + f"@prefix : <{ns}> .\n" + (
        f":{shape} a sh:NodeShape ; sh:targetNode :alice ;\n"
        f"    sh:property [ sh:path {path} ; {facets} ] .\n"
    )


# (id, first document's path and facets, second's, contained?)
CONTAINMENT_PAIRS = (
    ("weaker_min_count", (":knows", "sh:minCount 1"), (":knows", "sh:minCount 2"), False),
    ("weaker_max_count", (":knows", "sh:maxCount 2"), (":knows", "sh:maxCount 1"), False),
    ("dropped_range", (":age", "sh:datatype xsd:integer"),
     (":age", "sh:minInclusive 18"), False),
    ("stronger_min_count", (":knows", "sh:minCount 2"), (":knows", "sh:minCount 1"), True),
    ("star_max_count", ("[ sh:zeroOrMorePath :knows ]", "sh:maxCount 1"),
     (":knows", "sh:maxCount 1"), True),
)
CONTAINMENT_DOMAIN = 4


def containment_ops(seed: int, contained: bool) -> list[Op]:
    ns = namespace(seed)
    ops = []
    for name, (path1, facets1), (path2, facets2), is_contained in CONTAINMENT_PAIRS:
        if is_contained != contained:
            continue
        doc1 = property_document(ns, "First", path1, facets1)
        doc2 = property_document(ns, "Second", path2, facets2)
        expect = "NoCounterexampleUpTo" if contained else "NotContained"
        ops.append(Op(f"contains.{name}", "contains", (doc1, doc2), expect,
                      max_domain=CONTAINMENT_DOMAIN))
    return ops


def tiling_systems():
    from shaclsat import TilingSystem

    def pairs(*ps):
        return frozenset(tuple(p) for p in ps)

    return {
        "one": TilingSystem(("t",), pairs("tt"), pairs("tt")),
        "alternating": TilingSystem(("a", "b"), pairs("ab", "ba"), pairs("ab", "ba")),
        "free": TilingSystem(("a", "b"), pairs("aa", "ab", "ba", "bb"),
                             pairs("aa", "ab", "ba", "bb")),
        "empty_h": TilingSystem(("t",), pairs(), pairs("tt")),
    }


def domino_ops(systems: tuple[str, ...], expect: str) -> list[Op]:
    from shaclsat import gadget_domino, print_scl
    from shaclsat.gadgets import DOMINO_VARIANTS

    catalog = tiling_systems()
    return [
        Op(f"sat.domino.{system}.{variant}", "sat",
           (print_scl(gadget_domino(variant, catalog[system])),), expect,
           lang="scl", mode="uninterpreted", max_domain=4)
        for system in systems
        for variant in DOMINO_VARIANTS
    ]


def search_sat_ops(seed: int) -> list[Op]:
    ns = namespace(seed)
    doc8, doc7 = filter_document(ns), filter_document(ns, with_pattern=False)
    ops = [
        Op("sat.filters8", "sat", (doc8,), "Sat", lang="ttl", max_domain=5, model_size=4),
        Op("sat.filters7", "sat", (doc7,), "Sat", lang="ttl", max_domain=5, model_size=4),
        Op("sat.filters8.axiomatized", "sat", (doc8,), "Sat", lang="ttl",
           mode="uninterpreted", axiomatize=True, max_domain=5),
    ]
    ops += domino_ops(("one", "alternating", "free"), "Sat")
    ops += containment_ops(seed, contained=False)
    return ops


def search_unsat_ops(seed: int) -> list[Op]:
    from shaclsat import gadget_infinity, print_scl
    from shaclsat.gadgets import INFINITY_KINDS

    ops = [
        Op(f"sat.infinity.{kind}", "sat", (print_scl(gadget_infinity(kind)),), "UnsatUpTo",
           lang="scl", mode="uninterpreted", max_domain=6)
        for kind in INFINITY_KINDS
    ]
    ops += domino_ops(("empty_h",), "UnsatUpTo")
    ops += containment_ops(seed, contained=True)
    return ops
