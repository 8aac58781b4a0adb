"""A graph is read by predicate through its own index (`TripleGraph.forward`
and `.backward`): no module loops over a graph's triples to build an index
of its own.  Only `terms.py`, which owns the index, and the Turtle
serializer, which writes every triple, loop over `.triples`."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shaclsat"
# (module, function) pairs allowed to loop over triples; None allows the whole module
ALLOWED = {("terms.py", None), ("turtle.py", "serialize_turtle")}


def _triple_loops(source: str):
    """(enclosing top-level function or class, line) of each `for` loop or
    comprehension whose iterable reads an attribute `.triples`."""
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
                if any(isinstance(n, ast.Attribute) and n.attr == "triples" for n in ast.walk(node.iter)):
                    yield getattr(top, "name", None), node.iter.lineno


def test_triple_loop_scan_flags_only_loops_over_triples():
    source = (
        "def build(graph):\n"
        "    for s, p, o in graph.triples:\n"
        "        pass\n"
        "    pairs = {(s, o) for s, _, o in sorted(graph.triples, key=k)}\n"
        "    return [t for t in list(self.triples)]\n\n"
        "class Reader:\n"
        "    def read(self, graph):\n"
        "        n = len(graph.triples)\n"
        "        copy = frozenset(graph.triples)\n"
        "        return [p for p, by in graph.forward.items() for s in by]\n\n"
        "async def walk(graph):\n"
        "    async for t in graph.triples:\n"
        "        pass\n"
    )
    assert list(_triple_loops(source)) == [("build", 2), ("build", 4), ("build", 5), ("walk", 14)]


def test_only_the_index_and_the_serializer_loop_over_triples():
    found = [
        f"{path.name}:{line} in {func}"
        for path in sorted(PACKAGE.glob("*.py"))
        for func, line in _triple_loops(path.read_text(encoding="utf-8"))
        if (path.name, None) not in ALLOWED and (path.name, func) not in ALLOWED
    ]
    assert found == []
