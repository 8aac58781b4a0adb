import pytest

from corpus import CYCLIC_PATHS, corpus_documents, doc_ttl, graphs_for
from shaclsat.direct_validation import validate_direct
from shaclsat.shapes import (
    AlternativePath,
    ClassTarget,
    Constraint,
    InversePath,
    NodeTarget,
    PredicatePath,
    RecursiveShapeError,
    SequencePath,
    Shape,
    ShaclDocument,
    ShaclModelError,
    extract_document,
    parse_document,
    split_targets,
    split_targets_with_origin,
)
from shaclsat.terms import Term, TripleGraph, iri
from shaclsat.turtle import parse_turtle

EX = "http://corpus.example/"


def test_fig1_document_extraction():
    doc = parse_document(
        doc_ttl(
            ":studentShape a sh:NodeShape ; sh:targetClass :Student ; sh:not :disjFacultyShape .\n"
            ":disjFacultyShape a sh:PropertyShape ; sh:path (:hasSupervisor :hasFaculty) ; "
            "sh:disjoint :hasFaculty ."
        )
    )
    assert len(doc.shapes) == 2
    student = doc.shape(iri(EX + "studentShape"))
    assert not student.is_property_shape
    assert student.targets == (ClassTarget(iri(EX + "Student")),)
    assert student.constraints == (Constraint("not_", (iri(EX + "disjFacultyShape"),)),)
    disj = doc.shape(iri(EX + "disjFacultyShape"))
    assert disj.is_property_shape
    assert disj.path == SequencePath(
        (PredicatePath(iri(EX + "hasSupervisor")), PredicatePath(iri(EX + "hasFaculty")))
    )
    assert disj.constraints == (Constraint("disjoint", (iri(EX + "hasFaculty"),)),)


def test_empty_graph_extracts_empty_document():
    assert parse_document(doc_ttl("")).shapes == ()


def test_undefined_reference_materializes_empty_shape():
    doc = parse_document(doc_ttl(":s a sh:NodeShape ; sh:targetClass :P ; sh:not :ghost ."))
    ghost = doc.shape(iri(EX + "ghost"))
    assert ghost.constraints == () and ghost.targets == ()


@pytest.mark.parametrize("count", ['"٣"^^xsd:integer', '"３"', '"1_0"', '"+"', '"3.0"', ":three"])
def test_counts_are_ascii_integers(count):
    # read as the integer datatypes are, so a count Python's int() would accept is still malformed
    with pytest.raises(ShaclModelError, match="expects an integer"):
        parse_document(doc_ttl(f":s a sh:PropertyShape ; sh:path :r ; sh:minCount {count} ."))


@pytest.mark.parametrize("body, message", [
    (':s a sh:PropertyShape ; sh:path "x" .', 'cannot interpret property path node "x"'),
    (":s a sh:PropertyShape ; sh:path [ sh:alternativePath :l ] .",
     "malformed RDF collection at <http://corpus.example/l>"),
    (':s a sh:PropertyShape ; sh:path :r ; sh:minCount "x" .', 'min_count expects an integer, got "x"'),
    (':s a sh:PropertyShape ; sh:path :r ; sh:equals "x" .',
     'shape <http://corpus.example/s> has an ill-formed sh:equals value "x"'),
    (":s a sh:NodeShape ; sh:not :t .\n:t a sh:NodeShape ; sh:not :s .",
     "recursive shape reference: <http://corpus.example/s> -> <http://corpus.example/t>"
     " -> <http://corpus.example/s>"),
    *((body, "cyclic property path at _:b0") for body in CYCLIC_PATHS),
])
def test_extraction_errors_write_terms_in_n_triples(body, message):
    with pytest.raises(ShaclModelError) as err:
        parse_document(doc_ttl(body))
    assert str(err.value) == message


def test_a_path_node_in_two_list_members_is_no_cycle():
    doc = parse_document(doc_ttl(":s a sh:PropertyShape ; sh:path ( _:x _:x ) .\n_:x sh:inversePath :r ."))
    inverse = InversePath(PredicatePath(iri(EX + "r")))
    assert doc.shapes[0].path == SequencePath((inverse, inverse))


def test_counts_read_signs_and_zero_padding():
    doc = parse_document(doc_ttl(':s a sh:PropertyShape ; sh:path :r ; sh:minCount "+007" ; sh:maxLength " 4 " .'))
    assert {c.kind: c.args for c in doc.shapes[0].constraints} == {"min_count": (7,), "max_length": (4,)}


def test_invalid_pattern_rejected_and_named():
    with pytest.raises(ShaclModelError, match=r"invalid sh:pattern '\(': missing \)"):
        parse_document(doc_ttl(':s a sh:PropertyShape ; sh:path :r ; sh:pattern "(" .'))


def test_multiple_paths_rejected():
    with pytest.raises(ShaclModelError):
        parse_document(doc_ttl(":s a sh:PropertyShape ; sh:path :r ; sh:path :q ."))


def test_declared_property_shape_without_path_rejected():
    with pytest.raises(ShaclModelError):
        parse_document(doc_ttl(":s a sh:PropertyShape ; sh:minCount 1 ."))


def test_recursive_reference_rejected():
    with pytest.raises(RecursiveShapeError):
        parse_document(doc_ttl(":s a sh:NodeShape ; sh:not :s ."))
    with pytest.raises(RecursiveShapeError):
        parse_document(
            doc_ttl(":s a sh:NodeShape ; sh:not :t .\n:t a sh:NodeShape ; sh:node :s .")
        )


def test_inverse_path_pushdown_preserved_in_ast():
    doc = parse_document(
        doc_ttl(
            ":s a sh:PropertyShape ; sh:targetClass :P ; "
            "sh:path [ sh:inversePath [ sh:alternativePath (:r :q) ] ] ; sh:minCount 1 ."
        )
    )
    shape = doc.shape(iri(EX + "s"))
    assert isinstance(shape.path, InversePath)
    assert isinstance(shape.path.inner, AlternativePath)


def test_qualified_constraint_carries_counts_and_siblings():
    doc = parse_document(
        doc_ttl(
            ":parent a sh:NodeShape ; sh:property :s ; sh:property :s2 .\n"
            ":s a sh:PropertyShape ; sh:path :r ; sh:qualifiedValueShape :t ; "
            "sh:qualifiedMinCount 1 ; sh:qualifiedMaxCount 2 ; "
            "sh:qualifiedValueShapesDisjoint true .\n"
            ":s2 a sh:PropertyShape ; sh:path :r ; sh:qualifiedValueShape :u .\n"
            ":t a sh:NodeShape .\n:u a sh:NodeShape ."
        )
    )
    shape = doc.shape(iri(EX + "s"))
    (qualified,) = [c for c in shape.constraints if c.kind == "qualified"]
    ref, lo, hi, siblings = qualified.args
    assert (ref, lo, hi) == (iri(EX + "t"), 1, 2)
    assert siblings == (iri(EX + "u"),)


class _CountedTriples(frozenset):
    """A triple set that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_sibling_shapes_do_not_rescan_the_graph():
    """Extraction passes over the triples as often for 20 disjoint
    qualified shapes as for 2: a shape's parents come from an index."""
    passes = []
    for n in (2, 20):
        body = f":parent a sh:NodeShape ; {' ; '.join(f'sh:property :s{i}' for i in range(n))} .\n"
        body += "".join(
            f":s{i} sh:path :r ; sh:qualifiedValueShape :t{i} ; sh:qualifiedMinCount 1 ; "
            "sh:qualifiedValueShapesDisjoint true .\n"
            for i in range(n)
        )
        graph = TripleGraph(_CountedTriples(parse_turtle(doc_ttl(body)).triples))
        doc = extract_document(graph)
        passes.append(graph.triples.passes)
        (qualified,) = [c for c in doc.shape(iri(EX + "s0")).constraints if c.kind == "qualified"]
        others = sorted((iri(EX + f"t{i}") for i in range(1, n)), key=Term.sort_key)
        assert qualified.args[3] == tuple(others)
    assert passes[0] == passes[1]


def _disjoint_siblings(n: int) -> str:
    body = f":parent a sh:NodeShape ; {' ; '.join(f'sh:property :s{i}' for i in range(n))} .\n"
    return doc_ttl(body + "".join(
        f":s{i} sh:path :r ; sh:qualifiedValueShape :t{i % (n - 2)} ; sh:qualifiedMinCount 1 ; "
        "sh:qualifiedValueShapesDisjoint true .\n"
        for i in range(n)
    ))


def test_sibling_shapes_are_each_parents_sorted_list_without_the_shape(monkeypatch):
    # :s0 names :t0 and :tx, :s1 names :t1, :s2 names :t0 and hangs under a
    # second parent too
    doc = parse_document(doc_ttl(
        ":p a sh:NodeShape ; sh:property :s0 , :s1 , :s2 .\n:q a sh:NodeShape ; sh:property :s2 , :s3 .\n"
        ":s0 sh:path :r ; sh:qualifiedValueShape :t0 , :tx ; sh:qualifiedValueShapesDisjoint true .\n"
        ":s1 sh:path :r ; sh:qualifiedValueShape :t1 ; sh:qualifiedValueShapesDisjoint true .\n"
        ":s2 sh:path :r ; sh:qualifiedValueShape :t0 ; sh:qualifiedValueShapesDisjoint true .\n"
        ":s3 sh:path :r ; sh:qualifiedValueShape :t3 ; sh:qualifiedValueShapesDisjoint true .\n"
    ))
    siblings = {
        (shape.name.lexical[len(EX):], c.args[0].lexical[len(EX):]): [t.lexical[len(EX):] for t in c.args[3]]
        for shape in doc.shapes for c in shape.constraints if c.kind == "qualified"
    }
    assert siblings == {
        ("s0", "t0"): ["t1"], ("s0", "tx"): ["t0", "t1"], ("s1", "t1"): ["t0", "tx"],
        ("s2", "t0"): ["t1", "t3", "tx"], ("s3", "t3"): ["t0"],
    }
    # each parent's list is sorted once, so the sorting grows with the siblings
    calls = []
    sort_key = Term.sort_key
    for n in (100, 400):
        graph = parse_turtle(_disjoint_siblings(n))
        counted = [0]
        monkeypatch.setattr(Term, "sort_key", lambda term: counted.__setitem__(0, counted[0] + 1) or sort_key(term))
        doc = extract_document(graph)
        monkeypatch.undo()
        calls.append(counted[0])
        (qualified,) = [c for c in doc.shape(iri(EX + "s0")).constraints if c.kind == "qualified"]
        assert qualified.args[3] == tuple(sorted((iri(EX + f"t{i}") for i in range(1, n - 2)), key=sort_key))
    assert calls[1] < 5 * calls[0]  # four times the siblings; a sort per shape makes it 16 times


def test_split_multi_target_shape():
    doc = parse_document(
        doc_ttl(":s a sh:NodeShape ; sh:targetClass :A ; sh:targetNode :n ; sh:nodeKind sh:IRI .")
    )
    out = split_targets(doc)
    assert len(out.shapes) == 2
    assert sorted(len(s.targets) for s in out.shapes) == [1, 1]
    names = {s.name for s in out.shapes}
    assert iri(EX + "s") in names


def test_split_referenced_shape_gets_target_free_copy():
    doc = parse_document(
        doc_ttl(
            ":s a sh:NodeShape ; sh:targetClass :A ; sh:node :t .\n"
            ":t a sh:NodeShape ; sh:targetNode :n ; sh:targetClass :B ; sh:nodeKind sh:IRI ."
        )
    )
    out = split_targets(doc)
    t = out.shape(iri(EX + "t"))
    assert t.targets == ()  # referenced copy keeps the name, loses targets
    copies = [s for s in out.shapes if s.name != s.name or s.name.lexical.startswith(EX + "t--")]
    assert len([s for s in out.shapes if s.name.lexical.startswith(EX + "t--")]) == 2


def test_split_copy_names_and_origin():
    doc = parse_document(
        doc_ttl(
            ":s a sh:NodeShape ; sh:node :t .\n"
            ":t a sh:NodeShape ; sh:targetNode :n ; sh:targetClass :B .\n"
            ":u a sh:NodeShape ; sh:targetNode :n1 , :n2 ; sh:targetClass :A .\n"
            ":v a sh:NodeShape ; sh:targetNode :n ; sh:targetClass :B .\n"
            "<http://corpus.example/v--t1> a sh:NodeShape ; sh:nodeKind sh:IRI ."
        )
    )
    out, origin = split_targets_with_origin(doc)
    assert [(s.name.lexical[len(EX):], s.targets) for s in out.shapes] == [
        ("s", ()),
        ("t", ()),
        ("t--t0", (NodeTarget(iri(EX + "n")),)),
        ("t--t1", (ClassTarget(iri(EX + "B")),)),
        ("u", (NodeTarget(iri(EX + "n1")),)),
        ("u--t1", (NodeTarget(iri(EX + "n2")),)),
        ("u--t2", (ClassTarget(iri(EX + "A")),)),
        ("v", (NodeTarget(iri(EX + "n")),)),
        ("v--t1-1", (ClassTarget(iri(EX + "B")),)),
        ("v--t1", ()),
    ]
    assert {k.lexical[len(EX):]: v.lexical[len(EX):] for k, v in origin.items()} == {
        "s": "s",
        "t": "t",
        "t--t0": "t",
        "t--t1": "t",
        "u": "u",
        "u--t1": "u",
        "u--t2": "u",
        "v": "v",
        "v--t1-1": "v",
        "v--t1": "v--t1",
    }


def test_split_is_idempotent():
    for _, text in corpus_documents():
        doc = parse_document(text)
        once = split_targets(doc)
        assert split_targets(once) == once


def test_split_preserves_validation_semantics():
    docs = [parse_document(text) for _, text in corpus_documents()]
    graphs = graphs_for(seed=11, count=50)
    for doc in docs:
        split = split_targets(doc)
        for graph in graphs:
            assert validate_direct(graph, doc).conforms == validate_direct(graph, split).conforms


def test_duplicate_shape_names_rejected():
    shape = Shape(name=iri(EX + "s"))
    with pytest.raises(ShaclModelError):
        ShaclDocument((shape, shape))
