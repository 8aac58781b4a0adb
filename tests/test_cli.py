import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from corpus import CYCLIC_PATHS, corpus_documents, doc_ttl, graphs_for
from shaclsat.cli import dispatch
from shaclsat.terms import TripleGraph
from shaclsat.turtle import serialize_turtle

FIG1_SHAPES = doc_ttl(
    ":studentShape a sh:NodeShape ; sh:targetClass :Student ; sh:not :disjFacultyShape .\n"
    ":disjFacultyShape a sh:PropertyShape ; sh:path (:hasSupervisor :hasFaculty) ; "
    "sh:disjoint :hasFaculty ."
)

FIG1_GRAPH = """
@prefix : <http://corpus.example/> .
:Alex a :Student ; :hasFaculty :CS ; :hasSupervisor :Jane .
:Jane :hasFaculty :CS .
"""


@pytest.fixture()
def files(tmp_path):
    shapes = tmp_path / "shapes.ttl"
    shapes.write_text(FIG1_SHAPES)
    graph = tmp_path / "graph.ttl"
    graph.write_text(FIG1_GRAPH)
    return tmp_path, shapes, graph


def test_validate_conforms_exit_zero(files, capsys):
    _, shapes, graph = files
    code = dispatch(["validate", str(graph), str(shapes)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out == {"conforms": True, "violations": []}


def test_validate_violation_exit_one(files, capsys):
    tmp_path, shapes, _ = files
    bad = tmp_path / "bad.ttl"
    bad.write_text(FIG1_GRAPH.replace(":Jane :hasFaculty :CS", ":Jane :hasFaculty :Physics"))
    code = dispatch(["validate", str(bad), str(shapes)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and not out["conforms"]
    assert out["violations"] == [
        {"focusNode": "<http://corpus.example/Alex>", "shape": "<http://corpus.example/studentShape>"}
    ]
    assert dispatch(["validate", "--direct", str(bad), str(shapes)]) == 1
    capsys.readouterr()


def test_classify_fig1(files, capsys):
    _, shapes, _ = files
    code = dispatch(["classify", str(shapes)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["status"] == "Decidable"
    assert out["rawFeatures"] == ["D", "S"]


def test_translate_back_translate_pipe(files, tmp_path, capsys):
    _, shapes, graph = files
    assert dispatch(["translate", str(shapes)]) == 0
    scl_text = capsys.readouterr().out
    scl_file = tmp_path / "out.scl"
    scl_file.write_text(scl_text)
    assert dispatch(["back-translate", str(scl_file)]) == 0
    turtle = capsys.readouterr().out
    back = tmp_path / "back.ttl"
    back.write_text(turtle)
    assert dispatch(["validate", str(graph), str(back)]) == 0
    capsys.readouterr()


def test_sat_exit_codes(files, tmp_path, capsys):
    _, shapes, _ = files
    assert dispatch(["sat", str(shapes)]) == 0
    capsys.readouterr()
    unsat = tmp_path / "unsat.ttl"
    unsat.write_text(
        doc_ttl(
            ":s a sh:NodeShape ; sh:targetNode :c ; sh:in (:c) ; sh:not :t .\n"
            ":t a sh:NodeShape ; sh:in (:c) ."
        )
    )
    code = dispatch(["sat", str(unsat)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out == {"outcome": "UnsatUpTo", "bound": 4}


def test_sat_budget_abort_exit_two(tmp_path, capsys):
    hard = tmp_path / "hard.scl"
    from shaclsat.gadgets import gadget_infinity
    from shaclsat.scl_text import print_scl

    hard.write_text(print_scl(gadget_infinity("O")))
    code = dispatch(["sat", str(hard), "--max-domain", "6", "--budget", "0.01"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["outcome"] == "Aborted"


def test_sat_long_integer_catalog_answers_within_budget(tmp_path, capsys):
    # canonical forms up to 20,000 characters: the family count is two
    # interval intersections, not one step per length
    doc = tmp_path / "long.ttl"
    doc.write_text(
        doc_ttl(
            ":s a sh:NodeShape ; sh:targetNode :a ; sh:property :p .\n"
            ":p a sh:PropertyShape ; sh:path :r ; sh:minCount 1 ; "
            "sh:datatype xsd:integer ; sh:maxLength 20000 ."
        )
    )
    start = time.perf_counter()
    code = dispatch(["sat", str(doc), "--budget", "2"])
    elapsed = time.perf_counter() - start
    assert code == 0 and json.loads(capsys.readouterr().out)["outcome"] == "Sat"
    assert elapsed < 2.0


def test_sat_open_integer_range_with_huge_max_length_answers_within_budget(tmp_path, capsys):
    # an open integer range closed by sh:maxLength: past the digits the
    # cardinality cap reaches, the length is clamped before any power of 10
    doc = tmp_path / "open.ttl"
    doc.write_text(
        doc_ttl(
            ":s a sh:NodeShape ; sh:targetNode :a ; sh:property :p .\n"
            ":p a sh:PropertyShape ; sh:path :r ; sh:minCount 1 ; "
            "sh:datatype xsd:integer ; sh:minInclusive 0 ; sh:maxLength 30000000 ."
        )
    )
    start = time.perf_counter()
    code = dispatch(["sat", str(doc), "--budget", "2"])
    elapsed = time.perf_counter() - start
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["outcome"] == "Sat"
    assert out["model"]["domain"] == ["<http://corpus.example/a>", '"0"^^<http://www.w3.org/2001/XMLSchema#integer>']
    assert elapsed < 1.0


def test_catalog_short_of_witnesses_answers_aborted_not_a_refutation(tmp_path, capsys):
    # `:a :name "qq"` conforms, yet no draw reads the pattern, so the
    # catalog holds no witness of "^q": neither search may refute the document
    shapes = tmp_path / "q.ttl"
    shapes.write_text(doc_ttl(
        ":s a sh:NodeShape ; sh:targetNode :a ; sh:property [ sh:path :name ; "
        'sh:minCount 1 ; sh:datatype xsd:string ; sh:pattern "^q" ] .'
    ))
    graph = tmp_path / "graph.ttl"
    graph.write_text(doc_ttl(':a :name "qq" .'))
    no_name = tmp_path / "no-name.ttl"
    no_name.write_text(doc_ttl(":t a sh:NodeShape ; sh:targetNode :a ; sh:property [ sh:path :name ; sh:maxCount 0 ] ."))
    assert dispatch(["validate", "--direct", str(graph), str(shapes)]) == 0
    capsys.readouterr()
    reason = (
        "filter catalog incomplete at k=2: too few witnesses of (and (filter datatype "
        '<http://www.w3.org/2001/XMLSchema#string>) (filter pattern "^q"))'
    )
    for args in (["sat", shapes], ["contains", shapes, no_name]):
        assert dispatch([str(a) for a in args]) == 2
        assert json.loads(capsys.readouterr().out) == {"outcome": "Aborted", "reason": reason}


def test_catalog_cap_answers_aborted_naming_the_cap(tmp_path, capsys):
    # 13 pairwise compatible filters: 8,192 combinations, past the cap of
    # 4,096; the least model needs a free slot, so a catalog is built
    shapes = tmp_path / "lengths.ttl"
    shapes.write_text(doc_ttl(":s a sh:NodeShape ; sh:targetNode :a ; " + " ; ".join(
        f"sh:property [ sh:path :p{n} ; sh:minCount 1 ; sh:minLength {n} ]" for n in range(100, 113)
    ) + " ."))
    assert dispatch(["sat", str(shapes)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "outcome": "Aborted", "reason": "filter catalog cap reached: more than 4096 filter combinations"
    }


def test_cap_flags_say_what_they_cap(capsys):
    from shaclsat.filters import COMBINATION_CAP

    for command, text in (("sat", "read only with --axiomatize"), ("axiomatize", "the axioms list")):
        with pytest.raises(SystemExit):
            dispatch([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert text in out and f"(default: {COMBINATION_CAP})" in out


def test_contains_exit_codes(tmp_path, capsys):
    d1 = tmp_path / "d1.ttl"
    d2 = tmp_path / "d2.ttl"
    d1.write_text(doc_ttl(":s a sh:PropertyShape ; sh:targetClass :A ; sh:path :r ; sh:minCount 2 ."))
    d2.write_text(doc_ttl(":s a sh:PropertyShape ; sh:targetClass :A ; sh:path :r ; sh:minCount 1 ."))
    assert dispatch(["contains", str(d1), str(d2)]) == 0
    capsys.readouterr()
    code = dispatch(["contains", str(d2), str(d1)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and "counterexampleTurtle" in out


def test_rewrite_and_axiomatize(tmp_path, capsys):
    scl = tmp_path / "f.scl"
    scl.write_text(
        "(at <http://e/c> (count>= 1 (alt (rel <http://e/P>) (rel <http://e/Q>)) (top)))"
    )
    assert dispatch(["rewrite", str(scl), "--eliminate", "A"]) == 0
    out = capsys.readouterr().out
    assert "(alt" not in out
    assert dispatch(["rewrite", str(scl), "--name-subformulas"]) == 0
    capsys.readouterr()
    scl.write_text("(at <http://e/c> (filter datatype <http://www.w3.org/2001/XMLSchema#boolean>))")
    assert dispatch(["axiomatize", str(scl)]) == 0
    assert "at-most 2" in capsys.readouterr().out


def test_gadget_subcommands(tmp_path, capsys):
    assert dispatch(["gadget", "infinity", "C"]) == 0
    assert "count>= 2" in capsys.readouterr().out
    tiling = tmp_path / "t.json"
    tiling.write_text('{"tiles": ["t"], "horizontal": [["t","t"]], "vertical": [["t","t"]]}')
    assert dispatch(["gadget", "domino", "SZAE", str(tiling)]) == 0
    capsys.readouterr()


def test_stdin_dash(files, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("(top)"))
    assert dispatch(["classify", "-", "--lang", "scl"]) == 0
    capsys.readouterr()


def test_usage_error_exit_64(capsys):
    assert dispatch(["no-such-command"]) == 64
    capsys.readouterr()
    assert dispatch(["sat"]) == 64
    capsys.readouterr()
    assert dispatch(["validate", "/nonexistent/path.ttl", "/nonexistent/shapes.ttl"]) == 64
    capsys.readouterr()


def test_parse_error_exit_65(tmp_path, capsys):
    bad = tmp_path / "bad.ttl"
    bad.write_text(":س :p .")
    assert dispatch(["validate", str(bad), str(bad)]) == 65
    capsys.readouterr()
    bad_scl = tmp_path / "bad.scl"
    for text in ("(nonsense", "(at <http://e/c> (count>= \u00b2 (rel <http://e/r>) (top)))"):
        bad_scl.write_text(text)
        assert dispatch(["classify", str(bad_scl), "--lang", "scl"]) == 65
        capsys.readouterr()


def test_non_decimal_digit_integer_is_a_violation_on_both_routes(tmp_path, capsys):
    shapes = tmp_path / "shapes.ttl"
    shapes.write_text(doc_ttl(
        ":s a sh:PropertyShape ; sh:targetNode :a ; sh:path :p ; sh:datatype xsd:integer ."
    ))
    graph = tmp_path / "graph.ttl"
    graph.write_text(doc_ttl(':a :p "\u00b2"^^xsd:integer .'))
    for route in ([], ["--direct"]):
        assert dispatch(["validate", *route, str(graph), str(shapes)]) == 1
        assert json.loads(capsys.readouterr().out)["violations"] == [
            {"focusNode": "<http://corpus.example/a>", "shape": "<http://corpus.example/s>"}
        ]


def test_text_output_mode(files, capsys):
    _, shapes, graph = files
    assert dispatch(["--output", "text", "validate", str(graph), str(shapes)]) == 0
    assert "conforms" in capsys.readouterr().out
    assert dispatch(["--output", "text", "classify", str(shapes)]) == 0
    out = capsys.readouterr().out
    assert "Decidable" in out and "finite-model property" in out
    assert dispatch(["--output", "text", "sat", str(shapes)]) == 0
    assert capsys.readouterr().out.startswith("Sat")


def test_crash_exits_70_without_traceback(files, capsys, monkeypatch):
    _, shapes, graph = files

    def crash(graph, doc):
        raise KeyError("engine bug")

    monkeypatch.setattr("shaclsat.cli.validate", crash)
    assert dispatch(["validate", str(graph), str(shapes)]) == 70
    err = capsys.readouterr().err
    assert err == "internal error: KeyError: 'engine bug'\n"  # one line, no traceback


def test_wide_in_list_never_reads_as_violation(tmp_path, capsys):
    values = " ".join(f":v{i}" for i in range(400))
    shapes = tmp_path / "shapes.ttl"
    shapes.write_text(doc_ttl(f":s a sh:NodeShape ; sh:targetNode :v0 ; sh:in ({values}) ."))
    graph = tmp_path / "graph.ttl"
    graph.write_text(doc_ttl(":v0 :p :v1 ."))
    for argv in (["validate", str(graph), str(shapes)], ["translate", str(shapes)],
                 ["classify", str(shapes)]):
        assert dispatch(argv) == 0
        assert "Traceback" not in capsys.readouterr().err


def test_wide_in_under_property_shape_agrees_on_both_routes(tmp_path, capsys):
    values = " ".join(f":v{i}" for i in range(300))
    shapes = tmp_path / "shapes.ttl"
    shapes.write_text(doc_ttl(
        f":s a sh:NodeShape ; sh:targetNode :a ; sh:property [ sh:path :p ; sh:in ({values}) ] ."
    ))
    graph = tmp_path / "graph.ttl"
    graph.write_text("@prefix : <http://corpus.example/> .\n:a :p :v1 , :w .\n")
    reports = []
    for extra in ([], ["--direct"]):
        assert dispatch(["validate", *extra, str(graph), str(shapes)]) == 1
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0] == reports[1] == {
        "conforms": False,
        "violations": [{"focusNode": "<http://corpus.example/a>", "shape": "<http://corpus.example/s>"}],
    }


def test_many_shapes_answer_on_every_command(tmp_path, capsys):
    count = 1200
    graph = tmp_path / "graph.ttl"
    graph.write_text(doc_ttl("\n".join(f":n{i} a :C{i % 5} ." for i in range(0, count, 2))))
    focus_nodes = []
    # the second document adds a blank shape per shape: 2,400 shapes
    for constraint in ("sh:class :C{} .", "sh:not [ sh:class :C{} ] ."):
        shapes = tmp_path / "shapes.ttl"
        shapes.write_text(doc_ttl("\n".join(
            f":s{i} a sh:NodeShape ; sh:targetNode :n{i} ; " + constraint.format(i % 3)
            for i in range(count)
        )))
        reports = []
        for extra in ([], ["--direct"]):
            assert dispatch(["validate", *extra, str(graph), str(shapes)]) == 1
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        focus_nodes.append({v["focusNode"] for v in json.loads(reports[0])["violations"]})
        assert dispatch(["translate", str(shapes)]) == 0
        assert dispatch(["classify", str(shapes)]) == 0
        capsys.readouterr()
        assert dispatch(["sat", str(shapes), "--max-domain", "2"]) != 70
        assert "internal error" not in capsys.readouterr().err
    assert len(focus_nodes[0]) > count // 2
    # every focus node violates exactly one of the two documents
    assert focus_nodes[0].isdisjoint(focus_nodes[1])
    assert len(focus_nodes[0] | focus_nodes[1]) == count


@pytest.mark.parametrize(
    "text, defect",
    [
        ("(def-shape <http://e/s> (not (hasshape <http://e/s>)))",
         "recursive shape definition <http://e/s>"),
        ("(def-shape <http://e/s> (hasshape <http://e/s>))",
         "recursive shape definition <http://e/s>"),
        ("(and (def-shape <http://e/s> (top)) (def-shape <http://e/s> (top)))",
         "duplicate shape definition <http://e/s>"),
        ("(at <http://e/a> (hasshape <http://e/t>))",
         "missing shape definition <http://e/t>"),
    ],
    ids=["negated-self", "self", "duplicate", "missing"],
)
def test_sat_ill_formed_sentence_exit_65(tmp_path, capsys, text, defect):
    scl = tmp_path / "ill.scl"
    scl.write_text(text)
    assert dispatch(["sat", str(scl)]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert defect in captured.err and "Traceback" not in captured.err


def test_back_translate_names_the_ill_formed_defect(tmp_path, capsys):
    scl = tmp_path / "ill.scl"
    scl.write_text("(at <http://e/a> (hasshape <http://e/t>))")
    assert dispatch(["back-translate", str(scl)]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: sentence is not well formed: missing shape definition <http://e/t>\n"
    )


def test_deep_not_chain_classifies_and_axiomatizes(tmp_path, capsys):
    depth = 10_000
    scl = tmp_path / "deep.scl"
    scl.write_text("(at <http://e/c> " + "(not " * depth + "(top)" + ")" * depth + ")")
    assert dispatch(["classify", str(scl)]) == 0
    assert json.loads(capsys.readouterr().out)["rawFeatures"] == []
    assert dispatch(["axiomatize", str(scl)]) == 0
    assert capsys.readouterr().out.count("(not ") == depth


def _node_chain(length: int, closed: bool) -> str:
    """:s0 targets :a; each :s{i} refers to :s{i+1} by sh:node; the last
    shape checks a class, or closes the chain back to :s0."""
    body = [f":s{i} a sh:NodeShape ; sh:node :s{i + 1} ." for i in range(1, length)]
    tail = "sh:node :s0 ." if closed else "sh:class :C ."
    return doc_ttl(
        ":s0 a sh:NodeShape ; sh:targetNode :a ; sh:node :s1 .\n"
        + "\n".join(body)
        + f"\n:s{length} a sh:NodeShape ; {tail}\n"
    )


def test_long_node_chain_translates_and_validates(tmp_path, capsys):
    shapes = tmp_path / "shapes.ttl"
    shapes.write_text(_node_chain(1500, closed=False))
    graph = tmp_path / "graph.ttl"
    graph.write_text(doc_ttl(":a a :C ."))
    assert dispatch(["translate", str(shapes)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    for extra in ([], ["--direct"]):
        assert dispatch(["validate", *extra, str(graph), str(shapes)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"conforms": True, "violations": []}
        assert "Traceback" not in captured.err


def test_long_node_cycle_names_the_recursive_reference(tmp_path, capsys):
    shapes = tmp_path / "shapes.ttl"
    shapes.write_text(_node_chain(1500, closed=True))
    graph = tmp_path / "graph.ttl"
    graph.write_text(doc_ttl(":a a :C ."))
    assert dispatch(["validate", str(graph), str(shapes)]) == 65
    captured = capsys.readouterr()
    assert captured.out == "" and "recursive shape reference" in captured.err
    assert "<http://corpus.example/s1500> -> " in captured.err and "Term(" not in captured.err


def test_long_path_list_gives_one_report_on_both_routes(tmp_path, capsys):
    steps = " ".join([":p"] * 1500)
    shapes = tmp_path / "shapes.ttl"
    shapes.write_text(doc_ttl(
        f":most a sh:PropertyShape ; sh:targetNode :a , :b ; sh:path ({steps}) ; sh:maxCount 1 .\n"
        f":least a sh:PropertyShape ; sh:targetNode :a , :b ; sh:path ({steps}) ; sh:minCount 1 .\n"
    ))
    graph = tmp_path / "graph.ttl"
    # 1500 steps reach {:a, :c} from :a and {:b} from :b
    graph.write_text(doc_ttl(":a :p :a , :c .\n:b :p :b ."))
    reports = []
    for extra in ([], ["--direct"]):
        assert dispatch(["validate", *extra, str(graph), str(shapes)]) == 1
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0] == reports[1] == {
        "conforms": False,
        "violations": [{"focusNode": "<http://corpus.example/a>", "shape": "<http://corpus.example/most>"}],
    }


@pytest.mark.parametrize("numeral", ["²", "٣"])
def test_non_ascii_numeral_in_turtle_exits_65_on_both_routes(tmp_path, capsys, numeral):
    shapes = tmp_path / "shapes.ttl"
    shapes.write_text(FIG1_SHAPES)
    graph = tmp_path / "graph.ttl"
    graph.write_text(f"@prefix : <http://corpus.example/> .\n:a :p {numeral} .\n", encoding="utf-8")
    for route in ([], ["--direct"]):
        assert dispatch(["validate", *route, str(graph), str(shapes)]) == 65
        assert "expected prefixed name" in capsys.readouterr().err


@pytest.mark.parametrize("opener, closer, code", [("[ :p ", " ]", 1), ("( ", " )", 0)])
def test_deeply_nested_data_gets_a_verdict_on_both_routes(tmp_path, capsys, opener, closer, code):
    # every subject of :p must have blank :p values; the innermost [ :p :o ]
    # does not, and a collection's head is the only :p value of :s
    shapes = tmp_path / "shapes.ttl"
    shapes.write_text(doc_ttl(
        ":s a sh:PropertyShape ; sh:targetSubjectsOf :p ; sh:path :p ; sh:nodeKind sh:BlankNode ."
    ))
    graph = tmp_path / "graph.ttl"
    graph.write_text(doc_ttl(":a :p " + opener * 2000 + ":o" + closer * 2000 + " ."))
    reports = []
    for route in ([], ["--direct"]):
        assert dispatch(["validate", *route, str(graph), str(shapes)]) == code
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0] == reports[1]
    assert len(reports[0]["violations"]) == code


def test_integer_of_5000_digits_answers_on_both_routes(tmp_path, capsys):
    big = "1" * 5000
    shapes = tmp_path / "shapes.ttl"
    shapes.write_text(doc_ttl(
        ":s a sh:PropertyShape ; sh:targetNode :a , :b ; sh:path :p ;\n"
        "  sh:datatype xsd:integer ; sh:minInclusive 5 ."
    ))
    graph = tmp_path / "graph.ttl"
    graph.write_text(doc_ttl(f':a :p {big} .\n:b :p "-{big}"^^xsd:integer .'))
    for route in ([], ["--direct"]):
        assert dispatch(["validate", *route, str(graph), str(shapes)]) == 1
        assert json.loads(capsys.readouterr().out)["violations"] == [
            {"focusNode": "<http://corpus.example/b>", "shape": "<http://corpus.example/s>"}
        ]


@pytest.mark.parametrize("bounds", [
    "sh:minInclusive {big}",
    "sh:datatype xsd:integer ; sh:minInclusive {big} ; sh:maxInclusive {big}",
])
def test_sat_with_a_5000_digit_bound_answers(tmp_path, capsys, bounds):
    big = "1" * 5000
    shapes = tmp_path / "shapes.ttl"
    shapes.write_text(doc_ttl(
        ":s a sh:PropertyShape ; sh:targetNode :a ; sh:path :p ; sh:minCount 1 ;\n"
        f"  {bounds.format(big=big)} ."
    ))
    assert dispatch(["sat", str(shapes)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["model"]["domain"] == [
        "<http://corpus.example/a>", f'"{big}"^^<http://www.w3.org/2001/XMLSchema#integer>'
    ]


@pytest.mark.parametrize("count", ['"٣"^^xsd:integer', '"1_0"'])
def test_count_in_other_than_ascii_digits_exits_65(tmp_path, capsys, count):
    shapes = tmp_path / "shapes.ttl"
    shapes.write_text(doc_ttl(f":s a sh:PropertyShape ; sh:targetNode :a ; sh:path :p ; sh:minCount {count} ."))
    assert dispatch(["sat", str(shapes)]) == 65
    assert "min_count expects an integer" in capsys.readouterr().err


def test_scl_integer_of_5000_digits_exits_65(tmp_path, capsys):
    scl = tmp_path / "big.scl"
    scl.write_text(f"(at <http://e/c> (count>= {'1' * 5000} (rel <http://e/r>) (top)))")
    assert dispatch(["classify", str(scl)]) == 65
    assert "integer too long" in capsys.readouterr().err


def test_lang_string_datatype_is_satisfiable_on_both_searches(tmp_path, capsys):
    shapes = tmp_path / "shapes.ttl"
    shapes.write_text(doc_ttl(
        ":s a sh:PropertyShape ; sh:targetNode :a ; sh:path :p ; sh:minCount 1 ;\n"
        "  sh:datatype <http://www.w3.org/1999/02/22-rdf-syntax-ns#langString> ."
    ))
    assert dispatch(["sat", str(shapes)]) == 0
    assert json.loads(capsys.readouterr().out)["model"]["domain"] == [
        "<http://corpus.example/a>", '"s0"@x-t0'
    ]
    assert dispatch(["sat", "--axiomatize", str(shapes)]) == 0
    capsys.readouterr()


_BIG = "1" * 5000


@pytest.mark.parametrize("bounds, code, value", [
    (f"sh:datatype xsd:decimal ; sh:minInclusive {_BIG}", 0,
     f'"{_BIG[:-1]}2"^^<http://www.w3.org/2001/XMLSchema#decimal>'),
    (f"sh:datatype xsd:decimal ; sh:minInclusive {_BIG}.5 ; sh:maxInclusive {_BIG}.5", 0,
     f'"{_BIG}.5"^^<http://www.w3.org/2001/XMLSchema#decimal>'),
    # past the float range, only INF is a double
    (f"sh:datatype xsd:double ; sh:minInclusive {_BIG}", 0,
     '"INF"^^<http://www.w3.org/2001/XMLSchema#double>'),
    (f"sh:datatype xsd:double ; sh:maxExclusive -{_BIG}", 0,
     '"-INF"^^<http://www.w3.org/2001/XMLSchema#double>'),
    (f"sh:datatype xsd:double ; sh:minInclusive {_BIG} ; sh:maxInclusive {_BIG}", 1, None),
    # INF meets an inclusive INF bound; no decimal meets an INF lower bound,
    # and every decimal meets a -INF one
    ('sh:datatype xsd:double ; sh:minInclusive "INF"^^xsd:double', 0,
     '"INF"^^<http://www.w3.org/2001/XMLSchema#double>'),
    ('sh:datatype xsd:double ; sh:minExclusive "INF"^^xsd:double', 1, None),
    ('sh:datatype xsd:decimal ; sh:minInclusive "-INF"^^xsd:double', 0,
     '"1.0"^^<http://www.w3.org/2001/XMLSchema#decimal>'),
    ('sh:datatype xsd:decimal ; sh:minInclusive "INF"^^xsd:double', 1, None),
], ids=["decimal", "decimal-point", "double", "double-below", "double-point",
        "double-inf", "double-past-inf", "decimal-above-minus-inf", "decimal-inf"])
def test_sat_with_a_dense_bound_past_the_float_range_answers(tmp_path, capsys, bounds, code, value):
    shapes = tmp_path / "shapes.ttl"
    shapes.write_text(doc_ttl(
        f":s a sh:PropertyShape ; sh:targetNode :a ; sh:path :p ; sh:minCount 1 ; {bounds} ."
    ))
    assert dispatch(["sat", str(shapes)]) == code
    out = json.loads(capsys.readouterr().out)
    if value is not None:
        assert out["model"]["domain"] == ["<http://corpus.example/a>", value]
    # the axiomatized search names its elements, so only its verdict is compared
    assert dispatch(["sat", "--axiomatize", str(shapes)]) == code
    capsys.readouterr()


@pytest.mark.parametrize("facets", [
    "sh:minCount 1 ; sh:datatype xsd:decimal ; sh:maxInclusive -5",
    "sh:minCount 1 ; sh:datatype xsd:decimal ; sh:maxExclusive 0",
    "sh:minCount 2 ; sh:datatype xsd:decimal ; sh:maxInclusive 0",
    "sh:minCount 1 ; sh:datatype xsd:double ; sh:maxExclusive -2.5",
], ids=["below-minus-5", "below-0", "two-up-to-0", "double-below"])
def test_dense_family_with_only_an_upper_bound_at_or_below_0_is_sat_on_both_searches(
    tmp_path, capsys, facets
):
    shapes = tmp_path / "shapes.ttl"
    shapes.write_text(doc_ttl(f":s a sh:PropertyShape ; sh:targetNode :a ; sh:path :p ; {facets} ."))
    for args in (["sat"], ["sat", "--axiomatize"]):
        assert dispatch([*args, str(shapes)]) == 0
        assert json.loads(capsys.readouterr().out)["outcome"] == "Sat"


def test_count_of_5000_digits_translates_and_answers(tmp_path, capsys):
    shapes = tmp_path / "shapes.ttl"
    shapes.write_text(doc_ttl(f":s a sh:PropertyShape ; sh:targetNode :a ; sh:path :p ; sh:minCount {_BIG} ."))
    assert dispatch(["translate", str(shapes)]) == 0
    assert f"(count>= {_BIG} (rel <http://corpus.example/p>)" in capsys.readouterr().out
    for args in (["sat"], ["sat", "--axiomatize"]):
        assert dispatch([*args, str(shapes)]) == 1
        assert json.loads(capsys.readouterr().out)["outcome"] == "UnsatUpTo"


def test_invalid_pattern_exits_65_on_every_route(tmp_path, capsys):
    shapes = tmp_path / "shapes.ttl"
    shapes.write_text(doc_ttl(':s a sh:PropertyShape ; sh:targetNode :a ; sh:path :p ; sh:pattern "(" .'))
    graph = tmp_path / "graph.ttl"
    graph.write_text(doc_ttl(':a :p "x" .'))
    scl = tmp_path / "pattern.scl"
    scl.write_text('(at <http://e/a> (filter pattern "("))')
    for args in (["sat", shapes], ["validate", graph, shapes], ["validate", "--direct", graph, shapes],
                 ["sat", scl]):
        assert dispatch([str(a) for a in args]) == 65
        assert "pattern '(': missing )" in capsys.readouterr().err


@pytest.mark.parametrize("body", CYCLIC_PATHS)
def test_cyclic_property_path_exits_65_on_every_route(tmp_path, capsys, body):
    shapes = tmp_path / "shapes.ttl"
    shapes.write_text(doc_ttl(body))
    graph = tmp_path / "graph.ttl"
    graph.write_text(doc_ttl(":alice :q :bob ."))
    for args in (["translate", shapes], ["validate", graph, shapes], ["validate", "--direct", graph, shapes],
                 ["sat", shapes], ["contains", shapes, shapes], ["contains", graph, shapes]):
        assert dispatch([str(a) for a in args]) == 65
        assert "cyclic property path at _:b0" in capsys.readouterr().err


@pytest.mark.parametrize("param", [
    "equals", "disjoint", "lessThan", "lessThanOrEquals", "targetSubjectsOf", "targetObjectsOf",
])
def test_relation_name_that_is_no_iri_exits_65_in_contains(tmp_path, capsys, param):
    # a literal cannot name a relation of the counterexample graph
    shapes = tmp_path / "shapes.ttl"
    shapes.write_text(doc_ttl(
        f':s a sh:PropertyShape ; sh:targetNode :a ; sh:path :p ; sh:class :C ; sh:{param} "x" .'
    ))
    other = tmp_path / "other.ttl"
    other.write_text(doc_ttl(":t a sh:PropertyShape ; sh:targetNode :a ; sh:path :p ; sh:maxCount 0 ."))
    for pair in ((shapes, other), (other, shapes)):
        assert dispatch(["contains", *map(str, pair)]) == 65
        err = capsys.readouterr().err
        assert f'ill-formed sh:{param} value "x"' in err and "Term(" not in err


@pytest.mark.parametrize("name", ['"x"', "_:b"])
def test_scl_relation_name_that_is_no_iri_exits_65(tmp_path, capsys, name):
    scl = tmp_path / "rel.scl"
    scl.write_text(f"(at <http://e/c> (count>= 1 (rel {name}) (top)))")
    for command in ("sat", "back-translate"):
        assert dispatch([command, str(scl)]) == 65
        assert f"expected iri, got {name}" in capsys.readouterr().err


def _deep_sentence(depth: int) -> str:
    """`depth` nested levels cycling through not, and, an existential over
    a sequence and a counting quantifier, around an existential over an
    optional path and one over an alternative."""
    p, q, c = "(rel <http://e/p>)", "(rel <http://e/q>)", "(eq <http://e/c>)"
    text = f"(and (count>= 1 (opt {p}) {c}) (count>= 1 (alt {p} {q}) {c}))"
    levels = (
        "(not {})", "(and {} " + c + ")", f"(count>= 1 (seq {p} {q}) {{}})", f"(count>= 2 {p} {{}})"
    )
    for i in range(depth):
        text = levels[i % 4].format(text)
    return f"(at <http://e/c> {text})"


@pytest.mark.parametrize("flags, gone", [
    (["--eliminate", "S"], "(seq "),
    (["--eliminate", "Z"], "(opt "),
    (["--eliminate", "A"], "(alt "),
    (["--eliminate", "SZA"], "(seq "),
    (["--name-subformulas"], None),
])
def test_deep_formula_rewrites(tmp_path, capsys, flags, gone):
    scl = tmp_path / "deep.scl"
    scl.write_text(_deep_sentence(700))
    assert dispatch(["rewrite", *flags, str(scl)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if gone is None:
        assert captured.out.count("(def-shape ") == 351
    else:
        assert gone not in captured.out


def test_deep_formula_back_translates(tmp_path, capsys):
    scl = tmp_path / "deep.scl"
    scl.write_text(_deep_sentence(1000))
    assert dispatch(["back-translate", str(scl)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    shapes = tmp_path / "deep.ttl"
    shapes.write_text(captured.out)
    assert dispatch(["translate", str(shapes)]) == 0
    # 1,004 distinct subformulas and 502 property shapes
    assert capsys.readouterr().out.count("(def-shape ") == 1506


def test_deep_formulas_are_grounded_in_both_modes(tmp_path, capsys):
    """A 300-way `sh:in` (a right-folded disjunction) and the 1,000-deep
    formula are grounded without recursion in both model modes."""
    values = " ".join(f":v{i}" for i in range(300))
    shapes = tmp_path / "in.ttl"
    shapes.write_text(doc_ttl(f":s a sh:NodeShape ; sh:targetNode :a ; sh:in ({values}) ."))
    scl = tmp_path / "deep.scl"
    scl.write_text(_deep_sentence(1000))
    # canonical mode needs a slot per constant, so 301 constants fit no size
    expected = {(shapes, "canonical"): (1, "UnsatUpTo"), (shapes, "uninterpreted"): (0, "Sat"),
                (scl, "canonical"): (0, "Sat"), (scl, "uninterpreted"): (0, "Sat")}
    verdicts = {}
    for (path, mode), (code, outcome) in expected.items():
        assert dispatch(["sat", "--model-mode", mode, "--max-domain", "2", str(path)]) == code
        captured = capsys.readouterr()
        assert captured.err == ""
        verdicts[path, mode] = json.loads(captured.out)
        assert verdicts[path, mode]["outcome"] == outcome, (path.name, mode)
    assert verdicts[shapes, "uninterpreted"]["model"]["domain"] == ["<urn:shaclsat:elem:0>"]


@pytest.mark.parametrize("path", [
    "(" + " ".join([":p"] * 1500) + ")",
    "[ sh:alternativePath (" + " ".join(f":p{i}" for i in range(1500)) + ") ]",
])
def test_long_path_list_and_alternative_sat_and_rewrite(tmp_path, capsys, path):
    shapes = tmp_path / "shapes.ttl"
    shapes.write_text(doc_ttl(
        f":s a sh:PropertyShape ; sh:targetNode :a ; sh:path {path} ; sh:minCount 1 ."
    ))
    assert dispatch(["sat", "--max-domain", "2", str(shapes)]) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == "Sat"
    assert dispatch(["translate", str(shapes)]) == 0
    scl = tmp_path / "long.scl"
    scl.write_text(capsys.readouterr().out)
    assert dispatch(["rewrite", "--eliminate", "SZA", str(scl)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "(seq " not in captured.out and "(alt " not in captured.out


# Runs the CLI commands read from stdin in one process, after building and
# keeping argv[1] unrelated terms, and prints (exit code, stdout, stderr)
# per command as JSON.
_RUN_SHIFTED = """
import contextlib, io, json, sys
from shaclsat.terms import iri
kept = [iri(f"http://shift.example/{i}") for i in range(int(sys.argv[1]))]
from shaclsat.cli import dispatch
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_outputs_do_not_depend_on_where_terms_live(tmp_path):
    """Terms hash by identity, so set and dict orders follow their
    addresses; every output must not.  Two fresh interpreters, one with
    thousands of terms allocated first, give byte-identical results."""
    names = ("fig1", "path_zero_or_more", "prop_qualified_disjoint", "prop_less_than",
             "prop_unique_lang", "node_or", "node_in", "prop_closed")
    docs = dict(corpus_documents())
    data = tmp_path / "data.ttl"
    triples = frozenset().union(*(g.triples for g in graphs_for(11, 8, 12)))
    data.write_text(serialize_turtle(TripleGraph(triples)))
    commands = []
    for name, other in zip(names, names[1:] + names[:1]):
        (tmp_path / f"{name}.ttl").write_text(docs[name])
        path, other_path = str(tmp_path / f"{name}.ttl"), str(tmp_path / f"{other}.ttl")
        commands += [
            ["validate", str(data), path],
            ["validate", "--direct", str(data), path],
            ["sat", "--max-domain", "3", "--budget", "1000", path],
            ["contains", "--max-domain", "3", "--budget", "1000", path, other_path],
        ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "0"}
    runs = [
        subprocess.run([sys.executable, "-c", _RUN_SHIFTED, shift], input=json.dumps(commands),
                       capture_output=True, text=True, env=env, check=True).stdout
        for shift in ("0", "3000")
    ]
    assert runs[0] == runs[1]
    codes = [code for code, _, _ in json.loads(runs[0])]
    assert 0 in codes[0::4] + codes[1::4] and 1 in codes[0::4] + codes[1::4]
    assert codes[0::4] == codes[1::4]
