"""Command line front end.

Exit codes: subcommand-specific outcome codes (documented per command),
64 for usage errors, 65 for parse errors, 70 for internal errors (a broken
engine invariant or any other crash), never a verdict code.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classify import classify
from .containment import check_containment
from .direct_validation import validate_direct
from .filters import COMBINATION_CAP, CapExceeded, axiomatize, has_pattern_filters
from .gadgets import DOMINO_VARIANTS, INFINITY_KINDS, TilingSystem, gadget_domino, gadget_infinity
from .rewrite import name_subformulas, rewrite_sentence
from .scl import IllFormedSentence, SclSentence
from .scl_text import SclSyntaxError, parse_scl, print_scl
from .search import CANONICAL, UNINTERPRETED, ModelConfirmationError, bounded_sat
from .shapes import ShaclModelError, extract_document
from .terms import GENERALIZED, STRICT, StrictModeError
from .translate import NotShaclExpressible, back_translate_graph, translate
from .turtle import ParseError, parse_turtle, serialize_turtle
from .validation import validate

EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's default 2
        raise _UsageError(message)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_graph(path: str, mode: str):
    return parse_turtle(_read(path), mode)


def _load_sentence(path: str, lang: str, mode: str) -> SclSentence:
    if lang == "scl":
        return parse_scl(_read(path))
    return translate(extract_document(_load_graph(path, mode)))


def _build_parser() -> _Parser:
    parser = _Parser(prog="shaclsat", description=__doc__)
    parser.add_argument(
        "--rdf-mode", choices=(STRICT, GENERALIZED), default=GENERALIZED, help="triple graph mode"
    )
    parser.add_argument(
        "--output", choices=("json", "text"), default="json", help="report rendering"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("translate", help="shape document (Turtle) to logic text")
    p.add_argument("shapes")

    p = sub.add_parser("back-translate", help="logic text to a shape document (Turtle)")
    p.add_argument("sentence")

    p = sub.add_parser("validate", help="validate a data graph against a shape document")
    p.add_argument("data")
    p.add_argument("shapes")
    p.add_argument("--direct", action="store_true", help="use the direct AST validator")

    p = sub.add_parser("classify", help="fragment classification of a document or sentence")
    p.add_argument("file")
    p.add_argument("--lang", choices=("auto", "ttl", "scl"), default="auto")

    p = sub.add_parser("sat", help="bounded satisfiability search")
    p.add_argument("file")
    p.add_argument("--lang", choices=("auto", "ttl", "scl"), default="auto")
    p.add_argument("--max-domain", type=int, default=4)
    p.add_argument("--budget", type=float, default=10.0)
    p.add_argument("--axiomatize", action="store_true", help="conjoin the filter axioms first")
    p.add_argument(
        "--cap", type=int, default=COMBINATION_CAP,
        help="most filter combinations --axiomatize lists; read only with --axiomatize "
        "(default: %(default)s)",
    )
    p.add_argument(
        "--model-mode",
        choices=(CANONICAL, UNINTERPRETED, "auto"),
        default="auto",
        help="canonical terms or abstract elements (default: canonical for shapes, uninterpreted for logic text)",
    )

    p = sub.add_parser("contains", help="bounded containment check between two documents")
    p.add_argument("shapes1")
    p.add_argument("shapes2")
    p.add_argument("--max-domain", type=int, default=4)
    p.add_argument("--budget", type=float, default=10.0)

    p = sub.add_parser("axiomatize", help="emit the filter cardinality axioms")
    p.add_argument("sentence")
    p.add_argument(
        "--cap", type=int, default=COMBINATION_CAP,
        help="most filter combinations the axioms list (default: %(default)s)",
    )

    p = sub.add_parser("rewrite", help="apply the semantics-preserving rewrites")
    p.add_argument("sentence")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--eliminate", choices=("S", "Z", "A", "SZA"))
    group.add_argument("--name-subformulas", action="store_true")

    p = sub.add_parser("gadget", help="emit a generator sentence")
    gadget_sub = p.add_subparsers(dest="gadget_kind", required=True)
    gi = gadget_sub.add_parser("infinity")
    gi.add_argument("kind", choices=INFINITY_KINDS)
    gd = gadget_sub.add_parser("domino")
    gd.add_argument("variant", choices=DOMINO_VARIANTS)
    gd.add_argument("tiling", help="JSON file {tiles, horizontal, vertical}")
    return parser


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EX_USAGE
    except (ParseError, SclSyntaxError, StrictModeError, ShaclModelError,
            NotShaclExpressible, CapExceeded, IllFormedSentence, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EX_DATAERR
    except ModelConfirmationError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EX_SOFTWARE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EX_USAGE
    except Exception as err:  # a crash must not read as a verdict exit code
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EX_SOFTWARE


def _report(args, data: dict) -> None:
    if args.output == "json":
        print(json.dumps(data, indent=2))
        return
    if "conforms" in data:
        print("conforms" if data["conforms"] else "does not conform")
        for v in data.get("violations", []):
            print(f"  violation at {v['focusNode']} against {v['shape']}")
    elif "status" in data:
        extra = f" ({data['complexity']})" if data.get("complexity") else ""
        print(f"{data['status']}{extra}, finite-model property: {data['fmp']}")
        print(f"  features {data['rawFeatures']} -> {data['normalizedFeatures']}")
        print(f"  witness: {data['witness']}")
    elif "outcome" in data:
        line = data["outcome"]
        if data.get("bound") is not None:
            line += f" (bound {data['bound']})"
        print(line)
        if "model" in data:
            print(f"  domain: {', '.join(data['model']['domain'])}")
        if "counterexampleTurtle" in data:
            print(data["counterexampleTurtle"], end="")
    else:  # pragma: no cover - all reports carry one of the keys above
        print(json.dumps(data, indent=2))


def _run(args) -> int:
    mode = args.rdf_mode
    if getattr(args, "lang", None) == "auto":  # classify and sat
        args.lang = "scl" if args.file.endswith(".scl") else "ttl"
    if args.command == "translate":
        doc = extract_document(_load_graph(args.shapes, mode))
        print(print_scl(translate(doc)))
        return 0

    if args.command == "back-translate":
        sentence = parse_scl(_read(args.sentence))
        print(serialize_turtle(back_translate_graph(sentence)), end="")
        return 0

    if args.command == "validate":
        graph = _load_graph(args.data, mode)
        doc = extract_document(_load_graph(args.shapes, mode))
        report = validate_direct(graph, doc) if args.direct else validate(graph, doc)
        _report(args, report.to_json())
        return 0 if report.conforms else 1

    if args.command == "classify":
        sentence = _load_sentence(args.file, args.lang, mode)
        _report(args, classify(sentence).to_json())
        return 0

    if args.command == "sat":
        sentence = _load_sentence(args.file, args.lang, mode)
        model_mode = args.model_mode
        if model_mode == "auto":
            model_mode = UNINTERPRETED if args.lang == "scl" else CANONICAL
        if args.axiomatize:
            if has_pattern_filters(sentence):
                print("note: pattern filters are not axiomatized (pattern-incomplete)",
                      file=sys.stderr)
            sentence = axiomatize(sentence, args.cap)
            model_mode = UNINTERPRETED
        verdict = bounded_sat(
            sentence, max_domain=args.max_domain, budget=args.budget, mode=model_mode
        )
        _report(args, verdict.to_json())
        return {"Sat": 0, "UnsatUpTo": 1, "Aborted": 2}[verdict.outcome]

    if args.command == "contains":
        doc1 = extract_document(_load_graph(args.shapes1, mode))
        doc2 = extract_document(_load_graph(args.shapes2, mode))
        verdict = check_containment(
            doc1, doc2, max_domain=args.max_domain, budget=args.budget
        )
        _report(args, verdict.to_json())
        return {"NoCounterexampleUpTo": 0, "NotContained": 1, "Aborted": 2}[verdict.outcome]

    if args.command == "axiomatize":
        sentence = parse_scl(_read(args.sentence))
        if has_pattern_filters(sentence):
            print("note: pattern filters are not axiomatized (pattern-incomplete)",
                  file=sys.stderr)
        print(print_scl(axiomatize(sentence, args.cap)))
        return 0

    if args.command == "rewrite":
        sentence = parse_scl(_read(args.sentence))
        if args.name_subformulas:
            print(print_scl(name_subformulas(sentence)))
            return 0
        result = rewrite_sentence(sentence, args.eliminate)
        for defect in result.defects:
            print(f"note: [{defect.rule}] {defect.reason}: {defect.at}", file=sys.stderr)
        print(print_scl(result.sentence))
        return 0

    if args.command == "gadget":
        if args.gadget_kind == "infinity":
            print(print_scl(gadget_infinity(args.kind)))
        else:
            system = TilingSystem.from_json(_read(args.tiling))
            print(print_scl(gadget_domino(args.variant, system)))
        return 0

    raise _UsageError(f"unknown command {args.command}")  # pragma: no cover


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
