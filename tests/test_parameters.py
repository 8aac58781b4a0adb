"""Every parameter of every function in the package is used by its body."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shaclsat"


def _unused_parameters(source: str):
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        used = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        for name in params:
            if name not in ("self", "cls") and name not in used:
                yield node.name, node.lineno, name


def test_unused_parameter_scan_flags_only_unused_names():
    source = (
        "def f(a, b, *c, d, **e):\n    return a + d\n\n"
        "class K:\n    def m(self, x):\n        pass\n"
    )
    assert list(_unused_parameters(source)) == [
        ("f", 1, "b"), ("f", 1, "c"), ("f", 1, "e"), ("m", 5, "x")
    ]


def test_every_parameter_is_used():
    unused = [
        f"{path.name}:{line} {func}({name})"
        for path in sorted(PACKAGE.glob("*.py"))
        for func, line, name in _unused_parameters(path.read_text(encoding="utf-8"))
    ]
    assert unused == []
