"""No module of the package raises the interpreter's recursion limit: deep
inputs are handled by iterative walks, not by a larger stack."""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shaclsat"


def test_no_module_sets_the_recursion_limit():
    offenders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "setrecursionlimit" in path.read_text(encoding="utf-8")
    ]
    assert offenders == []
