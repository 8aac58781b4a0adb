"""No function imports a module that its own file already imports at top
level: the name is in reach through that import, so a second import inside
the function only repeats it and runs on every call.  An import inside a
function stays where it avoids a cycle or a load at import time, and then
the file has no top-level import of that module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shaclsat"


def _modules(node) -> set[str]:
    """The modules an import statement imports, relative ones with their
    leading dots."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if node.module is None:  # from . import shapes
        return {"." * node.level + alias.name for alias in node.names}
    return {"." * node.level + node.module}


def _repeated_imports(source: str):
    """(enclosing function, line, module) of each import inside a function
    of a module that the source imports at top level."""
    top: set[str] = set()
    inner: list[tuple[str, int, str]] = []

    def visit(node, scope: str, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                if in_function:
                    inner.extend((scope, child.lineno, m) for m in sorted(_modules(child)))
                elif not scope:
                    top.update(_modules(child))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope else child.name
                visit(child, name, in_function or not isinstance(child, ast.ClassDef))
            else:
                visit(child, scope, in_function)

    visit(ast.parse(source), "", False)
    return [found for found in inner if found[2] in top]


def test_repeated_import_scan_flags_only_modules_imported_at_top_level():
    source = (
        "import re\n"
        "from . import shapes as sh\n"
        "from .terms import iri\n"
        "if True:\n"
        "    import json\n\n"
        "def read(text):\n"
        "    import re\n"
        "    from .terms import n3\n"
        "    from .turtle import parse_turtle\n"
        "    from . import shapes, scl\n"
        "    return n3(text)\n\n"
        "class Report:\n"
        "    import os\n\n"
        "    def dump(self):\n"
        "        import json, os\n"
        "        def inner():\n"
        "            from ..terms import n3\n"
        "            from .terms import blank\n"
        "        return inner\n\n"
        "async def fetch():\n"
        "    from .shapes import Shape\n"
    )
    assert _repeated_imports(source) == [
        ("read", 8, "re"),
        ("read", 9, ".terms"),
        ("read", 11, ".shapes"),
        ("Report.dump", 18, "json"),
        ("Report.dump.inner", 21, ".terms"),
        ("fetch", 25, ".shapes"),
    ]


def test_no_function_repeats_a_top_level_import():
    found = [
        f"{path.name}:{line} in {func} imports {module}"
        for path in sorted(PACKAGE.glob("*.py"))
        for func, line, module in _repeated_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []
