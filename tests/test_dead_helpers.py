"""Every private function, class and method of the package is named
somewhere besides its own definition: no helper is left behind unused."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shaclsat"
_WORD = re.compile(r"[A-Za-z_]\w*")


def _private_definitions(source: str):
    """(name, line) of each `_`-prefixed def or class, dunders excluded."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.endswith("__"):
                yield node.name, node.lineno


def _dead_helpers(package: dict[str, str], elsewhere: list[str]):
    """(file, line, name) of each private definition in `package` (file name
    to source) whose name occurs in no text but its own definitions."""
    words = Counter(w for text in [*package.values(), *elsewhere] for w in _WORD.findall(text))
    defs = [(path, line, name) for path, text in package.items() for name, line in _private_definitions(text)]
    count = Counter(name for _, _, name in defs)
    return [d for d in defs if words[d[2]] <= count[d[2]]]


def test_dead_helper_scan_flags_only_unnamed_helpers():
    package = {
        "m.py": (
            "def _used():\n    pass\n\n"
            "def _dead():\n    pass\n\n"
            "class _Kept:\n    def _twin(self):\n        return _used()\n\n"
            "class _Other:\n    def _twin(self):\n        pass\n"
            "    def __init__(self):\n        pass\n"
        ),
    }
    assert _dead_helpers(package, ["_Kept()", "_Other"]) == [
        ("m.py", 4, "_dead"), ("m.py", 8, "_twin"), ("m.py", 12, "_twin")
    ]


def test_every_private_helper_is_named_somewhere():
    package = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    tests = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "tests").glob("*.py"))]
    assert _dead_helpers(package, tests) == []
