"""Every public name in spinlab is reached by code outside the tests.

A public top-level def or class of a `src/spinlab` module, and every name a
package `__init__` re-exports, must be referenced (as a name or an attribute)
by a non-`__init__` module under `src/`, by a demo, or by the benchmark
(`perfbench/` outside its own tests). The perfbench tracer resolves its
targets from strings, so string constants there count as references too,
split at dots.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "spinlab"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def public_names() -> dict:
    """name -> the module that defines or re-exports it."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(ROOT))
        for node in _parse(path).body:
            if path.name == "__init__.py":
                if isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        out.setdefault(alias.asname or alias.name, rel)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out.setdefault(node.name, rel)
    return out


def referenced_names() -> set:
    files = [p for p in SRC.rglob("*.py") if p.name != "__init__.py"]
    files += list((ROOT / "demos").rglob("*.py"))
    bench = [p for p in (ROOT / "perfbench").rglob("*.py") if "tests" not in p.parts]
    seen = set()
    for path in files + bench:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif path in bench and isinstance(node, ast.Constant) and isinstance(node.value, str):
                seen.update(node.value.split("."))
    return seen


def test_every_public_name_is_reached_outside_the_tests():
    seen = referenced_names()
    unused = {name: where for name, where in public_names().items() if name not in seen}
    assert not unused, f"public names reached only by tests: {unused}"
