"""Every public name in spinlab, and every private module-level one, is
reached by code outside the tests.

A public top-level def or class of a `src/spinlab` module, every public
method and property of a top-level class there, and every name a package
`__init__` re-exports, must be referenced (as a name or an attribute)
by a non-`__init__` module under `src/`, by a demo, or by the benchmark
(`perfbench/` outside its own tests). So must every module-level def, class
and assigned constant whose name begins with one underscore: a helper or a
constant that only the tests read is dead code. The perfbench tracer
resolves its targets from strings, so string constants there count as
references too, split at dots. An assignment is not a reference.

Every defaulted parameter of a def under `src/spinlab` is passed by some
call in `src`, `tests`, `demos` or `perfbench`, by keyword or by position,
to a callee of that name: a parameter that no call sets is a constant.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "spinlab"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def public_names() -> dict:
    """name -> the module that defines or re-exports it; a method or
    property as Class.name."""
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
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        out.setdefault(f"{node.name}.{item.name}", rel)
    return out


def referenced_names() -> set:
    files = [p for p in SRC.rglob("*.py") if p.name != "__init__.py"]
    files += list((ROOT / "demos").rglob("*.py"))
    bench = [p for p in (ROOT / "perfbench").rglob("*.py") if "tests" not in p.parts]
    seen = set()
    for path in files + bench:
        for node in ast.walk(_parse(path)):
            if isinstance(getattr(node, "ctx", None), ast.Store):
                continue  # an assignment is not a reference
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif path in bench and isinstance(node, ast.Constant) and isinstance(node.value, str):
                seen.update(node.value.split("."))
    return seen


def test_every_public_name_is_reached_outside_the_tests():
    seen = referenced_names()
    unused = {
        name: where for name, where in public_names().items() if name.rpartition(".")[2] not in seen
    }
    assert not unused, f"public names reached only by tests: {unused}"


def private_names() -> dict:
    """name -> the module that defines it, for the module-level defs,
    classes and assigned names that begin with one underscore."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                continue
            for name in targets:
                if name.startswith("_") and not name.startswith("__"):
                    out.setdefault(name, str(path.relative_to(ROOT)))
    return out


def test_every_private_name_is_reached_outside_the_tests():
    seen = referenced_names()
    unused = {name: where for name, where in private_names().items() if name not in seen}
    assert not unused, f"private names reached only by tests: {unused}"


def unused_imports() -> dict:
    """module -> names it imports and never references, for every module
    under src/, tests/ and demos/ except package __init__ files (their
    imports are the package's re-exports).  An import whose line carries
    `noqa: F401` is exempt."""
    files = [p for p in SRC.rglob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").rglob("*.py"))
    files += sorted((ROOT / "demos").rglob("*.py"))
    out = {}
    for path in files:
        lines = path.read_text().splitlines()
        tree = _parse(path)
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    # an import kept for callers that reach it through the module says so
                    if "noqa: F401" not in lines[alias.lineno - 1]:
                        bound.add(alias.asname or alias.name.split(".")[0])
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(bound - used)
        if unused:
            out[str(path.relative_to(ROOT))] = unused
    return out


def test_no_unused_imports():
    unused = unused_imports()
    assert not unused, f"imported but never referenced: {unused}"


def defaulted_parameters() -> dict:
    """(function name, parameter, position in a call) -> the module defining
    it, for every parameter with a default of every def (functions and
    methods) under src/spinlab.  A method's call positions start after
    `self`/`cls`; a keyword-only parameter has none."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = _parse(path)
        methods = {
            fn for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
        }
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            for i, arg in enumerate(positional[first:], start=first - (fn in methods)):
                out[(fn.name, arg.arg, i)] = str(path.relative_to(ROOT))
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    out[(fn.name, arg.arg, None)] = str(path.relative_to(ROOT))
    return out


def passed_parameters() -> set:
    """(callee name, keyword) and (callee name, position) for every call in
    src, tests, demos and perfbench; a call spreading *args or **kw passes
    everything, recorded as (callee name, "*")."""
    files = sorted(SRC.rglob("*.py"))
    for folder in ("tests", "demos", "perfbench"):
        files += sorted((ROOT / folder).rglob("*.py"))
    seen = set()
    for path in files:
        for call in ast.walk(_parse(path)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
                seen.add((name, "*"))
                continue
            seen.update((name, i) for i in range(len(call.args)))
            seen.update((name, k.arg) for k in call.keywords)
    return seen


def test_every_defaulted_parameter_is_passed_somewhere():
    """A defaulted parameter that no call sets is a constant in disguise."""
    seen = passed_parameters()
    unset = {
        f"{fn}({param})": where
        for (fn, param, pos), where in defaulted_parameters().items()
        if not {(fn, "*"), (fn, param), (fn, pos)} & seen
    }
    assert not unset, f"defaulted parameters that no call passes: {unset}"
