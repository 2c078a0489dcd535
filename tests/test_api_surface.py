"""Every optional parameter of ``fsqsim`` is set by some caller.

A parameter with a default that no call ever overrides is a constant in
disguise: it widens the signature and guards branches nothing reaches.
The scan is syntactic. A parameter counts as set when any call in ``src/``,
``tests/`` or ``perfbench/`` to a function of that name (the plain name or
the last attribute, so ``m.f(...)`` matches ``f``) passes it by keyword or by
position; a class's ``__init__`` is matched by the class name. A starred
positional argument sets every positional parameter, ``**kwargs`` every
parameter.

Every imported name in ``src/`` and ``tests/`` is referenced: by a name in
its module's code or, for a package's re-exports, in its ``__all__``. An
import statement marked ``# noqa: F401`` on its first line is exempt. With no
linter in the toolchain, this scan is the unused-import check.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "tests", "perfbench")


def _functions(tree):
    """(called name, def node, bound) for module functions and methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in fn.decorator_list)
                    name = node.name if fn.name == "__init__" else fn.name
                    yield name, fn, not static


def optional_parameters():
    """(where, called name, positional names, optional names) per function."""
    out = []
    for path in sorted((ROOT / "src" / "fsqsim").rglob("*.py")):
        for name, fn, bound in _functions(ast.parse(path.read_text())):
            a = fn.args
            positional = [p.arg for p in a.posonlyargs + a.args][int(bound):]
            optional = positional[len(positional) - len(a.defaults):] \
                if a.defaults else []
            optional += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                         if d is not None]
            where = f"{path.relative_to(ROOT)}:{fn.name}"
            out.append((where, name, positional, optional))
    return out


def calls_by_name():
    calls = {}
    for d in CALLER_DIRS:
        for path in (ROOT / d).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = getattr(f, "id", None) or getattr(f, "attr", None)
                    calls.setdefault(name, []).append(node)
    return calls


def unset_parameters():
    calls = calls_by_name()
    unset = []
    for where, name, positional, optional in optional_parameters():
        seen = set()
        for call in calls.get(name, []):
            if any(isinstance(x, ast.Starred) for x in call.args):
                seen.update(positional)
            seen.update(positional[:len(call.args)])
            for kw in call.keywords:
                seen.update(optional if kw.arg is None else [kw.arg])
        unset += [f"{where}({p})" for p in optional if p not in seen]
    return unset


def test_every_optional_parameter_has_a_caller():
    assert sum(len(o) for *_, o in optional_parameters()) > 0
    unset = unset_parameters()
    assert not unset, (
        "optional parameters no caller sets; make each a module constant "
        "or a literal: " + ", ".join(unset)
    )


def unused_imports():
    unused = []
    for d in ("src", "tests"):
        for path in sorted((ROOT / d).rglob("*.py")):
            text = path.read_text()
            lines = text.splitlines()
            tree = ast.parse(text)
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            for node in tree.body:
                if (isinstance(node, ast.Assign)
                        and any(getattr(t, "id", None) == "__all__"
                                for t in node.targets)):
                    used.update(ast.literal_eval(node.value))
            for node in ast.walk(tree):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                if "# noqa: F401" in lines[node.lineno - 1]:
                    continue
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name != "*" and name not in used:
                        unused.append(f"{path.relative_to(ROOT)}:"
                                      f"{node.lineno} {name}")
    return unused


def test_every_import_is_used():
    unused = unused_imports()
    assert not unused, "imported names never referenced: " + ", ".join(unused)
