"""Every optional parameter of ``fsqsim`` is set by some caller.

A parameter with a default that no call ever overrides is a constant in
disguise: it widens the signature and guards branches nothing reaches.
The scan is syntactic. A parameter counts as set when any call in ``src/``,
``tests/`` or ``perfbench/`` to a function of that name (the plain name or
the last attribute, so ``m.f(...)`` matches ``f``) passes it by keyword or by
position; a class's ``__init__`` is matched by the class name. A starred
positional argument sets every positional parameter, ``**kwargs`` every
parameter. A dataclass field with a default is a parameter of its class's
generated ``__init__``, set by a constructor call as above or by a keyword
to any ``replace(...)`` call (whose ``**kwargs`` names no field).

Every imported name in ``src/`` and ``tests/`` is referenced in its scope:
a module-level import by a name anywhere in the module or, for a package's
re-exports, in its ``__all__``; an import inside a function by a name inside
that function, so another function's use of the same name does not count. An
import statement marked ``# noqa: F401`` on its first line is exempt. With no
linter in the toolchain, this scan is the unused-import check.

``scipy`` is imported, in any form, only where ``SCIPY_IMPORTS`` allows, and
it allows nothing: ``fsqsim`` runs on numpy alone, and scipy is a test
dependency.

No module of ``fsqsim`` touches a private attribute (``_name``, not a dunder)
of another object: the object before the dot must be ``self``, ``cls`` or a
name bound by an ``import`` statement. A caller that needs an object's
internals gets a public attribute or a shared helper instead, so the layout
behind the attribute can change in one place. The scan is syntactic and
reports every offending ``file:line``.

No module of ``fsqsim`` imports a private name (``_name``, not a dunder)
from another ``fsqsim`` module: a helper another module needs is public, or
the caller goes through the public function that uses it. A private
submodule (``_kernels``, ``_lindblad_py``) is a module, not a name, and may
be imported. The scan is syntactic and reports every offending
``file:line``.

Every public name of ``fsqsim`` is reached: each public module-level function
or class, and each public method, is referenced from ``src/`` outside its own
definition or from ``tests/test_acceptance.py``, or is in ``ALLOWED`` with a
reason. Functions and classes match a bare name or an attribute of that name;
methods match an attribute only, so a local variable cannot stand in for one.
Imports and ``__all__`` entries are not references; a ``@protocol``-registered
CLI function is reached through the subcommand table. Code only the tests
need lives in ``tests/oracles.py``, not in ``src/``. Matching is by name, so
it has blind spots: one reference reaches every definition of that name, in
any module or class.
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


def _named(node, name):
    """Whether ``node`` is ``name``, ``x.name`` or a call of either."""
    f = node.func if isinstance(node, ast.Call) else node
    return (getattr(f, "id", None) or getattr(f, "attr", None)) == name


def _dataclass_fields(tree):
    """(class name, init field names, names with a default) per dataclass."""
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef)
                and any(_named(d, "dataclass") for d in node.decorator_list)):
            continue
        fields, optional = [], []
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and "ClassVar" not in ast.unparse(stmt.annotation)):
                continue
            value = stmt.value
            spec = ({k.arg: k.value for k in value.keywords}
                    if value is not None and _named(value, "field") else None)
            if spec is not None and getattr(spec.get("init"), "value",
                                            True) is False:
                continue
            fields.append(stmt.target.id)
            if value is not None and (spec is None or "default" in spec
                                      or "default_factory" in spec):
                optional.append(stmt.target.id)
        yield node.name, fields, optional


def optional_parameters():
    """(where, called name, positional names, optional names, dataclass)
    per function and per dataclass."""
    out = []
    for path in sorted((ROOT / "src" / "fsqsim").rglob("*.py")):
        tree = ast.parse(path.read_text())
        for name, fn, bound in _functions(tree):
            a = fn.args
            positional = [p.arg for p in a.posonlyargs + a.args][int(bound):]
            optional = positional[len(positional) - len(a.defaults):] \
                if a.defaults else []
            optional += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                         if d is not None]
            where = f"{path.relative_to(ROOT)}:{fn.name}"
            out.append((where, name, positional, optional, False))
        for name, fields, optional in _dataclass_fields(tree):
            where = f"{path.relative_to(ROOT)}:{name}"
            out.append((where, name, fields, optional, True))
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
    for where, name, positional, optional, dataclass in optional_parameters():
        seen = set()
        for call in calls.get(name, []):
            if any(isinstance(x, ast.Starred) for x in call.args):
                seen.update(positional)
            seen.update(positional[:len(call.args)])
            for kw in call.keywords:
                seen.update(optional if kw.arg is None else [kw.arg])
        for call in calls.get("replace", []) if dataclass else []:
            seen.update(kw.arg for kw in call.keywords)
        unset += [f"{where}({p})" for p in optional if p not in seen]
    return unset


def test_every_optional_parameter_has_a_caller():
    assert sum(len(o) for *_, o, _ in optional_parameters()) > 0
    unset = unset_parameters()
    assert not unset, (
        "optional parameters no caller sets; make each a module constant "
        "or a literal: " + ", ".join(unset)
    )


def _scoped_imports(node, scope):
    """(import statement, scope) under ``node``; the scope is the innermost
    enclosing function, or the module."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child, scope
        else:
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from _scoped_imports(child, child if inner else scope)


def unused_imports():
    unused = []
    for d in ("src", "tests"):
        for path in sorted((ROOT / d).rglob("*.py")):
            text = path.read_text()
            lines = text.splitlines()
            tree = ast.parse(text)
            exported = set()
            for node in tree.body:
                if (isinstance(node, ast.Assign)
                        and any(getattr(t, "id", None) == "__all__"
                                for t in node.targets)):
                    exported.update(ast.literal_eval(node.value))
            referenced = {}  # scope -> names read anywhere inside it
            for node, scope in _scoped_imports(tree, tree):
                if "# noqa: F401" in lines[node.lineno - 1]:
                    continue
                if scope not in referenced:
                    referenced[scope] = {n.id for n in ast.walk(scope)
                                         if isinstance(n, ast.Name)}
                used = referenced[scope] | (exported if scope is tree else set())
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name != "*" and name not in used:
                        unused.append(f"{path.relative_to(ROOT)}:"
                                      f"{node.lineno} {name}")
    return unused


def test_every_import_is_used():
    unused = unused_imports()
    assert not unused, "imported names never referenced: " + ", ".join(unused)


SCIPY_IMPORTS = {}


def scipy_imports():
    """{(file, innermost enclosing function or None, scipy subpackage):
    first line} for the ``src/fsqsim`` import statements that load scipy,
    at any depth."""
    pkg = ROOT / "src" / "fsqsim"
    found = {}

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom) and child.module:
                names = [f"{child.module}.{a.name}" for a in child.names]
            else:
                names = []
            for name in names:
                if name.split(".")[0] == "scipy":
                    key = (path, scope, ".".join(name.split(".")[:2]))
                    found.setdefault(key, child.lineno)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, child.name)
            else:
                visit(child, path, scope)

    for path in sorted(pkg.rglob("*.py")):
        visit(ast.parse(path.read_text()), str(path.relative_to(pkg)), None)
    return found


def test_scipy_imported_only_where_allowed():
    found = scipy_imports()
    extra = [f"{f}:{line} ({fn}) {mod}"
             for (f, fn, mod), line in found.items()
             if (f, fn, mod) not in SCIPY_IMPORTS]
    assert not extra, "scipy imported at: " + ", ".join(extra)
    stale = sorted(str(k) for k in set(SCIPY_IMPORTS) - set(found))
    assert not stale, "allowed scipy imports that are gone: " + \
        ", ".join(stale)


def foreign_private_attributes():
    """``file:line attribute`` of each private attribute a ``src/fsqsim``
    module reads or sets on anything but ``self``, ``cls`` or an imported
    module."""
    found = []
    for path in sorted((ROOT / "src" / "fsqsim").rglob("*.py")):
        tree = ast.parse(path.read_text())
        owners = {"self", "cls"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                owners.update((a.asname or a.name).split(".")[0]
                              for a in node.names)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            name = node.attr
            dunder = name.startswith("__") and name.endswith("__")
            if (name.startswith("_") and not dunder
                    and getattr(node.value, "id", None) not in owners):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno} "
                             f"{ast.unparse(node)}")
    return found


def test_no_module_touches_another_objects_private_attributes():
    found = foreign_private_attributes()
    assert not found, "private attributes touched from outside: " + \
        ", ".join(found)


def private_imports():
    """``file:line module.name`` of each private name a ``src/fsqsim`` module
    imports from another ``fsqsim`` module, relatively or absolutely; a
    name that is a submodule's file or package is not counted."""
    src = ROOT / "src"
    found = []
    for path in sorted((src / "fsqsim").rglob("*.py")):
        package = path.relative_to(src).with_suffix("").parts[:-1]
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            named = node.module.split(".") if node.module else []
            if node.level:
                parts = [*package[:len(package) - node.level + 1], *named]
            elif named[:1] == ["fsqsim"]:
                parts = named
            else:
                continue
            for alias in node.names:
                name = alias.name
                if not name.startswith("_") or name.endswith("__"):
                    continue
                target = src.joinpath(*parts, name)
                if target.is_dir() or target.with_suffix(".py").is_file():
                    continue
                found.append(f"{path.relative_to(ROOT)}:{alias.lineno} "
                             f"{'.'.join(parts)}.{name}")
    return found


def test_no_module_imports_another_modules_private_names():
    found = private_imports()
    assert not found, "private names imported from another module: " + \
        ", ".join(found)


ALLOWED = {
    "assembly.AffineMap.apply":
        "calibration-map API; the fit is checked by mapping points back",
    "benchmarking.twoq.loss_excise":
        "per-shot loss excision of SRD records, the analysis SSB reports",
    "cliffords.compose":
        "group product of two Cliffords; the group API",
    "cliffords.invert":
        "group inverse of a Clifford; the group API",
    "cliffords.average_pulse_count":
        "the paper's mean of one pi/2 pulse per compiled Clifford",
    "lindblad.evolve_lindblad":
        "package API (fsqsim.evolve_lindblad)",
    "noise.clock_pi_pulse_error":
        "clock pi-pulse preparation error of a noise model",
    "noise.noise_config_to_text":
        "writes the key-value format noise_config_from_text reads",
    "psd.FrequencyNoisePSD.to_text":
        "writes the PSD text format from_text reads",
    "psd.quasi_static_infidelity":
        "the quasi-static limit of the laser-noise infidelity",
    "ratedyn.LifetimeDataset.to_csv":
        "writes the CSV format from_csv reads",
    "ratedyn.branching_ratios":
        "the decay branching analysis of the rate equations",
    "readout.PhotonCountModel.pdf":
        "count density for one occupancy; src reads the difference of both "
        "through one read-noise kernel",
    "readout.PhotonCountModel.sample":
        "draws one shot's photon count from the model",
    "readout.PhotonCountModel.survival_function":
        "P(count >= t) for one occupancy; src reads both at once through "
        "detection_rates",
    "readout.deep_trap_model":
        "the deep-trap imaging model beside shallow_trap_model",
    "readout.erasure_excise":
        "erasure excision on imaged shots, the paper's conversion analysis",
    "rydberg.CZPulseProfile.phase":
        "phi(t) as the paper writes it; the engines read modulation()",
    "rydberg.CZPulseProfile.to_text":
        "writes the profile document from_text reads",
    "rydberg.time_optimal_cz":
        "package API (fsqsim.time_optimal_cz): the noiseless gate unitary",
    "states.measure_populations":
        "package API (fsqsim.measure_populations)",
}


def public_definitions():
    """(key, path, bare name, node, is method) of each public function,
    class and method defined in ``src/fsqsim``."""
    pkg = ROOT / "src" / "fsqsim"
    for path in sorted(pkg.rglob("*.py")):
        module = ".".join(path.relative_to(pkg).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{module}.{node.name}", path, node.name, node, False
            if isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if (isinstance(fn, ast.FunctionDef)
                            and not fn.name.startswith("_")):
                        yield (f"{module}.{node.name}.{fn.name}", path,
                               fn.name, fn, True)


def _registered(node):
    return any(getattr(getattr(d, "func", None), "id", None) == "protocol"
               for d in node.decorator_list)


def unreached_names():
    refs = []  # (path, line, name, is attribute)
    for path in [*sorted((ROOT / "src").rglob("*.py")),
                 ROOT / "tests" / "test_acceptance.py"]:
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Name):
                refs.append((path, n.lineno, n.id, False))
            elif isinstance(n, ast.Attribute):
                refs.append((path, n.lineno, n.attr, True))
    unreached = []
    for key, path, name, node, method in public_definitions():
        if _registered(node):
            continue
        if not any(r == name and (attr or not method)
                   and not (p == path
                            and node.lineno <= line <= node.end_lineno)
                   for p, line, r, attr in refs):
            unreached.append(key)
    return unreached


def test_every_public_name_is_reached():
    unreached = unreached_names()
    missing = [k for k in unreached if k not in ALLOWED]
    assert not missing, (
        "public names nothing in src/ or test_acceptance.py reaches; use, "
        "delete, move to tests/oracles.py or allow with a reason: "
        + ", ".join(missing)
    )
    stale = sorted(set(ALLOWED) - set(unreached))
    assert not stale, "allowed names that are reached or gone: " + \
        ", ".join(stale)
