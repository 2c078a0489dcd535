"""Every optional parameter of ``fsqsim`` is set by some caller.

A parameter with a default that no call ever overrides is a constant in
disguise: it widens the signature and guards branches nothing reaches.
The scan is syntactic. A parameter counts as set when any call in ``src/``,
``tests/`` or ``perfbench/`` to a function of that name (the plain name or
the last attribute, so ``m.f(...)`` matches ``f``) passes it by keyword or by
position; a class's ``__init__`` is matched by the class name. A starred
positional argument sets every positional parameter, ``**kwargs`` every
parameter.

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


ALLOWED = {
    "assembly.AffineMap.apply":
        "calibration-map API; the fit is checked by mapping points back",
    "benchmarking.twoq.loss_excise":
        "per-shot loss excision of SRD records, the analysis SSB reports",
    "channels.cptp_defects":
        "the CPTP check of a built channel; the build-time check and the run "
        "telemetry (ROADMAP items 2 and 6) will call it",
    "cliffords.compose":
        "group product of two Cliffords; the group API",
    "cliffords.invert":
        "group inverse of a Clifford; the group API",
    "cliffords.average_pulse_count":
        "the paper's mean of one pi/2 pulse per compiled Clifford",
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
