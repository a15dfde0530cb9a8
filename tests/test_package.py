"""The package's public names, and the functions the benchmark traces.

The package exports exactly the names each module lists in its own
``__all__``.  The benchmark (``perfbench/``) patches the functions named
in its tracer's ``TRACED`` list; a name missing from the package is
skipped there, so its per-layer metrics would read zero instead of
failing.  No import and no top-level private helper in ``src/`` is left
unused, no parameter is left unread, no defaulted parameter of a
private helper is left unset, the density's rows, the closed form's
block pass and the Euler control pass each come from one place, each
spawn key's streams are built in one place, and only ``solver._Density``
decides how a density is read and reads what it keeps.
"""

import ast
import collections
import importlib
import os
import subprocess
import sys
from pathlib import Path

import greedyhabit

MODULES = ("market", "habit", "solver", "allocation", "lifetime", "merton")

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _source_trees():
    return [
        ast.parse(path.read_text())
        for path in sorted(Path(greedyhabit.__file__).parent.glob("*.py"))
    ]


def test_public_names_are_the_modules_own():
    listed = []
    for name in MODULES:
        module = importlib.import_module(f"greedyhabit.{name}")
        listed += module.__all__
        for attr in module.__all__:
            assert getattr(greedyhabit, attr) is getattr(module, attr), attr
    assert sorted(greedyhabit.__all__) == sorted(listed)
    assert len(set(listed)) == len(listed)


def test_every_traced_function_exists():
    # read the list from the tracer's source; nothing there is imported
    tree = ast.parse(TRACER.read_text())
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "TRACED" for target in node.targets)
    )
    assert traced
    for module, name in traced:
        fn = getattr(importlib.import_module(f"greedyhabit.{module}"), name, None)
        assert callable(fn), f"perfbench traces {module}.{name}, which is missing"


def test_every_import_is_used():
    # a name a module imports is read in it or re-exported by its __all__,
    # so a deletion cannot leave its imports behind
    for path in sorted(Path(greedyhabit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if alias.name != "*"
        }
        used = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        }
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets
            ):
                exported = {
                    elt.value
                    for elt in node.value.elts
                    if isinstance(elt, ast.Constant)
                }
        unused = imported - used - exported
        assert not unused, f"{path.name} imports {sorted(unused)} unused"


def test_every_private_helper_is_used():
    # a top-level _private function, class or constant is read in src/
    # outside its own definition, so a deletion cannot leave a dead
    # helper behind
    trees = _source_trees()
    readers = collections.defaultdict(set)
    definitions = []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                readers[node.id].add(id(node))
            elif isinstance(node, ast.Attribute):
                readers[node.attr].add(id(node))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [getattr(target, "id", "") for target in node.targets]
            elif isinstance(node, ast.AnnAssign):
                names = [getattr(node.target, "id", "")]
            else:
                continue
            definitions += [
                (name, node)
                for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
    assert definitions
    for name, definition in definitions:
        inside = {id(node) for node in ast.walk(definition)}
        assert readers[name] - inside, f"{name} is defined in src/ but never used there"


def test_every_parameter_is_read():
    # every parameter of every function and lambda in src/ is read in its
    # body, so a change cannot leave a dead argument behind; a method's
    # receiver is exempt, since an override keeps its base's signature
    unread = []
    for path in sorted(Path(greedyhabit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {
            id(item)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if isinstance(item, ast.FunctionDef)
        }
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs
            params += [arg for arg in (a.vararg, a.kwarg) if arg is not None]
            if id(fn) in methods:
                params = params[1:]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {
                node.id
                for stmt in body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            name = getattr(fn, "name", "lambda")
            unread += [
                f"{path.name}:{fn.lineno} {name}({arg.arg})"
                for arg in params
                if arg.arg not in read
            ]
    assert not unread, f"parameters never read in src/: {unread}"


def _defaulted(fn, bound):
    """(name, call position) of each defaulted parameter of ``fn``.

    ``bound`` leading parameters (self or cls) take no call position; a
    keyword-only parameter has none either.
    """
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    found = [(a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
    return found + [
        (a.arg, None)
        for a, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if default is not None
    ]


def test_every_private_default_is_set():
    # a defaulted parameter of a top-level _private function, or of a
    # method of a _private class, is set by some call in src/ (by
    # position, by keyword, or through * or **), so no switch is left
    # that only tests turn; calls are matched by the callee's name
    trees = _source_trees()
    targets = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                targets.append((node.name, node, 0))
            elif isinstance(node, ast.ClassDef) and node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        static = any(
                            getattr(d, "id", None) == "staticmethod"
                            for d in item.decorator_list
                        )
                        callee = node.name if item.name == "__init__" else item.name
                        targets.append((callee, item, 0 if static else 1))
    calls = collections.defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls[name].append(node)

    def sets(call, name, position):
        return (
            any(kw.arg in (name, None) for kw in call.keywords)
            or any(isinstance(arg, ast.Starred) for arg in call.args)
            or (position is not None and len(call.args) > position)
        )

    unset = [
        f"{callee}({name}=)"
        for callee, fn, bound in targets
        for name, position in _defaulted(fn, bound)
        if not any(sets(call, name, position) for call in calls[callee])
    ]
    assert not unset, f"no call in src/ sets {unset}"


def test_source_stays_under_the_line_cap():
    # src/ is capped at 3000 lines, so a change that overruns it fails here
    # and in the CI workflow that runs this suite
    paths = sorted(Path(greedyhabit.__file__).parent.glob("*.py"))
    lines = sum(len(path.read_text().splitlines()) for path in paths)
    assert lines <= 3000, f"src/greedyhabit has {lines} lines, over the cap of 3000"


def test_one_block_source():
    # the seeding and the closed form's block pass each have one call
    # site in src/, so a second, forked copy of either fails here
    calls = collections.Counter(
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for tree in _source_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    )
    for name in ("_fill_normals", "_anchor_pass"):
        assert calls[name] == 1, f"{name} has {calls[name]} call sites in src/"


def test_each_spawn_key_has_one_owner():
    # a stream of rows is built only by generate_paths and by each config's
    # _density, so spawn key () and key (1,) are each seeded in one place
    # and a caller shares a density instead of drawing its own copy
    owners = []
    for tree in _source_trees():
        calls = {
            id(node)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
            == "_Stream"
        }
        scopes = [(fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
        scopes += [
            (f"{cls.name}.{fn.name}", fn)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef)
        ]
        for name, fn in scopes:
            inside = {id(node) for node in ast.walk(fn)} & calls
            owners += [name] * len(inside)
            calls -= inside
        owners += ["module level"] * len(calls)
    assert sorted(owners) == [
        "CalibrationConfig._density",
        "NestedConfig._density",
        "generate_paths",
    ], f"_Stream is built in {sorted(owners)}"


def test_only_the_density_branches_on_its_form():
    # outside solver._Density no code tests a value against an array or a
    # private class of the package (a stream, a density or a pair of one),
    # or probes its own attributes with vars(self), so how a density is
    # held is decided in one place
    found = []
    for path in sorted(Path(greedyhabit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "_Density"
            for node in ast.walk(cls)
        }
        for node in ast.walk(tree):
            if id(node) in inside or not isinstance(node, ast.Call):
                continue
            func, args = getattr(node.func, "id", None), node.args
            if func == "isinstance" and len(args) == 2:
                kinds = args[1].elts if isinstance(args[1], ast.Tuple) else [args[1]]
                for kind in kinds:
                    name = getattr(kind, "id", None) or getattr(kind, "attr", "")
                    if name == "ndarray" or name.startswith("_"):
                        found.append(f"{path.name}:{node.lineno} isinstance {name}")
            elif func == "vars" and [getattr(a, "id", None) for a in args] == ["self"]:
                found.append(f"{path.name}:{node.lineno} vars(self)")
    assert not found, f"density form tested outside solver._Density: {found}"


def test_only_the_density_reads_what_it_keeps():
    # a bundle's rows and a stream's kept kappa W turn into zeta inside
    # solver._Density alone (its chunks and step), so no other code in
    # src/ reads _rows or _steps, whichever object they hang on
    found = []
    for path in sorted(Path(greedyhabit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "_Density"
            for node in ast.walk(cls)
        }
        found += [
            f"{path.name}:{node.lineno} {node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("_rows", "_steps")
            and id(node) not in inside
        ]
    assert not found, f"kept density read outside solver._Density: {found}"


def test_import_starts_no_thread():
    # a fresh interpreter: threads start when rows are priced, not on
    # import, and the import pays for no executor module
    script = (
        "import sys, threading\n"
        "before = threading.active_count()\n"
        "import greedyhabit, greedyhabit.cli\n"
        "started = threading.active_count() - before\n"
        "print(started, 'concurrent.futures' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(greedyhabit.__file__))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    assert out.split() == ["0", "False"]

