"""Every public function, class and method of ``spdelab`` has a caller: its
name is used in ``src/`` outside its own definition and outside type
annotations, or in ``bench/``. Every field of a dataclass is read: as
``obj.field`` in ``src/`` or ``bench/``, or as ``self.field`` inside its own
class. Every defaulted parameter of a public function, method or public
class's ``__init__`` is passed, by keyword or by position, by some call in
``src/`` or ``bench/``; one that never is has a single value in use and
belongs in a named constant.

The scan matches names, not bindings, so a name shared by two definitions
counts as used for both; it catches code nothing reaches, not every unused
override.
"""

import ast
import glob
import math
import os
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = sorted(glob.glob(os.path.join(ROOT, "src", "spdelab", "*.py")))
BENCH = sorted(glob.glob(os.path.join(ROOT, "bench", "*.py")))

# Called only from tests, and kept on purpose.
TEST_ONLY = {
    # the only check of the paper's pairwise dissipativity inequality
    "engine.lyapunov_probe",
    "engine.lyapunov_bound",
    # the paper's stochastically perturbed Kolmogorov equation
    "oulevy.kolmogorov_instance",
    # read by acceptance criterion c08 (counterexample detection)
    "lab.ConvergenceReport.diverged",
}

# Dataclass fields read only by tests, and kept on purpose.
FIELDS_TEST_ONLY = {
    # the Monte-Carlo standard error of the stability check's left side, which
    # the attained-bound test compares the gap against
    "engine.StabilityReport.lhs_se",
    # how many values the decay fit used after dropping nonpositive ones
    "gdc.ConvergenceFit.n_points",
    # the truncation time of the characteristic-function quadrature
    "oulevy.CfValue.t_cut",
}


# Defaulted parameters passed only by tests, and kept on purpose.
PARAMS_TEST_ONLY = {
    # the tests compare terminal states with the one-trajectory reference
    "engine.simulate_coupled_ensemble.keep_terminal",
    # the fast-chain tests fit the semigroup rate on a grid of their own
    "oulevy.kolmogorov_instance.t_grid",
}


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _walk(node):
    """``ast.walk`` without type annotations: naming a type there calls nothing."""
    yield node
    for field, child in ast.iter_fields(node):
        if field not in ("annotation", "returns"):
            for c in child if isinstance(child, list) else [child]:
                if isinstance(c, ast.AST):
                    yield from _walk(c)


def _names(tree, bench=False):
    """Identifiers a tree uses outside type annotations: names, attributes,
    imported names and keyword arguments. bench reaches the package through
    module attributes, keyword arguments and the (module, name) strings of its
    tracer targets, so for it string constants count and bare names, its own
    definitions, do not."""
    for n in _walk(tree):
        if isinstance(n, ast.Name) and not bench:
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name
        elif isinstance(n, ast.keyword) and n.arg:
            yield n.arg
        elif bench and isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def _public_definitions(module, tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                        yield f"{module}.{node.name}.{m.name}", m


def _uncalled():
    trees = {os.path.basename(p)[:-3]: _parse(p) for p in SRC}
    used = Counter()
    for tree in trees.values():
        used.update(_names(tree))
    in_bench = {n for p in BENCH for n in _names(_parse(p), bench=True)}
    found = set()
    for module, tree in trees.items():
        for qualname, node in _public_definitions(module, tree):
            own = Counter(_names(node))[node.name]
            if used[node.name] - own == 0 and node.name not in in_bench:
                found.add(qualname)
    return found


def test_every_public_name_has_a_caller():
    uncalled = _uncalled()
    assert uncalled - TEST_ONLY == set(), "public names nothing in src/ or bench/ uses"
    assert TEST_ONLY - uncalled == set(), "kept names that src/ or bench/ now use"


def _is_self(node):
    return isinstance(node.value, ast.Name) and node.value.id == "self"


def _attribute_reads(tree, own):
    """Attributes a tree reads: ``self.<name>`` reads with ``own``, all others
    without."""
    for n in ast.walk(tree):
        if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                and _is_self(n) == own):
            yield n.attr


def _unread_fields():
    trees = {os.path.basename(p)[:-3]: _parse(p) for p in SRC}
    read = set()
    for tree in [*trees.values(), *(_parse(p) for p in BENCH)]:
        read.update(_attribute_reads(tree, own=False))
    found = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef)
                    and any("dataclass" in ast.dump(d) for d in node.decorator_list)):
                continue
            own = set(_attribute_reads(node, own=True))
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and stmt.target.id not in read | own):
                    found.add(f"{module}.{node.name}.{stmt.target.id}")
    return found


def test_every_dataclass_field_is_read():
    unread = _unread_fields()
    assert unread - FIELDS_TEST_ONLY == set(), "fields nothing in src/ or bench/ reads"
    assert FIELDS_TEST_ONLY - unread == set(), "kept fields that src/ or bench/ now read"


def _callables(module, tree):
    """``(qualified name, called name, definition, leading parameters a call
    does not pass)`` of each public function and method, and of each public
    class's ``__init__``, which a call reaches by the class name."""
    for qualname, node in _public_definitions(module, tree):
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and m.name == "__init__":
                    yield qualname, node.name, m, 1
        else:
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            method = qualname.count(".") == 2
            yield qualname, node.name, node, int(method and not static)


def _unpassed_defaults():
    positional = Counter()          # most positional arguments of any call, per name
    keywords = set()                # (called name, keyword)
    for p in [*SRC, *BENCH]:
        for n in ast.walk(_parse(p)):
            if not isinstance(n, ast.Call):
                continue
            f = n.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in n.args)
            positional[name] = max(positional[name], math.inf if starred else len(n.args))
            keywords.update((name, k.arg) for k in n.keywords if k.arg)
    found = set()
    for module, tree in ((os.path.basename(p)[:-3], _parse(p)) for p in SRC):
        for qualname, name, fn, skip in _callables(module, tree):
            a = fn.args
            params = a.posonlyargs + a.args
            first = len(params) - len(a.defaults)
            for i, arg in enumerate(params[first:], start=first):
                if (name, arg.arg) not in keywords and positional[name] <= i - skip:
                    found.add(f"{qualname}.{arg.arg}")
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None and (name, arg.arg) not in keywords:
                    found.add(f"{qualname}.{arg.arg}")
    return found


def test_every_defaulted_parameter_is_passed():
    unpassed = _unpassed_defaults()
    assert unpassed - PARAMS_TEST_ONLY == set(), "defaults no call in src/ or bench/ overrides"
    assert PARAMS_TEST_ONLY - unpassed == set(), "kept parameters that src/ or bench/ now pass"
