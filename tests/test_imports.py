"""Every module imports only what it uses, and the package exports lazily.

No linter is a dependency, so this walks the syntax tree with the standard
library.  A name counts as used when it appears as an identifier, or inside a
string that parses as an expression (a quoted annotation such as
``"Matrix"``), in the scope that imports it: a module-level import may be
used anywhere in the module, an import inside a function only in that
function.  ``__init__.py`` files re-export by importing, so they are skipped.
The same walk finds private helpers that nothing in the package uses.
"""

import ast
import importlib
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import icx

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(
    p
    for p in [*ROOT.glob("src/icx/*.py"), *ROOT.glob("tests/*.py"), *ROOT.glob("scripts/*.py")]
    if p.name != "__init__.py"
)


def _names_in_string(text: str) -> set:
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _scope_nodes(body):
    """The nodes of one scope in source order, without the bodies of nested
    functions; the function definitions themselves are included."""
    for node in body:
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # decorators, defaults and annotations are evaluated outside the function
            args = node.args
            every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            outside = [*node.decorator_list, *args.defaults, *args.kw_defaults, node.returns]
            outside += [a.annotation for a in every if a is not None]
            yield from _scope_nodes([n for n in outside if n is not None])
        else:
            yield from _scope_nodes(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list:
    """(line, name) of every imported name its scope never uses."""
    unused = []

    def names_used(body):
        """Names used in this scope and not imported by it, recording its unused imports."""
        imported, used = [], set()
        for node in _scope_nodes(body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                used |= names_used(node.body)
            elif isinstance(node, ast.Import):
                imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names_in_string(node.value)
        unused.extend((line, name) for line, name in imported if name not in used)
        return used - {name for _, name in imported}

    names_used(ast.parse(source).body)
    return sorted(unused)


def test_checker_finds_an_unused_import():
    source = "import os\nimport sys\nfrom typing import Optional, Sequence\n\nx: 'Optional[int]' = sys.maxsize\n"
    assert unused_imports(source) == [(1, "os"), (3, "Sequence")]


def test_checker_scopes_a_function_local_import():
    """A handler must use what it imports itself: only the sibling uses
    ``scheme`` here.  A return annotation belongs to the enclosing scope, so
    the module-level ``Report`` is used even though the body imports its own."""
    source = (
        "from typing import TYPE_CHECKING\n"
        "from . import model\n"
        "if TYPE_CHECKING:\n"
        "    from .scheme import Report\n"
        "\n"
        "def _cmd_gen(args):\n"
        "    from . import scheme\n"
        "    return model.gen(args)\n"
        "\n"
        "def _cmd_verify(args) -> Report:\n"
        "    from . import scheme\n"
        "    from .scheme import Report\n"
        "    return Report(scheme.verify(model.load(args)))\n"
    )
    assert unused_imports(source) == [(7, "scheme")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_privates(sources: dict) -> list:
    """(module, line, name) of every private function, method or class defined
    in ``sources`` (module name -> text) that no module refers to outside its
    definition: by name, as an attribute, or in an import.  Dunder methods are
    called by the language and count as used."""
    defined, used = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((module, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(d for d in defined if d[2] not in used)


def test_checker_finds_a_dead_private_helper():
    sources = {
        "a": "def _dead():\n    pass\n\ndef _live():\n    pass\n\nclass _Box:\n"
             "    def _unpack(self):\n        return _live()\n\n    def __repr__(self):\n        return ''\n",
        "b": "from a import _Box\n_Box()._unpack()\n",
    }
    assert unreferenced_privates(sources) == [("a", 1, "_dead")]


def test_no_dead_private_helpers():
    """Every private function, method and class of the package is used
    somewhere in it: a helper left behind by a rewrite fails here."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(ROOT.glob("src/icx/*.py"))}
    assert unreferenced_privates(sources) == []


def numpy_imports(source: str) -> list:
    """Lines of every import of numpy or one of its submodules, at any depth."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        lines += [node.lineno for name in names if name.split(".")[0] == "numpy"]
    return sorted(lines)


def test_checker_finds_a_numpy_import():
    source = "import os, numpy as np\ndef f():\n    from numpy.linalg import inv\nfrom .numpy import x\n"
    assert numpy_imports(source) == [1, 3]


def test_package_does_not_import_numpy():
    """The package has no dependencies: every elimination is pure Python."""
    found = {p.name: numpy_imports(p.read_text(encoding="utf-8")) for p in sorted(ROOT.glob("src/icx/*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


# The names `icx` exported when its __init__ imported every submodule eagerly.
EXPORTS = [
    "AlignmentPartition", "BinaryField", "BoundCertificate", "BuiltinExample", "Destination",
    "DimensionAudit", "FamilyTag", "FeasibilityVerdict", "Instance", "LinearScheme", "Matrix",
    "OracleResult", "PrimeField", "RateVector", "Subspace", "UnicastMap", "VerificationReport",
    "best_scalar_scheme", "build_antidote_scheme", "build_interference_scheme",
    "build_rate_half_vector_scheme", "build_scalar_scheme", "build_x_scheme", "builtin_example",
    "chain_bounds", "check_feasibility", "dimension_audit", "gen_neighboring_antidotes",
    "gen_neighboring_interference", "gen_x_network", "groupcast_rank_chain", "load_instance",
    "load_scheme", "mds_vector_family", "minrank_gf2", "normalize", "parse_instance",
    "parse_scheme", "partition", "save_instance", "save_scheme", "scheme_to_groupcast",
    "scheme_to_unicast", "serialize_instance", "serialize_scheme", "simple_bounds",
    "simulate_exhaustive", "simulate_sampled", "spread_family", "symmetric_capacity",
    "synthesize_decoders", "to_unicast", "validate", "verify",
]


def test_lazy_exports_are_the_submodules_objects():
    assert sorted(icx.__all__) == sorted(dir(icx)) == EXPORTS
    for name in EXPORTS:
        obj = getattr(__import__("icx", fromlist=[name]), name)  # from icx import <name>
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    with pytest.raises(AttributeError, match="'nope'"):
        icx.nope


def test_from_icx_import_loads_only_that_module():
    script = "import sys\nfrom icx import Matrix\nprint(sorted(m for m in sys.modules if m.startswith('icx')))\n"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "['icx', 'icx.errors', 'icx.galois']"


def _tracer_source():
    """perfbench/tracer.py's syntax tree, and its LAYERS and CLASS_METHODS as
    written, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    return tree, {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("LAYERS", "CLASS_METHODS")
    }


def _span_names(tree, layers) -> set:
    """The plain string literals of the tracer that read <layer>.<name>[.<method>],
    less the benchmark's per-layer metric names (``galois.elim_calls``)."""
    metrics = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}
    dotted = re.compile(rf"(?:{'|'.join(layers)})(?:\.\w+){{1,2}}")
    return {
        n.value
        for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, str) and dotted.fullmatch(n.value)
        and n.value not in metrics
    }


def test_benchmark_tracer_finds_what_it_wraps():
    """The benchmark wraps these modules and class attributes by name, and
    reads spans by name; deleting one (even an unused method such as
    ``Matrix.scale``), or no longer importing a private helper such as
    ``scheme._independent_rows`` from another module, must fail here first,
    not leave a per-layer metric reading 0."""
    tree, found = _tracer_source()
    assert set(found) == {"LAYERS", "CLASS_METHODS"}
    modules = {layer: importlib.import_module(f"icx.{layer}") for layer in found["LAYERS"]}
    for (layer, cls_name), methods in found["CLASS_METHODS"].items():
        cls = getattr(modules[layer], cls_name)
        assert [m for m in methods if m not in vars(cls)] == [], (layer, cls_name)

    def wrapped(span):
        """What the tracer wraps: a public function of the module, a private
        one that another of its modules imports by name, or a class method."""
        layer, _, name = span.partition(".")
        if "." in name:
            cls_name, _, method = name.partition(".")
            return method in found["CLASS_METHODS"].get((layer, cls_name), ())
        fn = vars(modules[layer]).get(name)
        if not inspect.isfunction(fn) or fn.__module__ != f"icx.{layer}":
            return False
        others = [m for other, m in modules.items() if other != layer]
        return not name.startswith("_") or any(vars(m).get(name) is fn for m in others)

    spans = _span_names(tree, found["LAYERS"])
    assert "scheme._independent_rows" in spans and "galois.Matrix.__matmul__" in spans
    assert sorted(s for s in spans if not wrapped(s)) == []
