"""Every module imports only what it uses, and the package's API is its submodules.

No linter is a dependency, so this walks the syntax tree with the standard
library.  A name counts as used when it appears as an identifier, or inside a
string that parses as an expression (a quoted annotation such as
``"Matrix"``), in the scope that imports it: a module-level import may be
used anywhere in the module, an import inside a function only in that
function.  The same walk finds private helpers that nothing in the package
uses, and public names that nothing outside the tests uses.
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

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/icx/*.py"), *ROOT.glob("tests/*.py"), *ROOT.glob("scripts/*.py")])


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


def unreferenced(sources: dict, readers: dict = None, public: bool = False) -> list:
    """(module, line, name) of every private function, method or class defined
    in ``sources`` (module name -> text), or with ``public`` every public one,
    that no module of ``sources`` or ``readers`` refers to outside its
    definition: by name, as an attribute, in an import, or as a string that is
    the bare name (``"scale"``, as a tracer names the methods it wraps).
    Dunder methods are called by the language and count as used."""
    defined, used = [], set()
    for module, source in {**sources, **(readers or {})}.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if module in sources and node.name.startswith("_") != public and not node.name.endswith("__"):
                    defined.append((module, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                used.add(node.value)
    return sorted(d for d in defined if d[2] not in used)


def test_checker_finds_a_dead_private_helper():
    sources = {
        "a": "def _dead():\n    pass\n\ndef _live():\n    pass\n\nclass _Box:\n"
             "    def _unpack(self):\n        return _live()\n\n    def __repr__(self):\n        return ''\n",
        "b": "from a import _Box\n_Box()._unpack()\n",
    }
    assert unreferenced(sources) == [("a", 1, "_dead")]


def test_checker_finds_a_public_name_only_tests_use():
    sources = {
        "a": "class Box:\n    def unpack(self):\n        pass\n\n    def scale(self):\n        pass\n\n"
             "def helper():\n    pass\n\ndef entry():\n    pass\n",
        "b": "from a import Box\nBox().unpack()\nWRAPPED = ('scale',)\n",
    }
    readers = {"tool": "import a\na.entry()\n"}
    assert unreferenced(sources, readers, public=True) == [("a", 8, "helper")]
    assert unreferenced(sources, public=True) == [("a", 8, "helper"), ("a", 11, "entry")]


def _package_sources() -> dict:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(ROOT.glob("src/icx/*.py"))}


def test_no_dead_private_helpers():
    """Every private function, method and class of the package is used
    somewhere in it: a helper left behind by a rewrite fails here."""
    assert unreferenced(_package_sources()) == []


def test_every_public_name_has_a_caller_outside_tests():
    """The API is the public names of the submodules, and each has a caller
    in the package, its scripts or its benchmark (read as text, not imported):
    a name only the tests use is not part of it."""
    readers = {
        f"{p.parent.name}/{p.name}": p.read_text(encoding="utf-8")
        for p in sorted([*ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")])
    }
    assert unreferenced(_package_sources(), readers, public=True) == []


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


def test_import_icx_loads_no_submodule_and_exports_no_name():
    """The package is a namespace for its submodules: ``import icx`` runs no
    code of theirs and adds no name of its own."""
    script = (
        "import sys, icx\n"
        "print(sorted(m for m in sys.modules if m.startswith('icx.')))\n"
        "print([n for n in dir(icx) if not n.startswith('_')])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[]", "[]"]


SUBMODULES = sorted(p.stem for p in ROOT.glob("src/icx/*.py") if p.name != "__init__.py")


def test_lazy_exports_are_the_submodules_objects():
    """What the package exports is its submodules, each bound on first import
    to the module object itself; no name of a submodule is re-exported."""
    import icx

    for name in SUBMODULES:
        assert importlib.import_module(f"icx.{name}") is getattr(icx, name) is sys.modules[f"icx.{name}"], name
    assert [n for n in dir(icx) if not n.startswith("_")] == SUBMODULES
    with pytest.raises(AttributeError, match="'Matrix'"):
        icx.Matrix


def test_from_icx_import_loads_only_that_module():
    """``from icx import galois`` loads galois and what it imports, nothing else."""
    script = "import sys\nfrom icx import galois\nprint(sorted(m for m in sys.modules if m.startswith('icx')))\n"
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
