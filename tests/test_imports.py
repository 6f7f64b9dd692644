"""Every module imports only what it uses, and the package's API is its submodules.

No linter is a dependency, so this walks the syntax tree with the standard
library.  A name counts as used when it appears as an identifier, or inside a
string that parses as an expression (a quoted annotation such as
``"Matrix"``), in the scope that imports it: a module-level import may be
used anywhere in the module, an import inside a function only in that
function.  The same walk finds private helpers that nothing in the package
uses, and public names that nothing outside the tests uses.

Methods are resolved by class.  An attribute reference or a bare-name string
can call a method; a plain name (a variable ``sub``) cannot.  ``self.name`` in
class C reaches C alone, and ``C.name`` reaches C.  A call through any other
receiver, or a string, reaches the one class that defines the name, as a
method or as a Record field; an uncalled read reaches it only if it is a
property.  A name that several classes define and only such receivers reach
keeps a class alive only through a line of ``SHARED``, which lists the
classes and gives the reason.
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# Names that several classes define, as a method or as a Record field, and
# that only receivers of unknown type reach: such a reference reaches each
# class listed, for the reason given.
SHARED = {
    "order": ("PrimeField BinaryField", "the field interface: callers hold a Field of either kind"),
    "canonical": ("PrimeField BinaryField", "the field interface: callers hold a Field of either kind"),
    "add": ("PrimeField BinaryField Matrix", "the field interface, and Matrix.add, which the benchmark's tracer wraps"),
    "neg": ("PrimeField BinaryField Matrix", "the field interface, and a matrix's negation in Subspace.intersect"),
    "mul": ("PrimeField BinaryField", "the field interface: callers hold a Field of either kind"),
    "inv": ("PrimeField BinaryField", "the field interface: callers hold a Field of either kind"),
    "elements": ("PrimeField BinaryField", "the field interface: callers hold a Field of either kind"),
    "to_json": (
        "PrimeField BinaryField FamilyTag FeasibilityVerdict BoundCertificate OracleResult "
        "VerificationReport SimulationResult UnicastMap",
        "the JSON of each record that a CLI verb or a report prints, called on whichever record it holds",
    ),
    "rank": ("Matrix EchelonBasis", "a matrix's rank() and a basis's rank are read on receivers of either type"),
    "dim": ("Subspace", "a span's dimension; RankChainStep.dim is a field of the same name"),
    "rates": ("LinearScheme", "a scheme's rates(); VerificationReport.rates is a field of the same name"),
}


def _fields(cls: ast.ClassDef) -> set:
    """The attributes a class declares: its ``__slots__`` as written, and for
    a Record its ``__init__`` parameters after ``self``."""
    names = set()
    for node in cls.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__slots__":
            names |= set(ast.literal_eval(node.value))
        elif isinstance(node, FUNCTIONS) and node.name == "__init__" and "Record" in {getattr(b, "id", None) for b in cls.bases}:
            names |= {a.arg for a in [*node.args.args[1:], *node.args.kwonlyargs]}
    return names


def unreferenced(sources: dict, readers: dict = None, public: bool = False, shared: dict = None) -> list:
    """(module, line, name) of every private function, method or class defined
    in ``sources`` (module name -> text), or with ``public`` every public one,
    that no module of ``sources`` or ``readers`` refers to outside its
    definition.  Dunder methods are called by the language and count as used.

    A function or class is used by name, as an attribute, in an import, or as
    a string that is the bare name.  A method, named ``Class.name``, is used
    only by an attribute reference or such a string (``"scale"``, as a tracer
    names the methods it wraps), and it is resolved to its class: ``self.name``
    or ``cls.name`` inside class C reaches C alone, and ``C.name`` reaches C.
    Any other receiver is of unknown type, and so is a string.  A call through
    one (``x.name(...)``), a string, or for a property any reference, reaches
    the one class that defines the name as a method or as a field, and none
    when several do, unless ``shared`` (name -> (class names, reason)) lists
    the class under that name.  So an option read, ``args.trace``, reaches no method.
    An allowance without a reason, or naming a class that has no such method,
    raises ValueError."""
    trees = {module: ast.parse(source) for module, source in {**sources, **(readers or {})}.items()}
    members, owner, properties = {}, {}, set()  # class -> its method and field names; method -> its class
    for module in sources:
        for node in ast.walk(trees[module]):
            if isinstance(node, ast.ClassDef):
                own = [n for n in node.body if isinstance(n, FUNCTIONS)]
                owner.update(dict.fromkeys(own, node.name))
                properties |= {(node.name, n.name) for n in own if "property" in map(ast.unparse, n.decorator_list)}
                members.setdefault(node.name, set()).update(_fields(node), (n.name for n in own))
    methods, allowed = {(c, n.name) for n, c in owner.items()}, set()
    for name, (classes, reason) in (shared or {}).items():
        if not reason.strip():
            raise ValueError(f"the allowance for {name!r} gives no reason")
        for cls in classes.split():
            if (cls, name) not in methods:
                raise ValueError(f"the allowance for {name!r} names {cls}, which has no such method")
            allowed.add((cls, name))

    names, typed, untyped = set(), set(), set()  # untyped: (name, called)

    def walk(node, cls):
        """Record the references below node; cls is the class whose body encloses it."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                names.add(child.id)
            elif isinstance(child, ast.alias):
                names.add(child.name)
            elif isinstance(child, ast.Constant) and isinstance(child.value, str) and child.value.isidentifier():
                names.add(child.value)
                untyped.add((child.value, True))
            elif isinstance(child, ast.Attribute):
                names.add(child.attr)
                receiver = getattr(child.value, "id", getattr(child.value, "attr", None))
                if cls and receiver in ("self", "cls"):
                    typed.add((cls, child.attr))
                elif receiver in members:
                    typed.add((receiver, child.attr))
                else:
                    untyped.add((child.attr, isinstance(node, ast.Call) and child is node.func))
            walk(child, child.name if isinstance(child, ast.ClassDef) else cls)

    for tree in trees.values():
        walk(tree, None)

    def used(name, cls):
        if cls is None:
            return name in names
        reached = (name, True) in untyped or (cls, name) in properties and (name, False) in untyped
        definers = {c for c, own in members.items() if name in own}
        return (cls, name) in typed or reached and (definers == {cls} or (cls, name) in allowed)

    return sorted(
        (module, node.lineno, f"{owner[node]}.{node.name}" if node in owner else node.name)
        for module in sources
        for node in ast.walk(trees[module])
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)) and node.name.startswith("_") != public
        and not node.name.endswith("__") and not used(node.name, owner.get(node))
    )


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


RECORDS = (
    "class Record:\n    pass\n\n"
    "class Diagnostic(Record):\n"
    "    def __init__(self, destination):\n        super().__init__(destination)\n\n"
    "    def describe(self):\n        return str(self.destination)\n\n"
    "class Instance(Record):\n"
    "    def __init__(self, destinations):\n        super().__init__(destinations)\n\n"
    "    def destination(self, k):\n        return self.destinations[k]\n"
)


def test_checker_resolves_a_method_shadowed_by_another_classs_field():
    """``self.destination`` in Diagnostic reads its field, so Instance's method
    of that name has no caller; an untyped ``r.destination`` could be either."""
    use = "from a import Diagnostic, Instance\nprint(Diagnostic(1).describe(), Instance(()))\n"
    assert unreferenced({"a": RECORDS, "b": use}, public=True) == [("a", 15, "Instance.destination")]
    either = use + "r = Diagnostic(2)\nprint(r.destination)\n"
    assert unreferenced({"a": RECORDS, "b": either}, public=True) == [("a", 15, "Instance.destination")]


def test_checker_does_not_count_a_variable_or_an_option_named_as_a_method():
    """A variable ``sub`` and an option read ``args.trace`` reach no method;
    a call ``f.add(...)`` does, and so does a read of the property ``f.order``."""
    sources = {
        "a": "class Field:\n    def sub(self, a, b):\n        return a - b\n\n    def add(self, a, b):\n"
             "        return a + b\n\n    def trace(self):\n        return 0\n\n    @property\n"
             "    def order(self):\n        return 2\n",
        "cli": "import argparse\nfrom a import Field\nargs = argparse.ArgumentParser().parse_args()\n"
               "sub = Field()\nprint(sub.add(1, 2), sub.order, args.trace)\n",
    }
    assert unreferenced(sources, public=True) == [("a", 2, "Field.sub"), ("a", 8, "Field.trace")]


def test_checker_counts_a_class_reference_and_a_tracer_string():
    """``Box.scale`` reaches Box alone, so Crate's ``scale`` is dead; the
    tracer's string ``"pack"`` reaches the one class with that method."""
    sources = {
        "a": "class Box:\n    def scale(self):\n        pass\n\n    def pack(self):\n        pass\n\n"
             "class Crate:\n    def scale(self):\n        pass\n",
        "b": "from a import Box, Crate\nf, c = Box.scale, Crate()\n",
    }
    readers = {"tracer": "CLASS_METHODS = {('a', 'Box'): ('pack',)}\n"}
    assert unreferenced(sources, readers, public=True) == [("a", 9, "Crate.scale")]
    assert unreferenced(sources, public=True) == [("a", 5, "Box.pack"), ("a", 9, "Crate.scale")]


def test_checker_allowance_needs_a_reason():
    """A name several classes define and only untyped receivers reach keeps
    them alive when the allowance lists them with a reason, and only then."""
    sources = {
        "a": "class PrimeField:\n    def add(self, a, b):\n        pass\n\n"
             "class BinaryField:\n    def add(self, a, b):\n        pass\n",
        "b": "from a import BinaryField, PrimeField\n\ndef total(f, xs):\n    return f.add(*xs)\n\n"
             "print(total(PrimeField(), [1, 2]), BinaryField())\n",
    }
    assert unreferenced(sources, public=True) == [("a", 2, "PrimeField.add"), ("a", 6, "BinaryField.add")]
    shared = {"add": ("PrimeField BinaryField", "callers hold a field of either kind")}
    assert unreferenced(sources, public=True, shared=shared) == []
    for entry in [("PrimeField BinaryField", ""), ("PrimeField BinaryField", "  ")]:
        with pytest.raises(ValueError, match="gives no reason"):
            unreferenced(sources, public=True, shared={"add": entry})
    with pytest.raises(ValueError, match="names Matrix, which has no such method"):
        unreferenced(sources, public=True, shared={"add": ("PrimeField Matrix", "a reason")})


def _package_sources() -> dict:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(ROOT.glob("src/icx/*.py"))}


def test_no_dead_private_helpers():
    """Every private function, method and class of the package is used
    somewhere in it: a helper left behind by a rewrite fails here."""
    assert unreferenced(_package_sources()) == []


def test_every_public_name_has_a_caller_outside_tests():
    """The API is the public names of the submodules, and each has a caller
    in the package, its scripts or its benchmark (read as text, not imported):
    a name only the tests use is not part of it.  A method needs a caller that
    reaches its class, or a line in SHARED."""
    readers = {
        f"{p.parent.name}/{p.name}": p.read_text(encoding="utf-8")
        for p in sorted([*ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")])
    }
    assert unreferenced(_package_sources(), readers, public=True, shared=SHARED) == []


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


def test_package_lines_fit_in_120_columns():
    """The package keeps every line within 120 columns, so no line count is cut by joining lines."""
    wide = [
        f"{path.name}:{number}"
        for path in sorted(ROOT.glob("src/icx/*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > 120
    ]
    assert wide == []


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
