"""Lint: every module of the package imports only the standard library and
numpy, uses each name it imports, every top-level function of the package
is read somewhere, every dataclass field is read outside its own class,
only the listed owner functions open, read or write files or parse JSON,
the core modules import no method module, the CV protocol trains no model,
and the harness runs no CV of its own: no fold loop, no selection and no H-L2L
layer-2 selection."""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

import emgadapt

PACKAGE_DIR = Path(emgadapt.__file__).parent
PERFBENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"

# Dataclass fields that no source reads outside their class, each kept as a
# per-cell diagnostic for the planned run trace.
DIAGNOSTICS = [
    "harness.CellResult.params",  # the hyperparameters the cell chose
    "mkal.MkalModel.best_epoch",  # the kept iterate's epoch; None marks the zero model
    "mkal.MkalModel.best_objective",  # the kept iterate's training objective
    "mkal.MkalModel.block_norms",  # the kept iterate's per-block norms, the cached ones its objective used
    "multi_adapt.MaModel.loo_bound",  # the LOO hinge bound of the chosen beta
]

# Dataclass fields that only a method of their own class reads.
OWN_STATE = [
    "signals.NormStats.std",  # read by NormStats.scale; NormStats.fit computes it
]


# The only functions that open, read or write a file or parse JSON text, one owner per format.
FILE_OWNERS = [
    "harness.load_confusion_csv",  # reads the G x G matrix CSVs of a run
    "harness.write_table",  # writes every CSV of `run` and `analyze`
    "signals._read_csv",  # reads recording and feature tables
    "signals._write_csv",  # writes recording and feature tables
    "signals.read_json",  # reads every JSON document: sidecars, manifests, --config files
    "signals.write_json",  # writes every JSON document
]
FILE_METHODS = ("open", "read_text", "write_text", "read_bytes", "write_bytes", "tofile")
NUMPY_FILE_FUNCTIONS = ("loadtxt", "genfromtxt", "fromfile", "load", "save", "savez", "savetxt")

# The LS-SVM core, the kernels and the signal layer know nothing of source
# scores or of the methods built on them: they import none of these modules,
# directly or through another module of the package.
CORE_MODULES = ("kernels", "lssvm", "signals")
METHOD_MODULES = ("baselines", "harness", "hl2l", "mkal", "multi_adapt")

# The harness runs no fold loop of its own: MKAL's lockstep CV is `mkal.select_mkal`'s.
FOLD_LOOP_NAMES = ("cross_validate", "training_rows")

# Nor does it select: the shared (C, gamma) is the one `baselines.fit_no_transfer` picks.
SELECTION_NAMES = ("select", "kfold_labels")

# Nor does it stack or fit H-L2L: layer 2's selection and fit are `hl2l.select_hl2l`'s.
HL2L_SELECTION_NAMES = ("stacking_dataset", "fit_hl2l")

# The CV protocol trains no model: `model_selection` imports nothing from `lssvm` and
# builds no Gram; an LS-SVM caller hands it `lssvm.kfold_labels`.
GRAM_NAMES = ("gram", "gram_diagonal")


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def unused_imports(source: str) -> list[str]:
    """Names the module binds by import but never reads; names in `__all__` count as read."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif _is_all(node):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def foreign_imports(source: str) -> list[str]:
    """Top-level modules that `source` imports from outside the standard library
    and numpy; relative imports of the package itself count as its own."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return sorted(found - set(sys.stdlib_module_names) - {"numpy", "__future__"})


def _reads(tree: ast.AST) -> Counter:
    """How often `tree` reads each name, bare or as an attribute; `__all__` entries count once."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
        elif _is_all(node):
            reads.update(ast.literal_eval(node.value))
    return reads


def unused_functions(package: dict[str, str], others: list[str]) -> list[str]:
    """`module.function` for each top-level function of `package` (module name -> source)
    whose name no source of `package` or `others` reads outside the function's own body.

    Names are matched without their module, so a read of any attribute of
    that name counts: the lint misses a dead function that shares its name
    with a live one, and never flags a live one.
    """
    trees = {module: ast.parse(source) for module, source in package.items()}
    reads = Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        reads += _reads(tree)
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and reads[node.name] == _reads(node)[node.name]
    )


def _attribute_reads(tree: ast.AST) -> Counter:
    """How often `tree` reads each name as an attribute."""
    return Counter(
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def _is_dataclass(node: ast.AST) -> bool:
    """Whether `node` is a class under `@dataclass`, `@dataclass(...)` or `@dataclasses.dataclass`."""
    return isinstance(node, ast.ClassDef) and any(
        ast.unparse(d.func if isinstance(d, ast.Call) else d).split(".")[-1] == "dataclass"
        for d in node.decorator_list
    )


def unread_fields(package: dict[str, str], others: list[str]) -> list[str]:
    """`module.Class.field` for each dataclass field of `package` (module name ->
    source) that no source of `package` or `others` reads as an attribute
    outside the class's own body.

    As in `unused_functions`, a read of any attribute of that name counts.
    """
    trees = {module: ast.parse(source) for module, source in package.items()}
    reads = Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        reads += _attribute_reads(tree)
    return sorted(
        f"{module}.{cls.name}.{stmt.target.id}"
        for module, tree in trees.items()
        for cls in tree.body
        if _is_dataclass(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and reads[stmt.target.id] == _attribute_reads(cls)[stmt.target.id]
    )


def _uses_files(tree: ast.AST) -> bool:
    """Whether `tree` calls `open` (bare or as a method), a path's read or write
    method, an array's `tofile`, `json.load`, `json.loads` or `json.dump`, or one of
    numpy's file readers and writers in `NUMPY_FILE_FUNCTIONS`."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            return True
        if isinstance(func, ast.Attribute) and (
            func.attr in FILE_METHODS
            or (ast.unparse(func.value) == "json" and func.attr in ("load", "loads", "dump"))
            or (ast.unparse(func.value) in ("np", "numpy") and func.attr in NUMPY_FILE_FUNCTIONS)
        ):
            return True
    return False


def file_users(package: dict[str, str]) -> list[str]:
    """`module.name` for each top-level statement of `package` (module name -> source)
    that uses files as `_uses_files` tells: a function or class by its name, any
    other statement as `<module>`."""
    return sorted(
        f"{module}.{getattr(node, 'name', '<module>')}"
        for module, source in package.items()
        for node in ast.parse(source).body
        if _uses_files(node)
    )


def package_imports(source: str) -> list[str]:
    """Modules of the package that `source` imports, relatively or as `emgadapt.<module>`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("emgadapt."))
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:  # absolute: only the package's own modules count
                if parts[:1] != ["emgadapt"]:
                    continue
                parts = parts[1:]
            found.update(parts[:1] or [a.name for a in node.names])
    return sorted(found)


def imported_or_read_names(source: str) -> set[str]:
    """Names `source` imports, under their own name whatever the alias, or reads, bare or
    as an attribute."""
    tree = ast.parse(source)
    imported = {a.name.split(".")[-1] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
    return imported | set(_reads(tree))


def test_lint_flags_an_unused_import():
    source = "import os\nimport sys\nfrom a.b import c as d, e\nprint(sys, e)\n"
    assert unused_imports(source) == ["d", "os"]


def test_lint_flags_a_function_nothing_reads():
    package = {
        "a": "def called():\n    pass\n\ndef recursive(n):\n    return recursive(n - 1)\n\n"
             "def exported():\n    pass\n\n__all__ = ['exported']\n",
        "b": "from .a import called\n\ncalled()\n\ndef dead():\n    pass\n\n"
             "def read_as_attribute():\n    pass\n",
    }
    others = ["from pkg import b\n\nb.read_as_attribute()\n"]
    assert unused_functions(package, others) == ["a.recursive", "b.dead"]
    assert unused_functions(package, []) == ["a.recursive", "b.dead", "b.read_as_attribute"]


def test_lint_flags_a_dataclass_field_nothing_reads():
    package = {
        "a": "from dataclasses import dataclass\n\n@dataclass(frozen=True)\nclass A:\n"
             "    read: int\n    unread: int\n    read_by_its_class: int\n\n"
             "    def twice(self):\n        return 2 * self.read_by_its_class\n",
        "b": "import dataclasses\n\n@dataclasses.dataclass\nclass B:\n    read_elsewhere: int\n"
             "    not_a_field = 1\n\nclass Plain:\n    annotated: int\n\n"
             "def first(a):\n    return a.read\n",
    }
    others = ["def second(b):\n    return b.read_elsewhere\n"]
    assert unread_fields(package, others) == ["a.A.read_by_its_class", "a.A.unread"]
    assert unread_fields(package, []) == ["a.A.read_by_its_class", "a.A.unread", "b.B.read_elsewhere"]


def test_lint_flags_file_use_outside_the_owners():
    package = {
        "a": "import json\n\ndef owner(path):\n    return json.loads(path.read_text())\n\n"
             "def caller(path):\n    return owner(path)\n\n"
             "def inline(path, doc):\n    path.write_text(json.dumps(doc))\n",
        "b": "CONFIG = open('x').read()\n\nclass Reader:\n    def read(self, p):\n"
             "        with p.open() as fh:\n            return fh.read()\n\n"
             "def dump(doc, fh):\n    json.dump(doc, fh)\n\ndef text(p):\n    return str(p)\n",
        "c": "import numpy as np\n\ndef table(p):\n    return np.loadtxt(p, delimiter=',')\n\n"
             "def raw(a, p):\n    a.tofile(p)\n\ndef array(x):\n    return np.asarray(x)\n",
    }
    assert file_users(package) == ["a.inline", "a.owner", "b.<module>", "b.Reader", "b.dump",
                                   "c.raw", "c.table"]


def test_lint_flags_an_import_beyond_the_standard_library_and_numpy():
    source = ("import os.path\nimport numpy as np\nimport scipy.sparse\nfrom numpy.linalg import eigh\n"
              "from scipy.sparse.csgraph import connected_components\nfrom . import kernels\n"
              "from .lssvm import fit\nimport sklearn, json\n\ndef late():\n    import torch\n")
    assert foreign_imports(source) == ["scipy", "sklearn", "torch"]


def test_lint_finds_the_package_modules_a_module_imports():
    source = ("from . import a, b\nfrom .c import x\nfrom .d.e import y\nfrom emgadapt import f\n"
              "from emgadapt.g import z\nimport emgadapt.h.i, os\nimport numpy as np\nfrom os import path\n")
    assert package_imports(source) == ["a", "b", "c", "d", "f", "g", "h"]


def model_training_names(source: str) -> list[str]:
    """`lssvm` if `source` imports it or a name from it, and each of `GRAM_NAMES` it imports or reads."""
    found = set(package_imports(source)) & {"lssvm"}
    return sorted(found | (imported_or_read_names(source) & set(GRAM_NAMES)))


def test_lint_flags_a_protocol_that_trains_a_model():
    source = ("from .lssvm import kfold_labels as kl\nfrom .kernels import KernelSpec, gram as g\n"
              "from . import kernels\nkernels.gram_diagonal(spec, X)\n")
    assert model_training_names(source) == ["gram", "gram_diagonal", "lssvm"]
    assert model_training_names("from . import lssvm\n") == ["lssvm"]
    assert model_training_names("import emgadapt.lssvm\nfrom .kernels import KernelSpec\n") == ["lssvm"]
    assert model_training_names("from .kernels import KernelSpec\nfrom .signals import Dataset\n") == []


def test_model_selection_trains_no_model():
    assert model_training_names((PACKAGE_DIR / "model_selection.py").read_text()) == []


def test_lint_finds_imported_or_read_names():
    source = ("from .model_selection import cross_validate as cv\n"
              "import emgadapt.model_selection as ms\nms.training_rows(folds, 0)\n")
    assert set(FOLD_LOOP_NAMES) <= imported_or_read_names(source)
    source = ("from .lssvm import kfold_labels as kl\nfrom . import model_selection\n"
              "best, _ = model_selection.select(sub, kl, grid)\n")
    assert set(SELECTION_NAMES) <= imported_or_read_names(source)


def test_harness_runs_no_fold_loop_of_its_own():
    names = imported_or_read_names((PACKAGE_DIR / "harness.py").read_text())
    assert sorted(names & set(FOLD_LOOP_NAMES)) == []


def test_harness_selects_no_hyperparameters_of_its_own():
    names = imported_or_read_names((PACKAGE_DIR / "harness.py").read_text())
    assert sorted(names & set(SELECTION_NAMES)) == []


def test_harness_leaves_hl2l_layer2_selection_to_select_hl2l():
    names = imported_or_read_names((PACKAGE_DIR / "harness.py").read_text())
    assert sorted(names & set(HL2L_SELECTION_NAMES)) == []


@pytest.mark.parametrize("module", CORE_MODULES)
def test_core_module_imports_no_method_module(module):
    reached, todo = set(), [module]
    while todo:  # every package module `module` loads, through any chain of imports
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(package_imports((PACKAGE_DIR / f"{name}.py").read_text()))
    assert sorted(reached & set(METHOD_MODULES)) == []


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library_and_numpy(path):
    # scipy is installed but is not a declared dependency of the package
    assert foreign_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_every_function_of_the_package_is_read_outside_the_tests():
    package = {p.stem: p.read_text() for p in sorted(PACKAGE_DIR.glob("*.py"))}
    others = [p.read_text() for p in sorted(PERFBENCH_DIR.glob("*.py"))]
    # an oracle that only tests call lives in the tests
    assert unused_functions(package, others) == []


def test_every_dataclass_field_is_read_outside_its_class():
    package = {p.stem: p.read_text() for p in sorted(PACKAGE_DIR.glob("*.py"))}
    others = [p.read_text() for p in sorted(PERFBENCH_DIR.glob("*.py"))]
    # a diagnostic that the package starts to read leaves the list
    assert unread_fields(package, others) == sorted(DIAGNOSTICS + OWN_STATE)


def test_only_the_owners_open_read_or_write_files():
    package = {p.stem: p.read_text() for p in sorted(PACKAGE_DIR.glob("*.py"))}
    # a new file format gets its own owner on the list; a new writer of an old one reuses its owner
    assert file_users(package) == FILE_OWNERS
