"""Every module imports only what it uses, and the package defines no
private name it never uses.

A name counts as used when it is read anywhere in the module, including
inside a string annotation. The package's `__init__.py` is exempt: its
imports are the public re-exports. A private function, class or method
(one underscore, not a dunder) counts as used when some `src/ppszlab`
module reads it, as a name or an attribute, outside its own body. Only
`implication.py`, of the package and the tests, touches the implication
index's live-set and clause tables, so their layout can change in one
module, and the solver modules see a formula's clauses only through the
index.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ppszlab").glob("*.py"))
MODULES = sorted(
    path
    for path in [*(ROOT / "src" / "ppszlab").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if path.name != "__init__.py"
)


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used |= {name.id for name in ast.walk(parsed) if isinstance(name, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_unused_and_annotation_only_names():
    source = (
        "import os.path\n"
        "from typing import Iterable, Sequence\n"
        "from json import dumps as _dumps\n"
        "def f(x: 'Iterable[int]') -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["line 2: Sequence", "line 3: _dumps"]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _reads(node: ast.AST) -> Counter:
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    definitions = []
    for module, tree in trees.items():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for defined in [node, *members]:
                if isinstance(defined, kinds) and _is_private(defined.name):
                    definitions.append((module, defined))
    return [
        f"{module}: {node.name}"
        for module, node in definitions
        if reads[node.name] == _reads(node)[node.name]
    ]


def test_package_has_no_unreferenced_private_definitions():
    sources = {path.name: path.read_text() for path in PACKAGE}
    assert unreferenced_private_definitions(sources) == []


def test_the_check_sees_unreferenced_private_definitions():
    sources = {
        "a.py": (
            "def _used(): return 1\n"
            "def _recursive(n): return _recursive(n - 1)\n"
            "class _Orphan:\n"
            "    def _helper(self): return self._called()\n"
            "    def _called(self): return 2\n"
            "    def __len__(self): return 0\n"
        ),
        "b.py": "from a import _used\nVALUE = _used()\n",
    }
    assert unreferenced_private_definitions(sources) == [
        "a.py: _recursive",
        "a.py: _Orphan",
        "a.py: _helper",
    ]


INDEX_TABLES = {"_true_masks", "_false_masks", "_solutions", "_clauses"}


def attribute_reads(sources: dict[str, str], names: set[str]) -> list[str]:
    return [
        f"{module}: line {node.lineno}: {node.attr}"
        for module, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in names
    ]


def test_only_the_index_reads_its_tables():
    # the tests too: each reads the index through `live`, `halves` and `bit_of`
    paths = sorted({*PACKAGE, *MODULES})
    sources = {f"{p.parent.name}/{p.name}": p.read_text() for p in paths if p.name != "implication.py"}
    assert attribute_reads(sources, INDEX_TABLES) == []


def test_the_solvers_read_clauses_only_through_the_index():
    solvers = ("engine.py", "general.py", "unique.py")
    sources = {path.name: path.read_text() for path in PACKAGE if path.name in solvers}
    assert len(sources) == len(solvers)
    assert attribute_reads(sources, {"clauses"}) == []


def test_importing_the_cli_builds_nothing():
    # a fresh interpreter, so no earlier test has filled a cache
    code = (
        "import sys\n"
        "import ppszlab.cli\n"
        "loaded = set(sys.modules)\n"
        "from ppszlab import engine, permutations\n"
        "print('heapq' in loaded,\n"
        "      permutations._distinct_rank_orders.cache_info().currsize,\n"
        "      engine._probability_engine.cache_info().currsize)\n"
    )
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "0", "0"]
