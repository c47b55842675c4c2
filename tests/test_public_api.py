"""Public-API integrity: every module imports, every public function and
class is documented and has a caller, lazy top-level exports work."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

PACKAGES = [
    "repro.util",
    "repro.seqio",
    "repro.kmers",
    "repro.sort",
    "repro.cc",
    "repro.index",
    "repro.runtime",
    "repro.core",
    "repro.service",
    "repro.datasets",
    "repro.assembly",
    "repro.baselines",
    "repro.perf",
]

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


def _public_defs(tree: ast.Module) -> list:
    """The module's public top-level functions and classes."""
    return [
        node
        for node in tree.body
        if isinstance(node, _DEFS) and not node.name.startswith("_")
    ]


def _package_modules(name: str) -> list:
    """``(module name, parsed tree)`` of every module in the package."""
    package = SRC.joinpath(*name.split("."))
    return [
        (_module_name(path).removesuffix(".__init__"), ast.parse(path.read_text()))
        for path in sorted(package.rglob("*.py"))
    ]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    """Package ``__init__`` files import nothing, so this is where every
    module is imported: each must import, and define every public name
    its source does."""
    for module_name, tree in _package_modules(name):
        module = importlib.import_module(module_name)
        for node in _public_defs(tree):
            assert hasattr(module, node.name), f"{module_name}.{node.name} missing"


@pytest.mark.parametrize("name", PACKAGES)
def test_public_callables_documented(name):
    undocumented = [
        f"{module_name}.{node.name}"
        for module_name, tree in _package_modules(name)
        for node in _public_defs(tree)
        if not ast.get_docstring(node)
    ]
    assert undocumented == []


@pytest.mark.parametrize("name", PACKAGES)
def test_package_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and len(module.__doc__.strip()) > 20, name


#: modules allowed to have no importer under ``src/`` or ``benchmarks/``
NO_CALLER_ALLOWED = {
    # the console-script entry point: invoked by name, imported by no one
    "repro.cli",
}


def _imported_names(path: Path) -> set:
    """Every dotted name ``path`` imports: ``import a.b`` gives ``a.b``;
    ``from a import b`` gives ``a`` and ``a.b`` (``b`` may be a module).
    The repo uses absolute imports only."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import in {path}"
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_every_module_has_a_caller():
    """A module stays in ``src/repro`` only while something under
    ``src/`` or ``benchmarks/`` imports it — its own package
    ``__init__`` re-exporting it, its own test, or an ``examples/``
    script do not count."""
    imported = set()
    for path in [*SRC.rglob("*.py"), *(REPO / "benchmarks").rglob("*.py")]:
        names = _imported_names(path)
        if path.name == "__init__.py" and SRC in path.parents:
            package = ".".join(path.parent.relative_to(SRC).parts)
            names = {n for n in names if n.rpartition(".")[0] != package}
        imported |= names
    modules = {
        _module_name(path) for path in SRC.rglob("*.py") if path.name != "__init__.py"
    }
    assert sorted(modules - imported - NO_CALLER_ALLOWED) == []


def _referenced_names(node: ast.AST) -> set:
    """Identifiers ``node`` refers to: names, attributes, and the last
    part of every imported name.  Docstrings and comments do not count."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
    return names


def test_every_public_name_has_a_caller():
    """A public top-level function or class stays in ``src/repro`` only
    while code under ``src/``, ``benchmarks/`` or ``examples/`` refers to
    it — its own definition, its package ``__init__`` and ``tests/`` do
    not count.  Use inside the defining module counts, but a reference
    made from within another public name counts only once that name
    has a caller itself, so a helper whose only user is dead code is
    dead too.  Names match by identifier, so a same-named attribute
    anywhere keeps a name alive: the check can miss dead code, never
    flag live code."""
    defs = {}  # (module, name) -> that module's package __init__
    sites = []  # (referring public def or None, file, identifiers)
    roots = [SRC, REPO / "benchmarks", REPO / "examples"]
    for path in [p for root in roots for p in sorted(root.rglob("*.py"))]:
        tree = ast.parse(path.read_text())
        in_src = SRC in path.parents and path.name != "__init__.py"
        public = {id(node) for node in _public_defs(tree)} if in_src else set()
        for stmt in tree.body:
            owner = None
            if id(stmt) in public:
                owner = (_module_name(path), stmt.name)
                defs[owner] = path.parent / "__init__.py"
            sites.append((owner, path, _referenced_names(stmt)))
    live: set = set()
    while True:
        grown = {
            target
            for target, init in defs.items()
            if any(
                target[1] in names
                and owner != target
                and path != init
                and (owner is None or owner in live)
                for owner, path, names in sites
            )
        }
        if grown == live:
            break
        live = grown
    assert sorted(f"{m}.{n}" for m, n in set(defs) - live) == []


#: names of the old one-limb / two-limb fork: only the codec may know
#: how many limbs a k-mer takes
LIMB_FORK = re.compile(r"two_limb|hi_offset|_HI_DTYPE")


def _limb_fork_sites(path: Path) -> list:
    """Lines of ``path`` that name the limb fork: an identifier or string
    matching :data:`LIMB_FORK`, or ``x.hi is None`` / ``x.hi is not
    None``.  The spill header's ``"two_limb"`` dict key is exempt — the
    on-disk format keeps it."""
    tree = ast.parse(path.read_text())
    header_keys = {
        id(key)
        for node in ast.walk(tree)
        if isinstance(node, ast.Dict)
        for key in node.keys
        if isinstance(key, ast.Constant) and key.value == "two_limb"
    }
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            right = node.comparators[0]
            hit = (
                isinstance(node.left, ast.Attribute)
                and node.left.attr == "hi"
                and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                and isinstance(right, ast.Constant)
                and right.value is None
            )
        elif isinstance(node, ast.Constant):
            hit = (
                isinstance(node.value, str)
                and id(node) not in header_keys
                and bool(LIMB_FORK.search(node.value))
            )
        else:  # Name.id, Attribute.attr, def/class/alias .name, arg.arg
            names = [getattr(node, a, None) for a in ("id", "attr", "name", "arg")]
            hit = any(isinstance(n, str) and LIMB_FORK.search(n) for n in names)
        if hit:
            sites.append(node.lineno)
    return sites


def test_only_the_codec_knows_the_limb_count():
    """Every k-mer width runs one code path: a batch is a tuple of
    ``uint64`` limbs, and only ``kmers/codec.py`` decides how many."""
    src = REPO / "src" / "repro"
    offenders = {
        str(path.relative_to(src)): sites
        for path in sorted(src.rglob("*.py"))
        if path != src / "kmers" / "codec.py"
        for sites in [_limb_fork_sites(path)]
        if sites
    }
    assert offenders == {}


#: the spill wire format's schema tag, by value and by name
SPILL_SCHEMA_NAMES = {"TUPLEBLOCK_SCHEMA", "_BLOCK_SCHEMA"}
SPILL_SCHEMA_TAG = "metaprep/tupleblock"


def _spill_access_sites(path: Path) -> list:
    """Lines of ``path`` that open a ``.spill`` path with ``open()`` or
    name the tupleblock schema (its constant or its literal tag)."""
    sites = []
    for node in ast.walk(ast.parse(path.read_text())):
        func = getattr(node, "func", None)
        if (getattr(func, "id", None) or getattr(func, "attr", None)) == "open":
            args = [*node.args, *(kw.value for kw in node.keywords)]
            hit = any(
                isinstance(c, ast.Constant)
                and isinstance(c.value, str)
                and ".spill" in c.value
                for a in args
                for c in ast.walk(a)
            )
        elif isinstance(node, ast.Constant):
            hit = node.value == SPILL_SCHEMA_TAG
        else:
            names = [getattr(node, a, None) for a in ("id", "attr", "name")]
            hit = any(n in SPILL_SCHEMA_NAMES for n in names if isinstance(n, str))
        if hit:
            sites.append(node.lineno)
    return sites


def test_only_the_spill_module_touches_spill_files():
    """Spill files are written, sealed, read and swept only by
    ``runtime/spill.py``, so its torn-write detection, fsync-then-rename
    seal and crash sweep cover every one of them."""
    src = REPO / "src" / "repro"
    offenders = {
        str(path.relative_to(src)): sites
        for path in sorted(src.rglob("*.py"))
        if path != src / "runtime" / "spill.py"
        for sites in [_spill_access_sites(path)]
        if sites
    }
    assert offenders == {}


#: the service layer: the two packages whose wall-clock reads are
#: job-record timestamps (the wall-clock hazard's only exemption,
#: ``tests/analysis/hazards.py::WALL_CLOCK_EXEMPT``)
SERVICE_LAYER = re.compile(r"^repro\.(service|gateway)(\.|$)")


def test_nothing_below_the_service_layer_imports_it():
    """Only ``service/``, ``gateway/`` and ``cli.py`` import
    ``repro.service`` or ``repro.gateway``.  So the service layer's
    wall-clock job timestamps cannot reach a result, and the wall-clock
    scan (``tests/analysis/test_hazards.py``) can skip those two packages
    and scan every other module directly."""
    src = REPO / "src" / "repro"
    offenders = {
        str(path.relative_to(src)): names
        for path in sorted(src.rglob("*.py"))
        if path.relative_to(src).parts[0] not in ("service", "gateway", "cli.py")
        for names in [sorted(filter(SERVICE_LAYER.match, _imported_names(path)))]
        if names
    }
    assert offenders == {}


def test_analysis_is_stdlib_only():
    """The hazard scan (``tests/analysis/hazards.py``) imports only the
    stdlib: it reads ``src/repro`` as text and never imports, and so
    never runs, the code it scans."""
    names = _imported_names(REPO / "tests" / "analysis" / "hazards.py")
    assert sorted(n for n in names if n.split(".")[0] not in sys.stdlib_module_names) == []


class TestTopLevelLazyExports:
    def test_lazy_names(self):
        import repro

        assert repro.MetaPrep is not None
        assert repro.PipelineConfig is not None
        assert callable(repro.build_dataset)

    def test_unknown_attribute_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.not_a_real_symbol

    def test_dir_lists_lazy_names(self):
        import repro

        listing = dir(repro)
        assert "MetaPrep" in listing
        assert "build_dataset" in listing

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"
