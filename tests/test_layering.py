"""Import layering: ``repro.bench`` is a leaf used by the paper-figure
suites, never by the serving path; the packed indexes know no storage
and no builder, and only the registry builds;
SQLite is the format-1 reader's alone, ``repro.storage`` holds only what
the blobs still need and depends on nothing above it, nothing that reads
a socket or a log unpickles, only ``repro.faults`` knows the
fault-plan environment, no query, build or serving module injects
faults, only the Index Builder picks index strategies, and no module
imports a name it never uses."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def imported_modules(path):
    """Absolute module names ``path`` imports, at any nesting depth."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def within(module, package):
    return module == package or module.startswith(package + ".")


def test_bench_is_a_leaf_outside_the_serving_path():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative.startswith("repro/bench/"):
            forbidden = ("repro.shard", "repro.wal")
        elif relative == "repro/cli.py":  # the one outside caller: demo-dblp
            forbidden = ()
        else:
            forbidden = ("repro.bench",)
        offenders += [
            f"{relative} imports {module}"
            for module in imported_modules(path)
            if any(within(module, package) for package in forbidden)
        ]
    assert offenders == []


def test_packed_indexes_import_no_storage():
    """The blob is the index: nothing under ``repro/indexes/packed/``
    touches table storage — only the error taxonomy it raises from."""
    offenders = [
        f"{path.relative_to(SRC).as_posix()} imports {module}"
        for path in sorted((SRC / "repro" / "indexes" / "packed").glob("*.py"))
        for module in imported_modules(path)
        if within(module, "repro.storage")
        and not within(module, "repro.storage.errors")
    ]
    assert offenders == []


#: the strategy builders: construction only, their state read once by
#: their pack step
BUILDER_MODULES = tuple(
    f"repro.indexes.{name}"
    for name in (
        "ppo", "hopi", "transitive", "apex", "kindex", "dataguide", "fabric",
        "_summary",
    )
)


def test_only_the_registry_imports_the_builders():
    """``repro.indexes.registry.build_index`` is the one way to an index:
    it alone imports a builder (the summary builders share
    ``_summary``), so every other module holds packed indexes only, and
    nothing under ``repro/indexes/packed/`` — where each strategy's one
    probe implementation lives — depends on a builder."""
    importers = {
        path.relative_to(SRC).as_posix()
        for path in sorted((SRC / "repro").rglob("*.py"))
        for module in imported_modules(path)
        if any(within(module, builder) for builder in BUILDER_MODULES)
    }
    builders = {
        "repro/" + module[len("repro."):].replace(".", "/") + ".py"
        for module in BUILDER_MODULES
    }
    assert "repro/indexes/registry.py" in importers
    assert importers - builders == {"repro/indexes/registry.py"}
    assert not any(
        importer.startswith("repro/indexes/packed/") for importer in importers
    )


def test_only_the_format1_reader_imports_sqlite():
    """Every index and the residual links are FLXPACK blobs
    (``docs/DATA_LAYOUT.md``); SQLite is opened only to read a format-1
    save, by one module."""
    importers = {
        path.relative_to(SRC).as_posix()
        for path in sorted((SRC / "repro").rglob("*.py"))
        for module in imported_modules(path)
        if within(module, "sqlite3")
    }
    assert importers == {"repro/core/format1.py"}


def test_storage_holds_only_durable_writes_errors_and_sizes():
    """No table abstraction, row store or SQLite backend is left."""
    modules = {
        path.stem
        for path in (SRC / "repro" / "storage").glob("*.py")
        if path.stem != "__init__"
    }
    assert modules == {"atomic", "errors", "sizing"}


def test_storage_imports_nothing_above_it():
    offenders = [
        f"{path.relative_to(SRC).as_posix()} imports {module}"
        for path in sorted((SRC / "repro" / "storage").glob("*.py"))
        for module in imported_modules(path)
        if any(
            within(module, package)
            for package in ("repro.obs", "repro.faults", "repro.core")
        )
    ]
    assert offenders == []


def test_no_pickle_on_the_wire():
    """Bytes from a socket or a log are JSON decoded by a validating
    codec (``repro.wal.record`` framing, ``repro.shard.protocol``
    payloads), never unpickled.  The build's process hand-off, between
    workers this process started, is the one pickle left."""
    importers = {
        path.relative_to(SRC).as_posix()
        for path in sorted((SRC / "repro").rglob("*.py"))
        for module in imported_modules(path)
        if within(module, "pickle")
    }
    assert importers == {"repro/core/ib.py"}


def test_production_code_reads_no_fault_plan_environment():
    """``plan_from_env`` is for the test side (the WAL crash-point matrix,
    CI's ``crash-chaos`` job); no build, query or serving path calls it."""
    offenders = [
        path.relative_to(SRC).as_posix()
        for path in sorted((SRC / "repro").rglob("*.py"))
        if not path.relative_to(SRC).as_posix().startswith("repro/faults/")
        and any(
            name in path.read_text(encoding="utf-8")
            for name in ("plan_from_env", "FAULT_PLAN")
        )
    ]
    assert offenders == []


def test_fault_injection_reaches_no_query_build_or_serving_module():
    """Resilience guards only faults that can occur: no module under
    ``repro/core``, ``repro/indexes`` or ``repro/shard`` imports
    ``repro.faults`` — the WAL crash hook and the package re-export are
    its only users, the two left to move when the package leaves — and
    the retry taxonomy of the removed read-fault layer is gone."""
    importers = {
        path.relative_to(SRC).as_posix()
        for path in sorted((SRC / "repro").rglob("*.py"))
        for module in imported_modules(path)
        if within(module, "repro.faults")
    }
    outside = {
        importer for importer in importers
        if not importer.startswith("repro/faults/")
    }
    assert outside == {"repro/__init__.py", "repro/wal/log.py"}
    retired = [kind + "StorageError" for kind in ("Transient", "Permanent")]
    offenders = [
        path.relative_to(SRC).as_posix()
        for path in sorted((SRC / "repro").rglob("*.py"))
        if any(name in path.read_text(encoding="utf-8") for name in retired)
    ]
    assert offenders == []


def test_only_the_index_builder_selects_strategies():
    """Every meta document — built whole, grown, re-indexed or compacted —
    is indexed by ``repro.core.ib.build_meta_document``, so the ISS is
    constructed in that one module."""
    constructors = {
        path.relative_to(SRC).as_posix()
        for path in sorted((SRC / "repro").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "IndexingStrategySelector"
    }
    assert constructors == {"repro/core/ib.py"}


def _bound_imports(tree):
    """``(line, name)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _referenced_names(tree):
    """Names the module reads: identifiers, quoted annotations, and the
    entries of an ``__all__`` list (a re-export is a use)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation ("Path", "Optional[Flix]") names types
            try:
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(
                sub.id for sub in ast.walk(expression)
                if isinstance(sub, ast.Name)
            )
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names.update(
                element.value for element in node.value.elts
                if isinstance(element, ast.Constant)
            )
    return names


def test_no_module_imports_a_name_it_never_uses():
    """No linter runs in CI; this is its unused-import rule.  Package
    ``__init__`` modules are skipped: their imports are the re-exports."""
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _referenced_names(tree)
        offenders += [
            f"{path.relative_to(SRC).as_posix()}:{line} imports {name}"
            for line, name in _bound_imports(tree)
            if name not in used
        ]
    assert offenders == []
