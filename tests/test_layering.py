"""Import layering: ``repro.bench`` is a leaf used by the paper-figure
suites, never by the serving path; the packed indexes know no storage
and no builder, and only the registry builds;
SQLite is the format-1 reader's alone, ``repro.storage`` holds only what
the blobs still need and depends on nothing above it, nothing that reads
a socket or a log unpickles, and only ``repro.faults`` knows the
fault-plan environment."""

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
