"""The docs-consistency checker itself must work (CI runs it directly)."""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKER = REPO_ROOT / "tools" / "check_docs.py"


def test_checker_passes_on_current_docs():
    proc = subprocess.run(
        [sys.executable, str(CHECKER)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout


def test_checker_resolves_and_rejects():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from check_docs import resolve

        assert resolve("repro.core.framework.Flix")
        assert resolve("repro.obs.MetricsRegistry")
        assert resolve("repro.obs")
        assert resolve("repro.shard.coordinator.ShardCoordinator")
        assert not resolve("repro.not_a_module.thing")
        assert not resolve("repro.core.framework.NotAClass")
    finally:
        sys.path.remove(str(REPO_ROOT / "tools"))


def test_every_doc_file_is_registered():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        from check_docs import CHECKED_DOCS, check_all_docs_registered

        assert check_all_docs_registered() == []
        registered = {doc.name for doc in CHECKED_DOCS}
        on_disk = {doc.name for doc in (REPO_ROOT / "docs").glob("*.md")}
        assert registered == on_disk
    finally:
        sys.path.remove(str(REPO_ROOT / "tools"))


def test_stale_paths_and_cli_verbs_are_reported(tmp_path):
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from check_docs import check_paths_and_verbs

        doc = tmp_path / "DOC.md"
        doc.write_text(
            "`tools/check_docs.py:12`, `tests/wal/**`, `BENCHMARK.json`,\n"
            "`benchmarks/bench_*.py`, `repro serve` and `from repro import\n"
            "Flix` are fine; `tools/no_such_tool.py`, `BENCH_gone.json` and\n"
            "`python -m repro {stats,no-such-verb}` are stale, as is\n\n"
            "```bash\n"
            "PYTHONPATH=src python -m repro.cli gone-bench --json\n"
            "pytest benchmarks/bench_gone.py -q\n"
            "```\n",
            encoding="utf-8",
        )
        assert check_paths_and_verbs(docs=(doc,)) == [
            f"{doc} names missing path 'BENCH_gone.json'",
            f"{doc} names missing path 'benchmarks/bench_gone.py'",
            f"{doc} names missing path 'tools/no_such_tool.py'",
            f"{doc} names unregistered CLI verb 'gone-bench'",
            f"{doc} names unregistered CLI verb 'no-such-verb'",
        ]
    finally:
        sys.path.remove(str(REPO_ROOT / "tools"))


def test_stale_export_list_entry_is_reported(monkeypatch):
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from check_docs import check_exports

        import repro.core

        assert check_exports() == []
        monkeypatch.setattr(
            repro.core, "__all__", [*repro.core.__all__, "GoneName"]
        )
        assert check_exports() == [
            "repro.core.__all__ names missing symbol 'GoneName'"
        ]
    finally:
        sys.path.remove(str(REPO_ROOT / "tools"))


def test_export_members_resolve_or_are_reported(tmp_path):
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from check_docs import check_member_references

        fine = tmp_path / "FINE.md"
        fine.write_text(
            "`Flix.build(collection, config)`, `Flix.layout`, "
            "`QueryRequest.kind` (a field with no default), "
            "`QueryResponse.stats`, `FlixConfig.naive()` and "
            "`PathExpressionEvaluator._expand_entry`; `Unexported.gone` "
            "and `flix.rebuild()` are not export members.\n",
            encoding="utf-8",
        )
        assert check_member_references(docs=(fine,)) == []
        stale = tmp_path / "STALE.md"
        stale.write_text(
            "`Flix.rebuild(config)` and "
            "`PathExpressionEvaluator._expand_with` are gone.\n",
            encoding="utf-8",
        )
        assert check_member_references(docs=(stale,)) == [
            f"{stale} names missing member 'Flix.rebuild'",
            f"{stale} names missing member "
            "'PathExpressionEvaluator._expand_with'",
        ]
    finally:
        sys.path.remove(str(REPO_ROOT / "tools"))
