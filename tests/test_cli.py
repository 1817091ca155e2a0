"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.collection.io import save_collection
from repro.datasets.movies import generate_movie_collection


@pytest.fixture(scope="module")
def movie_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("movies")
    save_collection(generate_movie_collection(), directory)
    return str(directory)


class TestStats:
    def test_prints_summary(self, movie_dir, capsys):
        assert main(["stats", movie_dir]) == 0
        out = capsys.readouterr().out
        assert "15 documents" in out
        assert "link density" in out
        assert "most frequent tags" in out


class TestBuild:
    def test_auto_config(self, movie_dir, capsys):
        assert main(["build", movie_dir]) == 0
        out = capsys.readouterr().out
        assert "meta documents" in out

    def test_explicit_config(self, movie_dir, capsys):
        assert main(["build", movie_dir, "--config", "naive"]) == 0
        out = capsys.readouterr().out
        assert "config=naive" in out

    def test_partition_size_forwarded(self, movie_dir, capsys):
        assert main(
            ["build", movie_dir, "--config", "unconnected_hopi",
             "--partition-size", "40"]
        ) == 0
        out = capsys.readouterr().out
        assert "unconnected_hopi_40" in out

    def test_jobs_flag(self, movie_dir, capsys):
        assert main(
            ["build", movie_dir, "--config", "unconnected_hopi",
             "--partition-size", "40", "--jobs", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "meta documents" in out

    def test_profile_flag(self, movie_dir, capsys):
        assert main(
            ["build", movie_dir, "--config", "unconnected_hopi",
             "--partition-size", "40", "--jobs", "2", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "build profile (2 jobs" in out
        for phase in ("graph", "selection", "index", "queue_wait"):
            assert phase in out
        assert "slowest meta" in out

    def test_jobs_match_sequential_output(self, movie_dir, capsys):
        assert main(
            ["query", movie_dir, "matrix3.xml", "actor", "--jobs", "4"]
        ) == 0
        parallel = capsys.readouterr().out
        assert main(
            ["query", movie_dir, "matrix3.xml", "actor", "--jobs", "1"]
        ) == 0
        sequential = capsys.readouterr().out
        assert parallel == sequential


class TestQuery:
    def test_document_root_start(self, movie_dir, capsys):
        assert main(
            ["query", movie_dir, "matrix3.xml", "actor", "--config", "naive"]
        ) == 0
        out = capsys.readouterr().out
        assert "<actor>" in out
        assert "results" in out

    def test_wildcard_and_limit(self, movie_dir, capsys):
        assert main(
            ["query", movie_dir, "matrix1.xml", "*", "--limit", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "-- 3 results" in out

    def test_index_dir_builds_then_loads(self, movie_dir, tmp_path, capsys):
        index_dir = str(tmp_path / "idx")
        assert main(
            ["query", movie_dir, "matrix3.xml", "actor",
             "--config", "naive", "--index-dir", index_dir]
        ) == 0
        first = capsys.readouterr().out
        assert "built and saved" in first
        assert main(
            ["query", movie_dir, "matrix3.xml", "actor",
             "--config", "naive", "--index-dir", index_dir]
        ) == 0
        second = capsys.readouterr().out
        assert "loaded persisted index" in second
        # identical result lines either way
        strip = lambda out: [l for l in out.splitlines() if l.startswith("distance")]
        assert strip(first) == strip(second)

    def test_unknown_document_exits(self, movie_dir):
        with pytest.raises(SystemExit):
            main(["query", movie_dir, "ghost.xml", "actor"])

    def test_unknown_anchor_exits(self, movie_dir):
        with pytest.raises(SystemExit):
            main(["query", movie_dir, "matrix1.xml#nope", "actor"])


class TestRelaxed:
    def test_relaxed_query(self, movie_dir, capsys):
        assert main(
            ["relaxed", movie_dir,
             '/movie[title = "Matrix: Revolutions"]/actor/movie',
             "--top-k", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "score" in out
        assert "results" in out


class TestDemoDblp:
    def test_demo_runs(self, capsys):
        assert main(["demo-dblp", "--documents", "80"]) == 0
        out = capsys.readouterr().out
        assert "index sizes" in out
        assert "HOPI" in out
        assert "seconds to k results" in out


class TestMetrics:
    def test_json_format_default(self, movie_dir, capsys):
        assert main(["metrics", movie_dir, "--config", "naive"]) == 0
        out = capsys.readouterr().out
        import json

        payload = json.loads(out)
        names = {m["name"] for m in payload["metrics"]}
        assert "flix_queries_total" in names
        assert "flix_query_seconds" in names
        assert "flix_meta_documents" in names

    def test_prom_format(self, movie_dir, capsys):
        assert main(
            ["metrics", movie_dir, "--config", "naive", "--format", "prom"]
        ) == 0
        out = capsys.readouterr().out
        assert "# TYPE flix_queries_total counter" in out
        assert "# TYPE flix_meta_documents gauge" in out
        assert "# TYPE flix_query_seconds histogram" in out
        assert 'flix_query_seconds_bucket{axis="descendants",le="+Inf"} 3' in out

    def test_queries_knob(self, movie_dir, capsys):
        import json

        assert main(
            ["metrics", movie_dir, "--config", "naive", "--queries", "1"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        queries = next(
            m for m in payload["metrics"] if m["name"] == "flix_queries_total"
        )
        assert queries["samples"][0]["value"] == 1

    def test_no_observability(self, movie_dir, capsys):
        assert main(
            ["metrics", movie_dir, "--config", "naive",
             "--format", "prom", "--no-observability"]
        ) == 0
        out = capsys.readouterr().out
        assert "no metrics" in out

    def test_trace_flag_renders_tree(self, movie_dir, capsys):
        assert main(
            ["metrics", movie_dir, "--config", "naive", "--trace"]
        ) == 0
        out = capsys.readouterr().out
        assert "pee.query" in out
        assert "pee.probe" in out


class TestRepair:
    @pytest.fixture()
    def index_dir(self, movie_dir, tmp_path):
        from repro.collection.io import load_collection
        from repro.core.framework import Flix

        directory = tmp_path / "idx"
        flix = Flix.build(load_collection(movie_dir))
        flix.save(directory)
        return str(directory)

    def test_intact_index_reports_clean(self, movie_dir, index_dir, capsys):
        assert main(["repair", movie_dir, index_dir]) == 0
        assert "intact" in capsys.readouterr().out

    def test_check_flag_reports_without_repairing(
        self, movie_dir, index_dir, capsys
    ):
        from pathlib import Path

        victim = sorted(Path(index_dir).glob("meta_*.pack"))[0]
        victim.write_bytes(b"zap")
        assert main(["repair", movie_dir, index_dir, "--check"]) == 1
        assert victim.read_bytes() == b"zap"  # untouched
        assert victim.name in capsys.readouterr().out

    def test_repairs_damage(self, movie_dir, index_dir, capsys):
        from pathlib import Path

        from repro.collection.io import load_collection
        from repro.core.persistence import verify_flix

        victim = sorted(Path(index_dir).glob("meta_*.pack"))[0]
        victim.write_bytes(b"zap")
        assert main(["repair", movie_dir, index_dir]) == 0
        out = capsys.readouterr().out
        assert "rebuilt 1 file(s)" in out
        assert verify_flix(load_collection(movie_dir), index_dir) == []


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_config_rejected(self, movie_dir):
        with pytest.raises(SystemExit):
            main(["build", movie_dir, "--config", "nope"])


class TestDurabilityCommands:
    @pytest.fixture()
    def crashed_deployment(self, tmp_path):
        """A saved deployment plus a WAL with one unsnapshotted add."""
        from repro.core.config import FlixConfig
        from repro.core.framework import Flix
        from repro.collection.builder import build_collection
        from repro.collection.document import XmlDocument
        from repro.wal import wal_path_for

        collection = build_collection(
            [XmlDocument.from_text("a.xml", "<a><p>one</p></a>")]
        )
        flix = Flix.build(collection, FlixConfig.naive())
        collection_dir = tmp_path / "collection"
        index_dir = tmp_path / "index"
        save_collection(collection, collection_dir)
        flix.save(index_dir)
        flix.enable_wal(wal_path_for(index_dir))
        flix.add_document(
            XmlDocument.from_text("b.xml", "<b><q>two</q></b>")
        )
        return str(collection_dir), str(index_dir), flix

    def test_recover_replays_the_log(self, crashed_deployment, capsys):
        collection_dir, index_dir, flix = crashed_deployment
        assert main(["recover", collection_dir, index_dir]) == 0
        out = capsys.readouterr().out
        assert "replayed 1/1 record(s)" in out
        assert "applied verbs: add" in out

    def test_recover_snapshot_checkpoints(self, crashed_deployment, capsys):
        collection_dir, index_dir, flix = crashed_deployment
        assert main(
            ["recover", collection_dir, index_dir, "--snapshot"]
        ) == 0
        assert "log checkpointed" in capsys.readouterr().out
        # the checkpoint is cold-loadable and replays nothing
        assert main(["recover", collection_dir, index_dir]) == 0
        assert "replayed 0/0" in capsys.readouterr().out

    def test_wal_lists_records(self, crashed_deployment, capsys):
        collection_dir, index_dir, flix = crashed_deployment
        assert main(["wal", index_dir]) == 0
        out = capsys.readouterr().out
        assert "tail generation 1" in out
        assert "add" in out

    def test_wal_json(self, crashed_deployment, capsys):
        import json

        collection_dir, index_dir, flix = crashed_deployment
        assert main(["wal", index_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tail_generation"] == 1
        assert payload["discarded_bytes"] == 0
        assert [r["verb"] for r in payload["records"]] == ["begin", "add"]

    def test_wal_without_log_exits_one(self, movie_dir, tmp_path, capsys):
        assert main(["wal", str(tmp_path)]) == 1
        assert "no write-ahead log" in capsys.readouterr().out


class TestExplain:
    def test_table_output(self, movie_dir, capsys):
        assert main(
            ["explain", movie_dir, "matrix3.xml", "actor"]
        ) == 0
        out = capsys.readouterr().out
        assert "mode=planned" in out
        assert "strategy" in out and "fan-out" in out
        assert "est." not in out  # the plan carries no estimates

    def test_json_output(self, movie_dir, capsys):
        import json

        assert main(
            ["explain", movie_dir, "matrix3.xml", "*", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "planned"
        assert payload["kind"] == "descendants"
        assert isinstance(payload["probes"], list)

    def test_loads_persisted_index(self, movie_dir, tmp_path, capsys):
        index_dir = str(tmp_path / "index")
        assert main(
            ["explain", movie_dir, "matrix3.xml", "actor",
             "--index-dir", index_dir]
        ) == 0
        assert "built and saved" in capsys.readouterr().out
        assert main(
            ["explain", movie_dir, "matrix3.xml", "actor",
             "--index-dir", index_dir]
        ) == 0
        out = capsys.readouterr().out
        assert "loaded persisted index" in out
        assert "mode=planned" in out
