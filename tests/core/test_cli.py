"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def crawl_file(tmp_path):
    path = tmp_path / "crawl.tsv"
    path.write_text(
        "http://a.com/1\thttp://b.org/1\n"
        "http://a.com/2\thttp://b.org/1\n"
        "http://b.org/1\thttp://a.com/1\n"
        "http://spam.test/x\thttp://spam.test/y\n"
        "http://spam.test/y\thttp://spam.test/x\n"
        "http://a.com/1\thttp://spam.test/x\n"
    )
    return path


@pytest.fixture()
def edge_file(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("0 1\n1 2\n2 0\n3 0\n")
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rank_requires_input(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["rank"])

    def test_rank_inputs_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["rank", "--edges", "x", "--dataset", "tiny"]
            )


class TestRankCommand:
    def test_rank_crawl(self, crawl_file, capsys):
        code = main(["rank", "--edges", str(crawl_file), "--top", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "top 3 sources" in out

    def test_rank_with_blocklist(self, crawl_file, tmp_path, capsys):
        blocklist = tmp_path / "bad.txt"
        blocklist.write_text("spam.test\n# comment\n")
        code = main(
            ["rank", "--edges", str(crawl_file), "--blocklist", str(blocklist)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 blocklisted" in out
        assert "throttled sources" in out

    def test_rank_blocklist_skips_indented_comment(
        self, crawl_file, tmp_path, capsys
    ):
        blocklist = tmp_path / "bad.txt"
        blocklist.write_text("spam.test\n  # note\n")
        main(["rank", "--edges", str(crawl_file), "--blocklist", str(blocklist)])
        captured = capsys.readouterr()
        assert "1 blocklisted" in captured.out
        assert "not in crawl" not in captured.err

    def test_rank_blocklist_warns_on_missing_host(self, crawl_file, tmp_path, capsys):
        blocklist = tmp_path / "bad.txt"
        blocklist.write_text("not-in-crawl.example\nspam.test\n")
        main(["rank", "--edges", str(crawl_file), "--blocklist", str(blocklist)])
        err = capsys.readouterr().err
        assert "not-in-crawl.example" in err

    def test_rank_with_audit(self, crawl_file, capsys):
        assert main(["rank", "--edges", str(crawl_file), "--audit"]) == 0
        out = capsys.readouterr().out
        assert "top" in out

    def test_audit_flags_parse(self):
        args = build_parser().parse_args(
            ["rank", "--dataset", "tiny", "--audit", "--audit-lenient"]
        )
        assert args.audit and args.audit_lenient
        args = build_parser().parse_args(["rank", "--dataset", "tiny"])
        assert not args.audit

    def test_rank_dataset(self, capsys):
        code = main(["rank", "--dataset", "tiny", "--top", "5"])
        assert code == 0
        assert "dataset tiny" in capsys.readouterr().out


class TestFiguresCommand:
    def test_fast_subset(self, capsys):
        code = main(["figures", "fig2", "fig3", "--fast"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig 2" in out
        assert "Fig 3" in out
        assert "Fig 5" not in out


class TestDatasetCommand:
    def test_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "ds"
        code = main(["dataset", "tiny", str(out_dir)])
        assert code == 0
        assert (out_dir / "edges.tsv").exists()
        assert (out_dir / "page_to_source.txt").exists()
        spam = np.loadtxt(out_dir / "spam_sources.txt", dtype=np.int64)
        assert spam.size == 8


class TestStatsCommand:
    def test_prints_stats(self, edge_file, capsys):
        code = main(["stats", str(edge_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "n_nodes" in out
        assert "weak components" in out


class TestResumeValidation:
    def test_resume_without_checkpoint_dir_is_parse_error(self, capsys):
        # Satellite regression: this used to be a soft runtime check that
        # only fired after the dataset was loaded; it must be a hard
        # argparse error before any work happens.
        with pytest.raises(SystemExit) as excinfo:
            main(["rank", "--dataset", "tiny", "--resume"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--resume requires --checkpoint-dir" in err

    def test_resume_with_checkpoint_dir_accepted(self, tmp_path, capsys):
        rc = main(
            [
                "rank",
                "--dataset",
                "tiny",
                "--resume",
                "--checkpoint-dir",
                str(tmp_path / "ckpt"),
            ]
        )
        assert rc == 0
        assert "top" in capsys.readouterr().out


class TestServeCommand:
    def test_serve_demo_and_restart_recovery(self, tmp_path, capsys):
        store = tmp_path / "snapshots"
        rc = main(
            [
                "serve",
                "--snapshot-dir",
                str(store),
                "--updates",
                "2",
                "--queries",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "bootstrapping" in out
        assert "state=healthy" in out
        assert "top 5 sources" in out

        rc = main(
            [
                "serve",
                "--snapshot-dir",
                str(store),
                "--updates",
                "1",
                "--queries",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "recovered from snapshot store" in out

    def test_serve_with_crash_injection_degrades(self, tmp_path, capsys):
        rc = main(
            [
                "serve",
                "--snapshot-dir",
                str(tmp_path / "snapshots"),
                "--updates",
                "2",
                "--queries",
                "1",
                "--inject",
                "crash",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "state=stale" in out

    def test_serve_requires_snapshot_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])


class TestShard:
    def test_create_synthetic_and_info(self, tmp_path, capsys):
        out = tmp_path / "store"
        main(
            [
                "shard", "create", str(out),
                "--synthetic-sources", "300",
                "--block-size", "64",
            ]
        )
        created = capsys.readouterr().out
        assert "sources" in created
        main(["shard", "info", str(out), "--verify"])
        info = capsys.readouterr().out
        assert "n_sources: 300" in info
        assert "digests OK" in info

    def test_create_from_edges(self, edge_file, tmp_path, capsys):
        out = tmp_path / "store"
        main(["shard", "create", str(out), "--edges", str(edge_file)])
        main(["shard", "info", str(out)])
        info = capsys.readouterr().out
        assert "n_sources: 4" in info

    def test_create_from_edges_is_exact(self, edge_file, tmp_path, capsys):
        from repro.graph import read_edge_list
        from repro.webgraph import ShardedGraphStore

        out = tmp_path / "store"
        assert main(["shard", "create", str(out), "--edges", str(edge_file)]) == 0
        assert "bits/edge" in capsys.readouterr().out
        back = ShardedGraphStore.open(out).materialize()
        graph = read_edge_list(edge_file)
        np.testing.assert_array_equal(back.indptr, graph.indptr)
        np.testing.assert_array_equal(back.indices, graph.indices)

    def test_rank_graph_store(self, tmp_path, capsys):
        out = tmp_path / "store"
        main(
            [
                "shard", "create", str(out),
                "--synthetic-sources", "300",
                "--block-size", "64",
            ]
        )
        capsys.readouterr()
        main(["rank", "--graph-store", str(out), "--top", "3"])
        ranked = capsys.readouterr().out
        assert "source-" in ranked

    def test_rank_graph_store_integer_blocklist(self, tmp_path, capsys):
        out = tmp_path / "store"
        main(
            [
                "shard", "create", str(out),
                "--synthetic-sources", "300",
                "--block-size", "64",
            ]
        )
        blocklist = tmp_path / "bad.txt"
        blocklist.write_text("3\n17\n")
        main(
            [
                "rank", "--graph-store", str(out),
                "--blocklist", str(blocklist), "--top", "3",
            ]
        )
        assert "throttling 2 blocklisted" in capsys.readouterr().out

    def test_rank_graph_store_blocklist_skips_indented_comment(
        self, tmp_path, capsys
    ):
        out = tmp_path / "store"
        main(
            [
                "shard", "create", str(out),
                "--synthetic-sources", "300",
                "--block-size", "64",
            ]
        )
        blocklist = tmp_path / "bad.txt"
        blocklist.write_text("3\n  # note\n17\n")
        code = main(
            [
                "rank", "--graph-store", str(out),
                "--blocklist", str(blocklist), "--top", "3",
            ]
        )
        assert code == 0
        assert "throttling 2 blocklisted" in capsys.readouterr().out

    def test_rank_graph_store_rejects_host_blocklist(self, tmp_path):
        from repro.errors import ConfigError

        out = tmp_path / "store"
        main(
            [
                "shard", "create", str(out),
                "--synthetic-sources", "300",
                "--block-size", "64",
            ]
        )
        blocklist = tmp_path / "bad.txt"
        blocklist.write_text("spam.example\n")
        with pytest.raises(ConfigError, match="integer source ids"):
            main(
                [
                    "rank", "--graph-store", str(out),
                    "--blocklist", str(blocklist),
                ]
            )
