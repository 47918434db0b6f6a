"""CLI failure semantics: exit taxonomy, sidecars, verify, allow-partial."""

import json
import os

import pytest

from repro.campaign.cli import main
from repro.grid import ResultStore
from repro.sweep.envelope import load_failures
from tests.grid.entry_files import flip_byte


def _corrupt_one_event_stream(cache_dir):
    target = ResultStore(cache_dir).entries()[0][1]
    flip_byte(target)
    return target


class TestBatchExitCodes:
    def test_clean_batch_exits_0_without_a_sidecar(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["batch", "--scenario", "quickstart", "--serial",
                     "--out", out, "--no-events"]) == 0
        assert not os.path.exists(os.path.join(out, "failures.jsonl"))

    def test_quarantined_runs_exit_1_with_a_sidecar(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(["batch", "--scenario", "quickstart", "--serial",
                     "--out", out, "--no-events",
                     "--sim-budget-ns", "1000"])
        assert code == 1
        captured = capsys.readouterr()
        assert "quarantined" in captured.err
        records, torn = load_failures(os.path.join(out, "failures.jsonl"))
        assert torn == 0
        assert len(records) == 2  # quickstart × the default 2-seed matrix
        assert all(r["outcome"] == "timed-out" for r in records)
        assert all(r["quarantined"] for r in records)
        # Aggregates cover successes only — here, none.
        aggregate = json.load(
            open(os.path.join(out, "aggregate.json"), encoding="utf-8")
        )
        assert aggregate["campaign"]["runs"] == 0

    def test_fail_fast_exits_2(self, tmp_path, capsys):
        code = main(["batch", "--scenario", "quickstart", "--serial",
                     "--out", str(tmp_path / "out"), "--no-events",
                     "--sim-budget-ns", "1000", "--fail-fast"])
        assert code == 2
        assert "fail-fast abort" in capsys.readouterr().err

    def test_explicit_failures_out_is_written_even_when_clean(
        self, tmp_path, capsys
    ):
        sidecar = str(tmp_path / "elsewhere.jsonl")
        assert main(["batch", "--scenario", "quickstart", "--serial",
                     "--out", str(tmp_path / "out"), "--no-events",
                     "--failures-out", sidecar]) == 0
        records, torn = load_failures(sidecar)
        assert records == [] and torn == 0

    def test_invalid_policy_exits_2(self, tmp_path, capsys):
        code = main(["batch", "--scenario", "quickstart", "--serial",
                     "--out", str(tmp_path / "out"), "--no-events",
                     "--max-attempts", "0"])
        assert code == 2
        assert "max_attempts" in capsys.readouterr().err


class TestCacheVerifyCli:
    def _warm(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["batch", "--scenario", "quickstart", "--serial",
                     "--out", str(tmp_path / "warm"), "--cache", cache]) == 0
        capsys.readouterr()
        return cache

    def test_clean_store_exits_0(self, tmp_path, capsys):
        cache = self._warm(tmp_path, capsys)
        assert main(["cache", "verify", "--cache", cache]) == 0
        assert "0 failing" in capsys.readouterr().out

    def test_corruption_exits_1_and_repair_quarantines(self, tmp_path, capsys):
        cache = self._warm(tmp_path, capsys)
        _corrupt_one_event_stream(cache)
        assert main(["cache", "verify", "--cache", cache]) == 1
        assert "digest mismatch" in capsys.readouterr().out

        assert main(["cache", "verify", "--cache", cache, "--repair"]) == 0
        assert "moved 1" in capsys.readouterr().out
        assert os.path.isdir(os.path.join(cache, ".quarantine"))
        assert main(["cache", "verify", "--cache", cache]) == 0

    def test_missing_store_exits_2(self, capsys):
        env_backup = os.environ.pop("REPRO_CACHE_DIR", None)
        try:
            assert main(["cache", "verify"]) == 2
        finally:
            if env_backup is not None:
                os.environ["REPRO_CACHE_DIR"] = env_backup


class TestShardCli:
    def _run_shard(self, tmp_path, index, capsys):
        out = str(tmp_path / f"shard_{index}")
        assert main(["shard", "run", "--shards", "2", "--index", str(index),
                     "--scenario", "quickstart", "--out", out]) == 0
        capsys.readouterr()
        return out

    def test_strict_merge_of_a_gap_exits_2(self, tmp_path, capsys):
        shard0 = self._run_shard(tmp_path, 0, capsys)
        code = main(["shard", "merge", shard0, "--out",
                     str(tmp_path / "merged")])
        assert code == 2
        assert "--allow-partial" in capsys.readouterr().err

    def test_allow_partial_merge_exits_1_with_coverage(self, tmp_path, capsys):
        shard0 = self._run_shard(tmp_path, 0, capsys)
        merged = str(tmp_path / "merged")
        code = main(["shard", "merge", shard0, "--out", merged,
                     "--allow-partial"])
        assert code == 1
        captured = capsys.readouterr()
        assert "partial merge" in captured.err
        coverage = json.load(
            open(os.path.join(merged, "coverage.json"), encoding="utf-8")
        )
        assert coverage["absent_shards"] == [1]

    def test_complete_merge_exits_0(self, tmp_path, capsys):
        shard0 = self._run_shard(tmp_path, 0, capsys)
        shard1 = self._run_shard(tmp_path, 1, capsys)
        assert main(["shard", "merge", shard0, shard1, "--out",
                     str(tmp_path / "merged"), "--allow-partial"]) == 0

    def test_shard_run_failures_out_is_written_even_when_clean(
        self, tmp_path, capsys
    ):
        sidecar = str(tmp_path / "elsewhere.jsonl")
        assert main(["shard", "run", "--shards", "1", "--index", "0",
                     "--scenario", "quickstart", "--out",
                     str(tmp_path / "shard_0"), "--failures-out",
                     sidecar]) == 0
        records, torn = load_failures(sidecar)
        assert records == [] and torn == 0

    def test_shard_run_with_timeouts_exits_1(self, tmp_path, capsys):
        out = str(tmp_path / "shard_0")
        code = main(["shard", "run", "--shards", "1", "--index", "0",
                     "--scenario", "quickstart", "--out", out,
                     "--sim-budget-ns", "1000"])
        assert code == 1
        assert "quarantined" in capsys.readouterr().err
        assert os.path.exists(os.path.join(out, "failures.jsonl"))
