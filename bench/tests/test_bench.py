"""Tests of the benchmark itself: run with ``python -m pytest bench/tests``."""

from __future__ import annotations

import array
import fcntl
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import spans  # noqa: E402
import run  # noqa: E402
from run import docker_free_path  # noqa: E402

# Every metric the benchmark is specified to report, end to end and per layer.
END_TO_END = ["setup_s", "pipeline_s", "pair_s.p50", "pair_s.p90", "read_ms.p50", "read_ms.p90",
              "peak_rss_mb", "ops_failed_ratio"]
PER_LAYER = [
    "stage.mine_s", "stage.filter_s", "stage.reproduce_s", "stage.curate_s", "stage.read_s",
    "connector.commit_exists.calls", "connector.commit_exists.busy_s", "connector.fetch_build_history.busy_s",
    "connector.fetch_job_log.calls", "connector.fetch_job_log.busy_s", "connector.fetch_raw_records.calls",
    "connector.fetch_raw_records.busy_s", "connector.clone_at.calls", "connector.clone_at.busy_s",
    "connector.merge_tree.calls", "connector.merge_tree.self_s", "connector.fetch_archive_snapshot.calls",
    "connector.fetch_archive_snapshot.busy_s", "miner.mine.self_s", "miner.probes_per_build",
    "pairfilter.filter_pairs.self_s", "pairfilter.funnel.all_pairs", "pairfilter.funnel.available",
    "pairfilter.funnel.log_present", "pairfilter.funnel.docker_era", "pairfilter.funnel.with_image",
    "reproducer.stability_protocol.calls", "reproducer.revert_project.calls", "reproducer.revert_project.busy_s",
    "reproducer.tree_useful_ratio", "reproducer.original_parse_useful_ratio", "reproducer.run_job.busy_s",
    "reproducer.leaked_scratch_dirs", "runtime.run_script.calls", "runtime.run_script.busy_s",
    "runtime.run_script.ms_p50", "runtime.run_script.timed_out", "analyzer.analyze.calls",
    "analyzer.analyze.bytes", "analyzer.analyze.busy_s", "analyzer.analyze.us_per_log", "analyzer.analyze.mb_s",
    "analyzer.extract_error_tags.busy_s", "store.compute_diff_metrics.calls", "store.compute_diff_metrics.busy_s",
    "store.persist.calls", "store.persist.busy_s", "store.persist.bytes_scanned", "store.load.calls",
    "store.load.busy_s", "store.load.records", "store.query.self_s", "store.stats.busy_s", "model.codec.busy_s",
    "trace.overhead_ratio",
]


def bench(workload: str, trace: int, seed: int = 3) -> tuple[int, dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    assert len(lines) >= 2, proc.stderr
    return proc.returncode, json.loads(lines[-2])["bench"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload,trace", [("repro", 0), ("repro", 1), ("curate", 1)])
def test_tiny_run_passes_the_gate(workload, trace, declared):
    rc, info, result = bench(workload, trace)
    assert rc == 0, result
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert info["env"]["runtime"] == "LocalRuntime"
    kind = "per_layer" if trace else "end_to_end"
    assert {m["name"]: m["unit"] for m in declared[kind]} == {k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["reproducer.tree_useful_ratio"] == pytest.approx(0.2)
        assert m["trace.overhead_ratio"] > 0
        assert sorted(result["metrics"]) == sorted(PER_LAYER + ["ops_failed_ratio"])


def test_every_named_metric_is_reported_or_explained(declared):
    rc, info, result = bench("curate", 0, seed=4)
    assert rc == 0
    for name in END_TO_END:
        reported = name in result["metrics"] or name in info or name in info["omitted"]
        assert reported, name
    assert {m["name"] for m in declared["per_layer"]} == set(PER_LAYER) | {"ops_failed_ratio"}


def test_generator_is_deterministic_per_seed(tmp_path):
    a = corpus.generate(tmp_path / "a", "repro", 7, tiny=True)
    b = corpus.generate(tmp_path / "b", "repro", 7, tiny=True)
    c = corpus.generate(tmp_path / "c", "repro", 8, tiny=True)
    assert a.digest == b.digest != c.digest
    assert a.manifest["funnel"] != {} and a.manifest["pairs"].keys() == b.manifest["pairs"].keys()
    for rel in ("images.json", "store.jsonl"):
        assert (a.root / rel).read_bytes() == (b.root / rel).read_bytes()


def test_seed_varies_content_not_size(tmp_path):
    a = corpus.generate(tmp_path / "a", "repro", 1, tiny=True)
    b = corpus.generate(tmp_path / "b", "repro", 2, tiny=True)
    funnel = lambda c: sorted(tuple(f.values()) for f in c.manifest["funnel"].values())
    assert funnel(a) == funnel(b)
    assert len(a.manifest["pairs"]) == len(b.manifest["pairs"])
    assert len(a.reads) == len(b.reads)


def _span(name, start, end, parent=None):
    return [name, start, end, parent, None, None]


def test_self_time_on_a_hand_built_tree():
    tree = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 3.5, 6.0, 0),      # overlaps a: the union of children counts once
        _span("c", 9.0, 12.0, 0),     # runs past its parent: only the covered part counts
        _span("a", 7.0, 8.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([10.0 - (5.0 + 1.0 + 1.0), 2.0, 1.0, 2.5, 3.0, 1.0])
    summary = spans.summarize(tree)
    assert summary["a"]["calls"] == 2
    assert summary["a"]["busy"] == pytest.approx(4.0)
    assert summary["a"]["self"] == pytest.approx(3.0)


def test_nested_same_name_spans_count_busy_once():
    tree = [_span("stage", 0.0, 5.0), _span("codec", 1.0, 3.0, 0), _span("codec", 1.5, 2.5, 1)]
    s = spans.summarize(tree)["codec"]
    assert s["calls"] == 2 and s["busy"] == pytest.approx(2.0) and s["self"] == pytest.approx(2.0)


def test_gate_counts_a_wrong_expectation(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", docker_free_path(os.environ["PATH"]))
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import pipeline

    corp = corpus.generate(tmp_path / "corpus", "curate", 5, tiny=True)
    tag = sorted(corp.curated)[0]
    corp.curated[tag] = dict(corp.curated[tag], num_changes=corp.curated[tag]["num_changes"] + 1)
    slug = corp.projects[0][0]
    corp.manifest["funnel"][slug] = dict(corp.manifest["funnel"][slug], all_pairs=99)
    res = pipeline.run_pass(corp, tmp_path / "pass", spans.Recorder())
    assert len(res.failures) == 2, res.failures
    assert any(f.startswith(f"curate {tag}") for f in res.failures)
    assert any(f.startswith(f"filter {slug}") for f in res.failures)


def test_without_program_sources_it_exits_nonzero(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "repro", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_spread_subdirs_sets_the_flag_where_supported(tmp_path):
    spread = run.spread_subdirs(tmp_path)
    fd = os.open(tmp_path, os.O_RDONLY)
    flags = array.array("i", [0])
    try:
        fcntl.ioctl(fd, run.FS_IOC_GETFLAGS, flags, True)
    except OSError:
        pass
    finally:
        os.close(fd)
    assert spread == bool(flags[0] & run.FS_TOPDIR_FL)
