"""Acceptance gate: one test per published criterion.

Semantics are checked exactly on fixtures, properties, and seeded
end-to-end runs; dataset-scale magnitudes are out of scope.
"""

import itertools
import json
import random
import string
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from failpass import analyzer
from failpass.connector import FixtureConnector
from failpass.miner import assign_commits, mine, mine_history
from failpass.model import (
    Availability,
    Build,
    CommitCoordinates,
    Event,
    Job,
    Outcome,
    Project,
    RecoverySource,
    Stage,
    Status,
    outcome_class,
)
from failpass.pairfilter import filter_pairs, load_catalog
from failpass.reproducer import (
    ReproductionContext,
    classify_reproduced,
    stability_from_attempts,
    stability_protocol,
)
from failpass.runtime import LocalRuntime
from failpass.store import (
    DEFAULT_BINS,
    compute_diff_metrics,
    error_frequency_report,
)
from conftest import fake_sha, log_header, make_repo, make_zip
from test_filter import mk_pair
from test_store import git_numstat_oracle, mk_record, write_tree

PROJECT = Project(slug="t/p", primary_language="Java")
STATUSES = (Status.PASSED, Status.FAILED, Status.ERRORED, Status.CANCELED)
EPOCH = datetime(2017, 1, 1, tzinfo=timezone.utc)
AVAILABLE = CommitCoordinates(trigger_sha="a" * 40, availability=Availability.AVAILABLE,
                              recovery_source=RecoverySource.GIT_HISTORY)


# --- criterion 1: miner-oracle equivalence ---------------------------------


def _make_history(statuses, group_pattern, config_pattern):
    """Deterministic history: <=2 groups, <=3 configs per build."""
    builds = []
    for i, status in enumerate(statuses):
        branch = ("master", "dev")[group_pattern[i % len(group_pattern)]]
        n_jobs = config_pattern[i % len(config_pattern)]
        jobs = []
        for j in range(n_jobs):
            if status is Status.PASSED:
                js = Status.PASSED
            elif status is Status.CANCELED:
                js = Status.CANCELED
            else:
                js = status if j % 2 == 0 else Status.PASSED
            jobs.append(Job(job_id=(i + 1) * 10 + j, status=js, config_key=f"cfg{j}"))
        builds.append(Build(
            build_id=i + 1,
            status=status,
            event=Event.PUSH,
            branch=branch,
            pr_number=None,
            committed_at=EPOCH + timedelta(days=i),
            jobs=tuple(jobs),
        ))
    return builds


def _oracle(history):
    """Brute-force enumerator, written against the published semantics only."""
    pairs = []
    group_keys = []
    for b in history:
        if b.group_key not in group_keys:
            group_keys.append(b.group_key)
    for key in group_keys:
        seq = [b for b in history
               if b.group_key == key and outcome_class(b.status) is not Outcome.EXCLUDED]
        seq.sort(key=lambda b: (b.committed_at, b.build_id))
        for first, second in zip(seq, seq[1:]):
            if outcome_class(first.status) is not Outcome.FAIL:
                continue
            if outcome_class(second.status) is not Outcome.PASS:
                continue
            taken = set()
            for jf in sorted(first.jobs, key=lambda j: j.job_id):
                if outcome_class(jf.status) is not Outcome.FAIL:
                    continue
                for jp in sorted(second.jobs, key=lambda j: j.job_id):
                    if (jp.status is Status.PASSED and jp.job_id not in taken
                            and jp.config_key == jf.config_key):
                        taken.add(jp.job_id)
                        pairs.append((first.build_id, second.build_id, jf.job_id, jp.job_id))
                        break
    return sorted(pairs)


def test_criterion_1_miner_oracle_equivalence():
    start = time.monotonic()
    group_patterns = [(0,), (0, 1), (0, 0, 1)]
    config_patterns = [(1,), (2, 1), (3, 1, 2)]
    checked = 0
    for n in range(0, 9):
        # full status cross-product at every length; structural patterns
        # cycle so every (group, config) shape appears at every length
        if n <= 6:
            shapes = list(itertools.product(group_patterns[:2], config_patterns[:2]))
        else:
            shapes = [(group_patterns[n % 3], config_patterns[n % 3])]
        for statuses in itertools.product(STATUSES, repeat=n):
            for gp, cp in shapes:
                history = _make_history(statuses, gp, cp)
                mined = sorted(
                    (p.failed_build_id, p.passed_build_id, p.failed_job.job_id, p.passed_job.job_id)
                    for p in mine_history(PROJECT, history, lambda b: AVAILABLE)
                )
                assert mined == _oracle(history)
                checked += 1
    elapsed = time.monotonic() - start
    assert checked > 100_000
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


# --- criterion 2: AssignCommits decision table -----------------------------


def test_criterion_2_assign_commits_decision_table(tmp_path):
    start = time.monotonic()
    repo = tmp_path / "proj" / "repo"
    in_git = make_repo(repo, [{"a": "1\n"}, {"a": "2\n"}])
    archived = fake_sha(0xAC)
    make_zip(tmp_path / "proj", archived, {"a": "z\n"})
    connector = FixtureConnector(tmp_path)
    archive_has = lambda sha: connector.archive_has("proj", sha)
    absent = fake_sha(0xDEAD)

    # push builds: trigger in git history x trigger in archive
    for t_git, t_arch in itertools.product([True, False], repeat=2):
        trigger = in_git[0] if t_git else (archived if t_arch else absent)
        build = Build(build_id=1, status=Status.FAILED, event=Event.PUSH, branch="master",
                      pr_number=None, committed_at=EPOCH,
                      jobs=(Job(job_id=1, status=Status.FAILED, config_key="c"),),
                      raw_trigger_sha=trigger)
        coords = assign_commits(build, repo, archive_has)
        expect_available = t_git or t_arch
        assert (coords.availability is Availability.AVAILABLE) == expect_available
        if expect_available:
            assert coords.recovery_source is (
                RecoverySource.GIT_HISTORY if t_git else RecoverySource.ARCHIVE
            )

    # PR builds: trigger in git x base in git x phantom merge in archive
    for t_git, b_git, m_arch in itertools.product([True, False], repeat=3):
        trigger = in_git[0] if t_git else absent
        base = in_git[1] if b_git else fake_sha(0xBEEF)
        merge = archived if m_arch else fake_sha(0xF00D)
        build = Build(build_id=2, status=Status.FAILED, event=Event.PULL_REQUEST, branch="tmp",
                      pr_number=5, committed_at=EPOCH,
                      jobs=(Job(job_id=2, status=Status.FAILED, config_key="c"),),
                      raw_trigger_sha=merge,
                      merge_message=f"Merge {trigger} into {base}")
        coords = assign_commits(build, repo, archive_has)
        expect_available = (t_git and b_git) or m_arch
        assert (coords.availability is Availability.AVAILABLE) == expect_available
        if t_git and b_git:
            assert coords.recovery_source is RecoverySource.GIT_HISTORY
        elif m_arch:
            assert coords.recovery_source is RecoverySource.ARCHIVE
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


# --- criterion 3: filter funnel --------------------------------------------


def test_criterion_3_filter_funnel(catalog_path):
    catalog = load_catalog(catalog_path)
    # designed 12-pair corpus: 12 -> 10 available -> 9 with log
    # -> 7 docker era -> 5 with image
    pairs = []
    logs = {}

    def add(n, *, available=True, log=None):
        pair = mk_pair(n, f_avail=available,
                       language="Java" if n <= 10 else "Ruby")
        pairs.append(pair)
        if log is not None:
            logs[pair.failed_job.job_id] = log

    add(1, available=False)
    add(2, available=False)
    add(3)  # available but no original log
    add(4, log="no worker header here\n")  # log present, not docker era
    add(5, log=log_header(ts="2014-01-01T00:00:00Z"))  # pre-cutoff
    add(6, log=log_header())  # docker era, java image found
    add(7, log=log_header())
    add(8, log=log_header())
    add(9, log=log_header())
    add(10, log=log_header())
    add(11, log=log_header())  # ruby: no catalog image
    add(12, log=log_header())  # ruby: no catalog image

    verdicts, counts = filter_pairs(pairs, lambda j: logs.get(j), catalog)
    got = {c.stage.value: c.count for c in counts}
    assert got == {
        "all_pairs": 12,
        "available": 10,
        "log_present": 9,
        "docker_era": 7,
        "with_image": 5,
    }
    # stage monotonicity: available >= docker >= with-image
    ordered = [got[s.value] for s in (Stage.ALL_PAIRS, Stage.AVAILABLE, Stage.LOG_PRESENT,
                                      Stage.DOCKER_ERA, Stage.WITH_IMAGE)]
    assert ordered == sorted(ordered, reverse=True)
    assert sum(1 for v in verdicts if v.image_ref is not None) == 5


# --- criterion 4: analyzer golden corpus + fuzz ----------------------------


def read_log(path: Path) -> str:
    """A log as the CLI and the connector read it: bytes decoded, every ``\\r`` kept."""
    return path.read_bytes().decode("utf-8", errors="replace")


def test_criterion_4_analyzer_corpus_and_fuzz():
    start = time.monotonic()
    log_dir = Path(__file__).parent / "fixtures" / "logs"
    expected_dir = Path(__file__).parent / "fixtures" / "expected"
    names = sorted(p.stem for p in log_dir.glob("*.txt"))
    assert len(names) >= 20

    def language(name):
        py = ("pytest", "unittest", "nose", "python", "truncated")
        return "python" if any(k in name for k in py) else "java"

    for name in names:
        log = read_log(log_dir / f"{name}.txt")
        expected = analyzer.LogAttributes.from_dict(
            json.loads((expected_dir / f"{name}.json").read_text()))
        assert analyzer.analyze(log, language(name)) == expected, name

    # 10,000-case fuzz: mutated corpus logs and raw noise, zero aborts
    rng = random.Random(2026)
    corpus = [(name, read_log(log_dir / f"{name}.txt")) for name in names]
    alphabet = string.printable + "\x1b\r"
    for case in range(10_000):
        lang = rng.choice(["java", "python"])
        if case % 2 == 0:
            name, text = corpus[case % len(corpus)]
            chars = list(text)
            for _ in range(rng.randrange(1, 30)):
                pos = rng.randrange(len(chars) + 1)
                if pos < len(chars) and rng.random() < 0.5:
                    del chars[pos]
                else:
                    chars.insert(pos, rng.choice(alphabet))
            text = "".join(chars)
        else:
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 400)))
        attrs = analyzer.analyze(text, lang)
        assert attrs.status in ("passed", "failed", "errored")
        assert attrs.num_tests_failed <= attrs.num_tests_run
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


# --- criterion 5: stability protocol truth table ---------------------------


def test_criterion_5_stability_truth_table():
    for vector in itertools.product([True, False], repeat=5):
        attempts = [(m, m) for m in vector]
        got = stability_from_attempts(attempts)
        if all(vector):
            assert got == "reproducible"
        elif not any(vector):
            assert got == "unreproducible"
        else:
            assert got == "flaky"


# --- criterion 6: category classification ----------------------------------


def test_criterion_6_category_classification():
    cases = [
        (analyzer.LogAttributes(status="errored"), "error_pass"),
        (analyzer.LogAttributes(status="errored", num_tests_run=4, num_tests_failed=2), "error_pass"),
        (analyzer.LogAttributes(status="failed", num_tests_run=9, num_tests_failed=1,
                                failed_test_names=("T.a",)), "with_failed_test"),
        (analyzer.LogAttributes(status="failed", num_tests_run=9, num_tests_failed=3), "with_failed_test"),
        (analyzer.LogAttributes(status="failed", num_tests_run=9), "with_failed_job"),
        (analyzer.LogAttributes(status="failed"), "with_failed_job"),
    ]
    for attrs, expected in cases:
        assert classify_reproduced(attrs) == expected
    with pytest.raises(ValueError):
        classify_reproduced(analyzer.LogAttributes(status="passed", num_tests_run=5))


# --- criterion 7: end-to-end seeded reproduction ---------------------------


def _run_pipeline(root, slug, language, catalog_path, scratch=None, n=5):
    connector = FixtureConnector(root)
    pairs = mine(slug, connector, language)
    assert len(pairs) == 1
    verdicts, _ = filter_pairs(pairs, connector.fetch_job_log, load_catalog(catalog_path))
    (verdict,) = verdicts
    assert verdict.image_ref is not None
    raw_configs = {
        j["job_id"]: j["config"]
        for r in connector.fetch_raw_records(slug)
        for j in r.get("jobs", [])
    }
    ctx = ReproductionContext(
        connector=connector,
        runtime=LocalRuntime(),
        language=language,
        raw_configs=raw_configs,
        scratch_dir=scratch,
        timeout_s=120.0,
    )
    return stability_protocol(pairs[0], verdict, ctx, n=n)


def test_criterion_7_end_to_end_seeded_reproduction(e2e_root, catalog_path, tmp_path):
    start = time.monotonic()
    java = _run_pipeline(e2e_root, "acme/javaproj", "java", catalog_path)
    assert java.stability == "reproducible"
    assert java.category == "with_failed_test"

    python = _run_pipeline(e2e_root, "acme/pyproj", "python", catalog_path)
    assert python.stability == "reproducible"
    assert python.category == "with_failed_test"

    scratch = tmp_path / "scratch"
    scratch.mkdir()
    flaky = _run_pipeline(e2e_root, "acme/flaky", "python", catalog_path, scratch=scratch)
    assert flaky.stability == "flaky"
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"took {elapsed:.1f}s"


# --- criterion 8: diff metrics vs scripted oracle --------------------------


def test_criterion_8_diff_metrics_oracle(tmp_path):
    words = ["import os", "x = 1", "return x", "", "def f():", "  pass", "print(x)"]
    rng = random.Random(77)
    for case in range(100):
        case_dir = tmp_path / f"case{case}"
        a_files, b_files = {}, {}
        for i in range(rng.randrange(1, 6)):
            name = f"src/m{i}.py" if i % 2 else f"f{i}.txt"
            base = [rng.choice(words) for _ in range(rng.randrange(0, 20))]
            a_files[name] = "\n".join(base) + "\n"
            mutated = list(base)
            for _ in range(rng.randrange(0, 6)):
                op = rng.random()
                if op < 0.35 and mutated:
                    del mutated[rng.randrange(len(mutated))]
                elif op < 0.7:
                    mutated.insert(rng.randrange(len(mutated) + 1), rng.choice(words))
                elif mutated:
                    # a modified line counts as two changes (one del + one add)
                    mutated[rng.randrange(len(mutated))] = rng.choice(words) + "  # edited"
            b_files[name] = "\n".join(mutated) + "\n"
        if rng.random() < 0.25:
            b_files["added.txt"] = "new file\n"
        if rng.random() < 0.25 and len(a_files) > 1:
            del b_files[sorted(b_files)[0]]
        a = write_tree(case_dir / "a", a_files)
        b = write_tree(case_dir / "b", b_files)
        assert compute_diff_metrics(a, b) == git_numstat_oracle(a, b, case_dir), f"case {case}"
        # identity: metrics(T, T) = (0, 0) always
        assert compute_diff_metrics(a, a) == (0, 0)
        assert compute_diff_metrics(b, b) == (0, 0)

    # the canonical single-modified-line rule, spelled out
    a = write_tree(tmp_path / "mod-a", {"x": "keep\nold\nkeep\n"})
    b = write_tree(tmp_path / "mod-b", {"x": "keep\nnew\nkeep\n"})
    assert compute_diff_metrics(a, b) == (2, 1)


# --- criterion 9: stats bin structure + error report -----------------------


def test_criterion_9_default_bins_and_error_ranking():
    assert DEFAULT_BINS["changes"] == [
        (1, 5), (6, 20), (21, 100), (101, 500), (501, 2000), (2001, 5000), (5001, 37363)]
    assert DEFAULT_BINS["files_changed"] == [
        (1, 5), (6, 10), (11, 25), (26, 50), (51, 100), (101, 200), (201, 500), (501, 2391)]
    assert DEFAULT_BINS["failing_tests"] == [
        (1, 1), (2, 2), (3, 5), (6, 15), (16, 50), (51, 100), (101, 400), (401, 1826)]

    records = [
        mk_record(tag="a-b-1", error_tags=(("NullPointerException", 4), ("IOException", 1))),
        mk_record(tag="a-b-2", error_tags=(("NullPointerException", 1),)),
        mk_record(tag="a-b-3", error_tags=(("IOException", 2), ("AssertionError", 1))),
        mk_record(tag="a-b-4", error_tags=(("AssertionError", 9),)),
        mk_record(tag="a-b-5", language="Python", error_tags=(("ValueError", 3),)),
    ]
    # hand-computed: NPE in 2 artifacts, IOException in 2, AssertionError in 2
    # (per-artifact presence, ties broken by name), ValueError is python-only
    assert error_frequency_report(records, "java") == [
        ("AssertionError", 2), ("IOException", 2), ("NullPointerException", 2)]
    assert error_frequency_report(records, "python") == [("ValueError", 1)]
    assert error_frequency_report(records, "java", top_n=1) == [("AssertionError", 2)]
