import hashlib
import io
import json
import os
import re
import stat
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from failpass import cli
from failpass.cli import _write_jsonl, main
from failpass.connector import FixtureConnector
from failpass.runtime import LocalRuntime, RuntimeUnavailable
from failpass.store import ArtifactStore
from conftest import (
    PYTEST_FAIL_BODY,
    PYTEST_PASS_BODY,
    build_record,
    git_clones,
    job_record,
    make_repo,
    record_git_commands,
    wrap_original_log,
    write_project,
)
from test_reproducer import _edit_checking_script, stub_docker
from test_store import mk_record

LOG_DIR = Path(__file__).parent / "fixtures" / "logs"


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


@pytest.fixture()
def seeded_store(tmp_path):
    path = tmp_path / "store.jsonl"
    store = ArtifactStore(path)
    store.persist(mk_record(tag="acme-widgets-11", language="Java", changes=10))
    store.persist(mk_record(tag="acme-widgets-21", language="Python", changes=600,
                            category="error_pass", error_tags=(("ValueError", 2),)))
    return path


def _append_edited_line(store: Path, **fields) -> None:
    """Append a copy of the store's first line with a new image tag and ``fields`` set as given."""
    record = json.loads(store.read_text().splitlines()[0])
    record.update(image_tag="acme-widgets-31", **fields)
    with store.open("a") as fh:
        fh.write(json.dumps(record) + "\n")


class TestMineFilterPipeline:
    def test_mine_writes_pairs(self, widgets_root, tmp_path, capsys):
        out = tmp_path / "pairs.jsonl"
        rc = main(["mine", "acme/widgets", "--fixture", str(widgets_root),
                   "--language", "java", "--out", str(out)])
        assert rc == 0
        pairs = read_jsonl(out)
        assert len(pairs) == 2
        assert "mined 2 job pairs" in capsys.readouterr().err

    def test_filter_reports_funnel(self, widgets_root, catalog_path, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        verdicts = tmp_path / "verdicts.jsonl"
        main(["mine", "acme/widgets", "--fixture", str(widgets_root),
              "--language", "java", "--out", str(pairs)])
        rc = main(["filter", "--pairs", str(pairs), "--catalog", str(catalog_path),
                   "--fixture", str(widgets_root), "--out", str(verdicts)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "all_pairs: 2" in err
        assert "with_image:" in err
        for v in read_jsonl(verdicts):
            assert v["stage_reached"] in ("all_pairs", "available", "log_present",
                                          "docker_era", "with_image")

    def _mined_pairs(self, widgets_root, tmp_path) -> Path:
        pairs = tmp_path / "pairs.jsonl"
        main(["mine", "acme/widgets", "--fixture", str(widgets_root), "--language", "java", "--out", str(pairs)])
        return pairs

    def test_pair_line_without_group_key_names_file_and_line(self, widgets_root, catalog_path, tmp_path):
        pairs = self._mined_pairs(widgets_root, tmp_path)
        first, second = read_jsonl(pairs)
        del second["group_key"]
        pairs.write_text(json.dumps(first) + "\n\n" + json.dumps(second) + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["filter", "--pairs", str(pairs), "--catalog", str(catalog_path),
                  "--fixture", str(widgets_root), "--out", str(tmp_path / "verdicts.jsonl")])
        message = str(exc.value.code)
        assert message.startswith(f"failpass: {pairs}, line 3: TypeError")
        assert "group_key" in message
        assert not (tmp_path / "verdicts.jsonl").exists()

    def test_non_json_line_names_file_and_line(self, widgets_root, catalog_path, tmp_path):
        pairs = self._mined_pairs(widgets_root, tmp_path)
        pairs.write_text(pairs.read_text() + '{"project": \n')
        with pytest.raises(SystemExit, match=rf"^failpass: {re.escape(str(pairs))}, line 3: JSONDecodeError"):
            main(["filter", "--pairs", str(pairs), "--catalog", str(catalog_path),
                  "--fixture", str(widgets_root), "--out", str(tmp_path / "verdicts.jsonl")])

    def test_undecodable_line_names_file_and_line(self, widgets_root, catalog_path, tmp_path):
        pairs = self._mined_pairs(widgets_root, tmp_path)
        pairs.write_bytes(pairs.read_bytes() + b'{"project": "\xff"}\n')
        with pytest.raises(SystemExit, match=rf"^failpass: {re.escape(str(pairs))}, line 3: UnicodeDecodeError"):
            main(["filter", "--pairs", str(pairs), "--catalog", str(catalog_path),
                  "--fixture", str(widgets_root), "--out", str(tmp_path / "verdicts.jsonl")])

    def test_bad_verdict_line_names_file_and_line(self, widgets_root, tmp_path):
        verdicts = tmp_path / "verdicts.jsonl"
        verdicts.write_text('{"stage_reached": "with_image"}\n')
        with pytest.raises(SystemExit, match=rf"^failpass: {re.escape(str(verdicts))}, line 1: TypeError"):
            main(["reproduce", "--verdicts", str(verdicts), "--fixture", str(widgets_root),
                  "--out", str(tmp_path / "records.jsonl")])

    def test_full_pipeline_reproduces(self, e2e_root, catalog_path, tmp_path, capsys, monkeypatch):
        # the catalog's image is in no registry, so only the local backend can run the jobs
        monkeypatch.setattr("failpass.cli.default_runtime", LocalRuntime)
        pairs = tmp_path / "pairs.jsonl"
        verdicts = tmp_path / "verdicts.jsonl"
        records = tmp_path / "records.jsonl"
        outdir = tmp_path / "output"
        main(["mine", "acme/pyproj", "--fixture", str(e2e_root),
              "--language", "python", "--out", str(pairs)])
        main(["filter", "--pairs", str(pairs), "--catalog", str(catalog_path),
              "--fixture", str(e2e_root), "--out", str(verdicts)])
        rc = main(["reproduce", "--verdicts", str(verdicts), "--fixture", str(e2e_root),
                   "--repeats", "2", "--timeout-s", "60", "--out", str(records),
                   "--output-dir", str(outdir)])
        assert rc == 0
        (record,) = read_jsonl(records)
        assert record["stability"] == "reproducible"
        assert record["category"] == "with_failed_test"
        assert record["attempts"] == [[True, True], [True, True]]
        # reproduced logs are written per attempt and side
        fail_log = outdir / "acme-pyproj-2001" / "attempt-0" / "fail.log"
        assert fail_log.exists()
        assert "1 failed, 1 passed" in fail_log.read_text()

    def test_engine_error_writes_no_record(self, e2e_root, catalog_path, tmp_path, monkeypatch):
        pairs = tmp_path / "pairs.jsonl"
        verdicts = tmp_path / "verdicts.jsonl"
        records = tmp_path / "records.jsonl"
        main(["mine", "acme/pyproj", "--fixture", str(e2e_root),
              "--language", "python", "--out", str(pairs)])
        main(["filter", "--pairs", str(pairs), "--catalog", str(catalog_path),
              "--fixture", str(e2e_root), "--out", str(verdicts)])
        stub_docker(tmp_path, monkeypatch, "exit 0",
                    run='echo "docker: Error response from daemon: engine stopped" >&2; exit 125')
        with pytest.raises(RuntimeUnavailable, match="engine stopped"):
            main(["reproduce", "--verdicts", str(verdicts), "--fixture", str(e2e_root),
                  "--repeats", "2", "--out", str(records), "--output-dir", str(tmp_path / "output")])
        assert not records.exists()


    def test_reproduce_removes_its_temp_dirs(self, e2e_root, catalog_path, tmp_path, monkeypatch):
        monkeypatch.setattr("failpass.cli.default_runtime", LocalRuntime)
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setenv("TMPDIR", str(tmp))
        monkeypatch.setattr(tempfile, "tempdir", None)
        pairs = tmp_path / "pairs.jsonl"
        verdicts = tmp_path / "verdicts.jsonl"
        records = tmp_path / "records.jsonl"
        main(["mine", "acme/flaky", "--fixture", str(e2e_root),
              "--language", "python", "--out", str(pairs)])
        main(["filter", "--pairs", str(pairs), "--catalog", str(catalog_path),
              "--fixture", str(e2e_root), "--out", str(verdicts)])
        rc = main(["reproduce", "--verdicts", str(verdicts), "--fixture", str(e2e_root),
                   "--repeats", "2", "--timeout-s", "60", "--out", str(records),
                   "--output-dir", str(tmp_path / "output")])
        assert rc == 0
        # the per-pair scratch dir is shared by the attempts, so the flaky pair still shows
        assert [r["stability"] for r in read_jsonl(records)] == ["flaky"]
        assert [p.name for p in tmp.iterdir() if p.name.startswith("failpass-")] == []

    def test_reproduce_reads_raw_configs_once_per_project(self, e2e_root, catalog_path, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr("failpass.cli.default_runtime", LocalRuntime)
        reads = []
        real = FixtureConnector.fetch_raw_records
        monkeypatch.setattr(FixtureConnector, "fetch_raw_records",
                            lambda self, slug: reads.append(slug) or real(self, slug))
        pairs = tmp_path / "pairs.jsonl"
        verdicts = tmp_path / "verdicts.jsonl"
        records = tmp_path / "records.jsonl"
        main(["mine", "acme/pyproj", "--fixture", str(e2e_root),
              "--language", "python", "--out", str(pairs)])
        main(["filter", "--pairs", str(pairs), "--catalog", str(catalog_path),
              "--fixture", str(e2e_root), "--out", str(verdicts)])
        verdicts.write_text(verdicts.read_text() * 2)
        main(["reproduce", "--verdicts", str(verdicts), "--fixture", str(e2e_root),
              "--repeats", "1", "--timeout-s", "60", "--out", str(records),
              "--output-dir", str(tmp_path / "output")])
        assert [r["stability"] for r in read_jsonl(records)] == ["reproducible"] * 2
        assert reads == ["acme/pyproj"]


def _git_using_script(body: str, exit_code: int) -> str:
    """A job that commits, checks out a new branch and collects garbage before it prints its log."""
    return (
        "#!/bin/sh\n"
        "git -c user.email=job@ci -c user.name=job commit -q --allow-empty -m 'job commit' || exit 3\n"
        "git checkout -q -b job-branch || exit 3\n"
        "git gc -q --prune=now || exit 3\n"
        f"cat <<'EOG'\n{body}EOG\nexit {exit_code}\n"
    )


def tree_snapshot(root: Path) -> dict:
    """Each entry under root: its mode, its mtime and, for a file, the hash of its bytes."""
    snapshot = {}
    for dirpath, dirnames, filenames in os.walk(root):
        for name in dirnames + filenames:
            path = Path(dirpath, name)
            st = path.lstat()
            digest = hashlib.sha256(path.read_bytes()).hexdigest() if stat.S_ISREG(st.st_mode) else None
            snapshot[str(path.relative_to(root))] = (st.st_mode, st.st_mtime_ns, digest)
    return snapshot


def test_reproduce_never_writes_to_the_fixture_repo(catalog_path, tmp_path, monkeypatch):
    monkeypatch.setattr("failpass.cli.default_runtime", LocalRuntime)
    root = tmp_path / "git-world"
    slug = "acme/gitjobs"
    repo = root / slug / "repo"
    shas = make_repo(repo, [{"run_tests.sh": _git_using_script(PYTEST_FAIL_BODY, 1)},
                            {"run_tests.sh": _git_using_script(PYTEST_PASS_BODY, 0)}])
    cfg = {"language": "python", "script": ["./run_tests.sh"]}
    write_project(root, slug, [
        build_record(601, "failed", "push", "master", "2017-02-01T00:00:00Z",
                     [job_record(6001, "failed", cfg)], trigger_sha=shas[0]),
        build_record(602, "passed", "push", "master", "2017-02-02T00:00:00Z",
                     [job_record(6002, "passed", cfg)], trigger_sha=shas[1]),
    ], {6001: wrap_original_log(PYTEST_FAIL_BODY, 1), 6002: wrap_original_log(PYTEST_PASS_BODY, 0)})
    pairs, verdicts, records = (tmp_path / f"{name}.jsonl" for name in ("pairs", "verdicts", "records"))
    main(["mine", slug, "--fixture", str(root), "--language", "python", "--out", str(pairs)])
    main(["filter", "--pairs", str(pairs), "--catalog", str(catalog_path), "--fixture", str(root),
          "--out", str(verdicts)])
    before = tree_snapshot(repo)
    rc = main(["reproduce", "--verdicts", str(verdicts), "--fixture", str(root), "--repeats", "2",
               "--timeout-s", "60", "--out", str(records), "--output-dir", str(tmp_path / "output")])
    assert rc == 0
    # every git command of every job succeeded, in trees that borrow the fixture repo's objects
    assert [r["attempts"] for r in read_jsonl(records)] == [[[True, True], [True, True]]]
    assert tree_snapshot(repo) == before


def test_reproduce_clones_each_repository_once(e2e_root, catalog_path, tmp_path, monkeypatch):
    monkeypatch.setattr("failpass.cli.default_runtime", LocalRuntime)
    slugs = ("acme/javaproj", "acme/pyproj", "acme/flaky")
    verdicts, records = tmp_path / "verdicts.jsonl", tmp_path / "records.jsonl"
    for k, slug in enumerate(slugs):
        pairs, part = tmp_path / f"pairs-{k}.jsonl", tmp_path / f"verdicts-{k}.jsonl"
        main(["mine", slug, "--fixture", str(e2e_root), "--out", str(pairs)])
        main(["filter", "--pairs", str(pairs), "--catalog", str(catalog_path), "--fixture", str(e2e_root),
              "--out", str(part)])
        with verdicts.open("a") as fh:
            fh.write(part.read_text())
    commands = record_git_commands(monkeypatch)
    rc = main(["reproduce", "--verdicts", str(verdicts), "--fixture", str(e2e_root), "--repeats", "3",
               "--timeout-s", "60", "--out", str(records), "--output-dir", str(tmp_path / "output")])
    assert rc == 0
    assert [r["stability"] for r in read_jsonl(records)] == ["reproducible"] * 2 + ["flaky"]
    # six trees, one per pair side, from one clone per repository
    assert sorted(argv[-2] for argv in git_clones(commands)) == sorted(str(e2e_root / s / "repo") for s in slugs)
    assert len([argv for argv in commands if argv[3:4] == ["checkout"]]) == 6


def test_once_a_job_edits_its_tree_later_pairs_build_each_side_once(catalog_path, tmp_path, monkeypatch):
    """The first pair's sides are built again once their jobs edit their trees; the next pair's are not."""
    monkeypatch.setattr("failpass.cli.default_runtime", LocalRuntime)
    root, verdicts, records = tmp_path / "edit-world", tmp_path / "verdicts.jsonl", tmp_path / "records.jsonl"
    cfg = {"language": "python", "script": ["./run_tests.sh"]}
    for k, slug in enumerate(("acme/editor-a", "acme/editor-b")):
        shas = make_repo(root / slug / "repo", [
            {"run_tests.sh": _edit_checking_script(PYTEST_FAIL_BODY, 1), "state.txt": "clean\n"},
            {"run_tests.sh": _edit_checking_script(PYTEST_PASS_BODY, 0)},
        ])
        jobs = 4001 + 10 * k, 4002 + 10 * k
        write_project(root, slug, [
            build_record(jobs[0], "failed", "push", "master", "2017-02-01T00:00:00Z",
                         [job_record(jobs[0], "failed", cfg)], trigger_sha=shas[0]),
            build_record(jobs[1], "passed", "push", "master", "2017-02-02T00:00:00Z",
                         [job_record(jobs[1], "passed", cfg)], trigger_sha=shas[1]),
        ], {jobs[0]: wrap_original_log(PYTEST_FAIL_BODY, 1), jobs[1]: wrap_original_log(PYTEST_PASS_BODY, 0)})
        pairs, part = tmp_path / f"pairs-{k}.jsonl", tmp_path / f"verdicts-{k}.jsonl"
        main(["mine", slug, "--fixture", str(root), "--out", str(pairs)])
        main(["filter", "--pairs", str(pairs), "--catalog", str(catalog_path), "--fixture", str(root),
              "--out", str(part)])
        with verdicts.open("a") as fh:
            fh.write(part.read_text())
    commands = record_git_commands(monkeypatch)
    rc = main(["reproduce", "--verdicts", str(verdicts), "--fixture", str(root), "--repeats", "3",
               "--timeout-s", "60", "--out", str(records), "--output-dir", str(tmp_path / "output")])
    assert rc == 0
    assert [r["attempts"] for r in read_jsonl(records)] == [[[True, True]] * 3] * 2
    # first pair: a build and a reserve per side; second pair: its builds are the reserves
    assert len([argv for argv in commands if argv[3:4] == ["checkout"]]) == 4 + 2


class TestWriteJsonl:
    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        out = tmp_path / "records.jsonl"
        _write_jsonl(out, [{"pair_id": "a"}])
        with pytest.raises(TypeError):
            _write_jsonl(out, [{"pair_id": "b"}, {"pair_id": object()}])
        assert read_jsonl(out) == [{"pair_id": "a"}]
        assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]

    def test_replaces_the_previous_file(self, tmp_path):
        out = tmp_path / "records.jsonl"
        _write_jsonl(out, [{"pair_id": "a"}, {"pair_id": "b"}])
        _write_jsonl(str(out), [{"pair_id": "c"}])
        assert read_jsonl(out) == [{"pair_id": "c"}]
        assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]


class TestAnalyze:
    def test_analyze_pretty_json(self, capsys):
        rc = main(["analyze", str(LOG_DIR / "maven_junit_fail.txt"), "--language", "java"])
        assert rc == 0
        attrs = json.loads(capsys.readouterr().out)
        assert attrs["build_system"] == "Maven"
        assert attrs["num_tests_failed"] == 2

    def test_analyze_compact(self, capsys):
        main(["analyze", str(LOG_DIR / "pytest_fail.txt"), "--language", "python", "--json"])
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert json.loads(out)["test_framework"] == "pytest"

    def test_bad_language_rejected(self):
        with pytest.raises(SystemExit):
            main(["analyze", str(LOG_DIR / "pytest_fail.txt"), "--language", "ruby"])


class TestStoreCommands:
    def test_stats_histogram(self, seeded_store, capsys):
        rc = main(["stats", "--store", str(seeded_store), "--metric", "changes"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["metric"] == "changes"
        assert out["bins"]["6-20"] == 1
        assert out["bins"]["501-2000"] == 1

    @pytest.mark.parametrize("metric, field, value", [("changes", "num_changes", None),
                                                       ("files_changed", "num_files_changed", "12")])
    def test_stats_counts_a_non_number_as_overflow(self, seeded_store, capsys, metric, field, value):
        main(["stats", "--store", str(seeded_store), "--metric", metric])
        before = json.loads(capsys.readouterr().out)
        _append_edited_line(seeded_store, **{field: value})
        assert main(["stats", "--store", str(seeded_store), "--metric", metric]) == 0
        after = json.loads(capsys.readouterr().out)
        assert after["bins"] == before["bins"]
        assert after["overflow"] == before.get("overflow", 0) + 1

    def test_stats_error_report(self, seeded_store, capsys):
        main(["stats", "--store", str(seeded_store), "--errors", "python"])
        assert "ValueError\t1" in capsys.readouterr().out

    def test_query(self, seeded_store, capsys):
        rc = main(["query", "language=Java", "--store", str(seeded_store)])
        assert rc == 0
        rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [r["image_tag"] for r in rows] == ["acme-widgets-11"]

    def test_store_from_environment(self, seeded_store, capsys, monkeypatch):
        monkeypatch.setenv("FAILPASS_STORE", str(seeded_store))
        main(["query", "category=error_pass"])
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 1

    def test_missing_store_is_an_error(self, monkeypatch):
        monkeypatch.delenv("FAILPASS_STORE", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["query", "language=Java"])
        assert exc.value.code == "failpass: no store configured: pass --store or set FAILPASS_STORE"

    def test_artifact_fetch_and_cleanup(self, seeded_store, capsys, monkeypatch):
        # the store's image tag is in no registry, so only the local backend can fetch it
        monkeypatch.setattr("failpass.cli.default_runtime", LocalRuntime)
        rc = main(["artifact", "fetch", "acme-widgets-11", "--store", str(seeded_store)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["image_tag"] == "acme-widgets-11"
        assert main(["artifact", "cleanup", "acme-widgets-11", "--store", str(seeded_store)]) == 0

    def test_artifact_unknown_tag(self, seeded_store):
        with pytest.raises(SystemExit) as exc:
            main(["artifact", "fetch", "nope-1", "--store", str(seeded_store)])
        assert exc.value.code == "failpass: artifact not found: nope-1"


@pytest.fixture()
def pyproj_verdicts(e2e_root, catalog_path, tmp_path) -> Path:
    """The verdicts of acme/pyproj, whose one pair reaches an image."""
    pairs, verdicts = tmp_path / "pairs.jsonl", tmp_path / "verdicts.jsonl"
    main(["mine", "acme/pyproj", "--fixture", str(e2e_root), "--language", "python", "--out", str(pairs)])
    main(["filter", "--pairs", str(pairs), "--catalog", str(catalog_path), "--fixture", str(e2e_root),
          "--out", str(verdicts)])
    return verdicts


def fails_in_one_line(argv: list[str], out: Path) -> str:
    """The message of ``main(argv + --out out)``, which must exit 1 with one ``failpass:`` line and write no ``out``."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    message = exc.value.code  # a string code is printed to stderr, with exit status 1
    assert isinstance(message, str) and message.startswith("failpass: ") and "\n" not in message
    assert not out.exists()
    return message


def _without_config(records: list[dict]) -> list[dict]:
    job = {k: v for k, v in records[0]["jobs"][0].items() if k != "config"}
    return [{**records[0], "jobs": [job]}, *records[1:]]


class TestUserInputErrors:
    """Malformed user input ends in one line: a query, a missing fixture or project, a builds file, a catalog,
    an input file, a job log in two projects."""

    def test_malformed_query_names_the_position(self, seeded_store):
        with pytest.raises(SystemExit) as exc:
            main(["query", "language=Java ???", "--store", str(seeded_store)])
        assert exc.value.code == "failpass: malformed filter term at position 14"

    def test_missing_fixture(self, monkeypatch):
        monkeypatch.delenv("FAILPASS_FIXTURE_DIR", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["mine", "acme/widgets"])
        assert exc.value.code == "failpass: no backend configured: pass --fixture or set FAILPASS_FIXTURE_DIR"

    def test_unknown_project_and_unreadable_catalog(self, widgets_root, tmp_path):
        with pytest.raises(SystemExit, match="^failpass: project not found: acme/absent$"):
            main(["mine", "acme/absent", "--fixture", str(widgets_root)])
        pairs = tmp_path / "pairs.jsonl"
        pairs.touch()
        with pytest.raises(SystemExit, match="^failpass: catalog unreadable: "):
            main(["filter", "--pairs", str(pairs), "--catalog", str(tmp_path / "absent.json"),
                  "--fixture", str(widgets_root)])

    @pytest.mark.parametrize("edit, error", [
        (lambda r: r.update(status="succeeded"), "ValueError: 'succeeded' is not a valid Status"),
        (lambda r: r.pop("committed_at"), "KeyError: 'committed_at'"),
        (lambda r: r.update(trigger_sha=r["trigger_sha"][:7]), "ValueError: trigger_sha is not a 40-hex sha: "),
        (lambda r: r["jobs"][0].update(config=["language", "java"]),
         "ConfigError: unparseable configuration: expected a mapping"),
    ], ids=["unknown-status", "no-committed-at", "short-trigger-sha", "config-not-a-mapping"])
    def test_unreadable_build_record_names_file_and_record(self, widgets_root, tmp_path, edit, error):
        records = json.loads((widgets_root / "acme" / "widgets" / "builds.json").read_text())
        edit(records[2])
        builds = tmp_path / "acme" / "widgets" / "builds.json"
        builds.parent.mkdir(parents=True)
        builds.write_text(json.dumps(records))
        out = tmp_path / "pairs.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["mine", "acme/widgets", "--fixture", str(tmp_path), "--out", str(out)])
        assert exc.value.code.startswith(f"failpass: {builds}, record 3: {error}")
        assert "\n" not in exc.value.code
        assert not out.exists()

    def test_builds_file_that_is_not_json_names_the_file(self, tmp_path):
        builds = tmp_path / "acme" / "widgets" / "builds.json"
        builds.parent.mkdir(parents=True)
        builds.write_text('[{"build_id": 1,\n')
        with pytest.raises(SystemExit) as exc:
            main(["mine", "acme/widgets", "--fixture", str(tmp_path), "--out", str(tmp_path / "pairs.jsonl")])
        assert exc.value.code.startswith(f"failpass: {builds}: JSONDecodeError: ")
        assert "\n" not in exc.value.code

    @pytest.mark.parametrize("command, text, error", [
        ("mine", lambda records: json.dumps({"builds": records}), ": not a JSON array of build records"),
        ("reproduce", lambda records: json.dumps({"builds": records}), ": not a JSON array of build records"),
        ("reproduce", lambda records: json.dumps(_without_config(records)), ", record 1: KeyError: 'config'"),
        ("reproduce", lambda records: json.dumps(records)[:-1], ": JSONDecodeError: "),
    ], ids=["mine-top-level-object", "reproduce-top-level-object", "reproduce-job-without-config",
            "reproduce-not-json"])
    def test_unreadable_builds_file(self, e2e_root, pyproj_verdicts, tmp_path, command, text, error):
        fixture = tmp_path / "fixture"
        builds = write_project(fixture, "acme/pyproj", []) / "builds.json"
        builds.write_text(text(json.loads((e2e_root / "acme" / "pyproj" / "builds.json").read_text())))
        argv = {"mine": ["mine", "acme/pyproj"],
                "reproduce": ["reproduce", "--verdicts", str(pyproj_verdicts), "--output-dir", str(tmp_path / "logs")]}
        message = fails_in_one_line([*argv[command], "--fixture", str(fixture)], tmp_path / "out.jsonl")
        assert message.startswith(f"failpass: {builds}{error}")
        assert not (tmp_path / "logs").exists()

    ENTRY = {"language": "Java", "registry": "quay.io", "name": "ci-jvm", "tag": "2015-01",
             "built_at": "2015-01-01T00:00:00Z", "instance_pattern": r"worker-[A-Za-z0-9._-]+"}

    @pytest.mark.parametrize("catalog, error", [
        ([{"language": "java"}], ", entry 1: KeyError: 'built_at'"),
        ([ENTRY, {k: v for k, v in ENTRY.items() if k != "registry"}], ", entry 2: KeyError: 'registry'"),
        ([{**ENTRY, "instance_pattern": "("}], ", entry 1: error: missing )"),
        ([{**ENTRY, "built_at": "last winter"}], ", entry 1: ValueError: "),
        ([{**ENTRY, "language": ["Java"]}], ", entry 1: TypeError: registry, name, tag and language must be strings"),
        ([ENTRY, "ci-jvm"], ", entry 2: TypeError: "),
        ({"x": {"a": 1}}, ": not a JSON array of objects"),
        ({}, ": not a JSON array of objects"),
    ], ids=["no-built-at", "no-registry", "bad-pattern", "bad-timestamp", "language-not-a-string",
            "entry-not-an-object", "top-level-object", "empty-object"])
    def test_unreadable_catalog_names_file_and_entry(self, widgets_root, tmp_path, catalog, error):
        pairs, path = tmp_path / "pairs.jsonl", tmp_path / "images.json"
        pairs.touch()
        path.write_text(json.dumps(catalog))
        message = fails_in_one_line(["filter", "--pairs", str(pairs), "--catalog", str(path),
                                     "--fixture", str(widgets_root)], tmp_path / "verdicts.jsonl")
        assert message.startswith(f"failpass: catalog unreadable: {path}{error}")

    @pytest.mark.parametrize("command", ["filter", "reproduce"])
    @pytest.mark.parametrize("make, reason", [
        (lambda path: None, "No such file or directory"),
        (lambda path: path.mkdir(), "Is a directory"),
    ], ids=["missing", "directory"])
    def test_unreadable_input_file_names_it(self, widgets_root, catalog_path, tmp_path, command, make, reason):
        path = tmp_path / "input.jsonl"
        make(path)
        argv = {"filter": ["filter", "--pairs", str(path), "--catalog", str(catalog_path)],
                "reproduce": ["reproduce", "--verdicts", str(path)]}
        message = fails_in_one_line([*argv[command], "--fixture", str(widgets_root)], tmp_path / "out.jsonl")
        assert message == f"failpass: {path}: {reason}"

    def test_range_term_on_a_string_in_a_number_field_names_store_and_term(self, seeded_store):
        _append_edited_line(seeded_store, num_files_changed="12")
        with pytest.raises(SystemExit) as exc:
            main(["query", "num_files_changed>5", "--store", str(seeded_store)])
        assert exc.value.code == (f"failpass: {seeded_store}: term 'num_files_changed>5': TypeError: "
                                  "'>' not supported between instances of 'str' and 'int'")

    def test_job_log_in_two_projects_names_both(self, e2e_root, catalog_path, tmp_path):
        pairs = tmp_path / "pairs.jsonl"
        main(["mine", "acme/pyproj", "--fixture", str(e2e_root), "--language", "python", "--out", str(pairs)])
        fixture = tmp_path / "fixture"
        logs = [write_project(fixture, slug, [], {2001: "a log"}) / "logs" / "2001.txt"
                for slug in ("acme/pyproj", "other/fork")]
        message = fails_in_one_line(["filter", "--pairs", str(pairs), "--catalog", str(catalog_path),
                                     "--fixture", str(fixture)], tmp_path / "verdicts.jsonl")
        assert message == f"failpass: job 2001 has more than one log: {logs[0]} and {logs[1]}"


class TestParser:
    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv, flag", [
        (["reproduce", "--verdicts", "absent.jsonl", "--repeats", "0"], "--repeats"),
        (["reproduce", "--verdicts", "absent.jsonl", "--timeout-s", "0"], "--timeout-s"),
        (["reproduce", "--verdicts", "absent.jsonl", "--timeout-s", "-2.5"], "--timeout-s"),
        (["stats", "--store", "absent.jsonl", "--errors", "python", "--top", "-3"], "--top"),
    ])
    def test_out_of_range_number_is_a_usage_error(self, argv, flag, monkeypatch, capsys):
        monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda args: pytest.fail("the command ran"))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"error: argument {flag}: must be" in capsys.readouterr().err

    def test_number_that_is_not_a_number_keeps_its_message(self, capsys):
        with pytest.raises(SystemExit):
            main(["stats", "--top", "many"])
        assert "argument --top: invalid int value: 'many'" in capsys.readouterr().err

    def test_lowest_accepted_numbers(self):
        args = cli.build_parser().parse_args(["reproduce", "--verdicts", "v", "--repeats", "1", "--timeout-s", "0.5"])
        assert (args.repeats, args.timeout_s) == (1, 0.5)
        assert cli.build_parser().parse_args(["stats", "--top", "0"]).top == 0


def _run(argv) -> tuple:
    """(exit status, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


class TestParserReuse:
    @pytest.fixture()
    def fresh_parsers(self, monkeypatch):
        """Counts the parsers built from here on, starting with none shared."""
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        monkeypatch.setenv("COLUMNS", "80")
        cli._shared_parser.cache_clear()
        yield built
        cli._shared_parser.cache_clear()

    def test_one_parser_serves_every_call_unchanged(self, widgets_root, seeded_store, fresh_parsers):
        calls = [
            ["mine", "acme/widgets", "--fixture", str(widgets_root), "--language", "java"],
            ["query", "language=Java", "--store", str(seeded_store)],
            ["stats", "--store", str(seeded_store), "--top", "-3"],
            ["stats", "--store", str(seeded_store), "--errors", "python"],
            ["--help"], ["mine", "--help"], ["frobnicate"],
        ]
        fresh = []
        for argv in calls:
            cli._shared_parser.cache_clear()
            fresh.append(_run(argv))
        assert len(fresh_parsers) == len(calls)
        cli._shared_parser.cache_clear()
        fresh_parsers.clear()
        assert [_run(argv) for argv in calls] == fresh
        assert len(fresh_parsers) == 1
        assert [rc for rc, _, _ in fresh] == [0, 0, 2, 0, 0, 0, 2]

    def test_replaced_command_runs_after_the_parser_is_built(self, seeded_store, fresh_parsers, monkeypatch):
        argv = ["query", "language=Java", "--store", str(seeded_store)]
        assert _run(argv)[1].count("\n") == 1
        seen = []
        monkeypatch.setattr(cli, "cmd_query", lambda args: seen.append(args.expression))
        assert _run(argv) == (0, "", "")
        assert seen == ["language=Java"]
        assert len(fresh_parsers) == 1
