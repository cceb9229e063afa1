"""A fault in one pair's data stays in that pair.

Each case copies a fixture of five pairs (the three of ``e2e_root``, one
built from archive zips and one phantom merge), breaks one pair's data, and
runs ``failpass reproduce --repeats 1`` over all five. The broken pair gets
an unreproducible record with a reason; every other pair's record and
attempt logs are byte for byte those of a run on the unbroken copy. A
project removed after ``filter`` is named in one ``failpass:`` line on
stderr, and its pairs run with no job configuration.
"""

import json
import shutil
from pathlib import Path

import pytest

from failpass.cli import main
from failpass.runtime import LocalRuntime
from conftest import (
    PYTEST_FAIL_BODY,
    PYTEST_PASS_BODY,
    _cat_script,
    add_branch,
    build_record,
    fake_sha,
    job_record,
    make_repo,
    make_zip,
    wrap_original_log,
    write_project,
)

CFG = {"language": "python", "script": ["sh run_tests.sh"]}


def add_zip_project(root: Path) -> None:
    """acme/zipproj: no clone, both commits only in the code host's archive."""
    shas = fake_sha(0x21F1), fake_sha(0x21F2)
    write_project(root, "acme/zipproj", [
        build_record(211, "failed", "push", "master", "2017-02-01T00:00:00Z",
                     [job_record(2101, "failed", CFG)], trigger_sha=shas[0]),
        build_record(212, "passed", "push", "master", "2017-02-02T00:00:00Z",
                     [job_record(2102, "passed", CFG)], trigger_sha=shas[1]),
    ], {2101: wrap_original_log(PYTEST_FAIL_BODY, 1, "sh run_tests.sh"),
        2102: wrap_original_log(PYTEST_PASS_BODY, 0, "sh run_tests.sh")})
    for sha, script in zip(shas, (_cat_script(PYTEST_FAIL_BODY, 1), _cat_script(PYTEST_PASS_BODY, 0))):
        make_zip(root / "acme" / "zipproj", sha, {"run_tests.sh": script})


def add_merge_project(root: Path) -> None:
    """acme/prproj: a pull request whose jobs ran on phantom merges of its commits into master."""
    repo = root / "acme" / "prproj" / "repo"
    master = make_repo(repo, [{"README": "base\n"}, {"NOTES": "master moved on\n"}])
    branch = add_branch(repo, "feature", master[0], [{"run_tests.sh": _cat_script(PYTEST_FAIL_BODY, 1)},
                                                     {"run_tests.sh": _cat_script(PYTEST_PASS_BODY, 0)}])
    builds = [
        build_record(220 + k, status, "pull_request", f"pr-temp-{k}", f"2017-02-0{k + 1}T00:00:00Z",
                     [job_record(2201 + k, status, CFG)], pr_number=7, trigger_sha=fake_sha(0x22A0 + k),
                     merge_message=f"Merge {sha} into {master[1]}")
        for k, (status, sha) in enumerate(zip(("failed", "passed"), branch))
    ]
    write_project(root, "acme/prproj", builds, {2201: wrap_original_log(PYTEST_FAIL_BODY, 1, "sh run_tests.sh"),
                                               2202: wrap_original_log(PYTEST_PASS_BODY, 0, "sh run_tests.sh")})


SLUGS = ("acme/javaproj", "acme/pyproj", "acme/flaky", "acme/zipproj", "acme/prproj")


@pytest.fixture(scope="module")
def world(e2e_root, catalog_path, tmp_path_factory):
    """The five-pair fixture, its verdicts (one per pair) and the clean run's records and logs."""
    root = tmp_path_factory.mktemp("fault-world")
    fixture = root / "fixture"
    shutil.copytree(e2e_root, fixture, symlinks=True)
    add_zip_project(fixture)
    add_merge_project(fixture)
    lines = []
    for k, slug in enumerate(SLUGS):
        pairs, verdicts = root / f"pairs-{k}.jsonl", root / f"verdicts-{k}.jsonl"
        language = "java" if slug == "acme/javaproj" else "python"
        assert main(["mine", slug, "--fixture", str(fixture), "--language", language, "--out", str(pairs)]) == 0
        assert main(["filter", "--pairs", str(pairs), "--catalog", str(catalog_path), "--fixture", str(fixture),
                     "--out", str(verdicts)]) == 0
        (line,) = verdicts.read_text().splitlines()
        lines.append(json.loads(line))
    sources = [(v["pair"]["failed_commits"]["recovery_source"], v["pair"]["failed_commits"]["base_sha"] is not None)
               for v in lines]
    assert sources == [("git_history", False)] * 3 + [("archive", False), ("git_history", True)]
    return fixture, lines, run(fixture, lines, root / "clean")


def pair_id(verdict: dict) -> str:
    return f"{verdict['pair']['project']['slug'].replace('/', '-')}-{verdict['pair']['failed_job']['job_id']}"


def run(fixture: Path, verdicts: list[dict], out: Path) -> tuple[dict[str, str], dict[str, dict[str, bytes]]]:
    """``reproduce --repeats 1`` over the verdicts: each pair's record line and its attempt logs by name."""
    out.mkdir()
    (out / "verdicts.jsonl").write_text("".join(json.dumps(v) + "\n" for v in verdicts))
    rc = main(["reproduce", "--verdicts", str(out / "verdicts.jsonl"), "--fixture", str(fixture),
               "--repeats", "1", "--timeout-s", "60", "--out", str(out / "records.jsonl"),
               "--output-dir", str(out / "logs")])
    assert rc == 0
    records = {json.loads(line)["pair_id"]: line for line in (out / "records.jsonl").read_text().splitlines()}
    logs = {pid: {str(p.relative_to(out / "logs" / pid)): p.read_bytes()
                  for p in (out / "logs" / pid).rglob("*") if p.is_file()}
            for pid in records if (out / "logs" / pid).exists()}
    return records, logs


def overwrite_archive(fixture, verdict):
    coords = verdict["pair"]["failed_commits"]
    if coords["recovery_source"] != "archive":
        return None
    (fixture / verdict["pair"]["project"]["slug"] / "archive" / f"{coords['trigger_sha']}.zip").write_text("text\n")
    return verdict


def missing_trigger(fixture, verdict):
    if verdict["pair"]["failed_commits"]["recovery_source"] != "git_history":
        return None
    verdict["pair"]["failed_commits"]["trigger_sha"] = fake_sha(0xDEAD)
    return verdict


def missing_base(fixture, verdict):
    if verdict["pair"]["failed_commits"]["recovery_source"] != "git_history":
        return None
    verdict["pair"]["failed_commits"]["base_sha"] = fake_sha(0xBA5E)
    return verdict


def removed_repo(fixture, verdict):
    repo = fixture / verdict["pair"]["project"]["slug"] / "repo"
    if not repo.exists():
        return None
    shutil.rmtree(repo)
    return verdict


def log_in_two_projects(fixture, verdict):
    job_id = verdict["pair"]["failed_job"]["job_id"]
    log = fixture / verdict["pair"]["project"]["slug"] / "logs" / f"{job_id}.txt"
    write_project(fixture, "other/fork", [], {job_id: log.read_text()})
    return verdict


def removed_project(fixture, verdict):
    shutil.rmtree(fixture / verdict["pair"]["project"]["slug"])
    return verdict


@pytest.mark.parametrize("fault", [overwrite_archive, missing_trigger, missing_base, removed_repo,
                                   log_in_two_projects, removed_project], ids=lambda f: f.__name__)
def test_a_fault_in_one_pair_stays_in_that_pair(world, fault, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("failpass.cli.default_runtime", LocalRuntime)
    fixture, verdicts, (clean_records, clean_logs) = world
    assert [json.loads(clean_records[pair_id(v)])["stability"] for v in verdicts] == [
        "reproducible", "reproducible", "reproducible", "reproducible", "reproducible"]
    faulted = 0
    for k, verdict in enumerate(verdicts):
        copy = tmp_path / f"fixture-{k}"
        shutil.copytree(fixture, copy, symlinks=True)
        edited = fault(copy, json.loads(json.dumps(verdict)))
        if edited is None:  # the fault does not apply to this pair's data
            continue
        faulted += 1
        capsys.readouterr()
        records, logs = run(copy, [*verdicts[:k], edited, *verdicts[k + 1:]], tmp_path / f"run-{k}")
        # only a project that is gone is worth a line of its own; every other fault is the pair's reason
        notes = [line for line in capsys.readouterr().err.splitlines() if line.startswith("failpass:")]
        slug = verdict["pair"]["project"]["slug"]
        assert notes == ([f"failpass: project not found: {slug}"] if fault is removed_project else [])
        target = pair_id(verdict)
        assert list(records) == list(clean_records)
        for pid in clean_records:
            if pid != target:
                assert (records[pid], logs.get(pid)) == (clean_records[pid], clean_logs.get(pid))
        record = json.loads(records[target])
        assert (record["stability"], record["category"]) == ("unreproducible", None)
        assert record["unreproducibility_reason"] == "project_specific"
        assert record["attempts"][0][0] is False
    assert faulted >= 1
