"""Shared fixture builders: seeded git repos, fixture projects, catalogs."""

from __future__ import annotations

import json
import stat
import subprocess
import tempfile
import zipfile
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
# the program's temp directories: each pair's trees, each pair's job scratch space, the clones of a
# clone scope, and the per-attempt trees it made before each side's tree was built once
PROGRAM_TEMP_PREFIXES = ("failpass-pair-", "failpass-attempt-", "failpass-scratch-", "failpass-clones-")


@pytest.fixture(autouse=True)
def no_leaked_temp_dirs():
    """Fail a test that leaves one of the program's temp directories in the system temp directory."""
    tmp = Path(tempfile.gettempdir())

    def present():
        return {p.name for p in tmp.iterdir() if p.name.startswith(PROGRAM_TEMP_PREFIXES)}

    before = present()
    yield
    leaked = sorted(present() - before)
    if leaked:
        pytest.fail(f"left behind in {tmp}: {leaked}")


def record_git_commands(monkeypatch) -> list[list[str]]:
    """The argv of every git command started from now on, in order.

    ``subprocess.run`` starts its process through ``subprocess.Popen``, so
    replacing ``Popen`` sees the commands of both.
    """
    started = []
    real = subprocess.Popen

    class Recording(real):
        def __init__(self, args, *rest, **kwargs):
            if isinstance(args, (list, tuple)) and args and args[0] == "git":
                started.append([str(a) for a in args])
            super().__init__(args, *rest, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", Recording)
    return started


def git_clones(commands: list[list[str]]) -> list[list[str]]:
    return [argv for argv in commands if argv[1] == "clone"]


WORKER = "worker-garnet-1512502259"
LOG_TS = "2017-03-01T12:00:00Z"


def log_header(ts: str = LOG_TS, worker: str = WORKER) -> str:
    return (
        f"Using worker: {worker}:travis-linux-9\n"
        "Build system information\n"
        "Description:\tUbuntu 14.04.5 LTS\n"
        f"Build image provisioning date and time: {ts}\n"
        "\n"
    )


def fake_sha(seed: int) -> str:
    return f"{seed:040x}"[-40:]


def git(repo, *args, check=True):
    return subprocess.run(
        ["git", "-C", str(repo), "-c", "user.email=t@t", "-c", "user.name=t", *args],
        capture_output=True, text=True, check=check,
    )


def make_repo(path: Path, commits: list[dict[str, str]]) -> list[str]:
    """Create a repo with linear commits on master; returns their shas."""
    path.mkdir(parents=True, exist_ok=True)
    subprocess.run(["git", "init", "-q", "-b", "master", str(path)], check=True, capture_output=True)
    shas = []
    for i, files in enumerate(commits):
        shas.append(commit_files(path, files, f"commit {i}"))
    return shas


def commit_files(repo: Path, files: dict[str, str], message: str) -> str:
    for rel, content in files.items():
        target = repo / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content)
        if rel.endswith(".sh"):
            target.chmod(target.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", message)
    return git(repo, "rev-parse", "HEAD").stdout.strip()


def add_branch(repo: Path, name: str, from_sha: str, commits: list[dict[str, str]]) -> list[str]:
    git(repo, "checkout", "-q", "-b", name, from_sha)
    shas = [commit_files(repo, files, f"{name} {i}") for i, files in enumerate(commits)]
    git(repo, "checkout", "-q", "master")
    return shas


def make_zip(proj_dir: Path, sha: str, files: dict[str, str], top: str | None = None):
    archive_dir = proj_dir / "archive"
    archive_dir.mkdir(parents=True, exist_ok=True)
    top = top or f"proj-{sha[:7]}"
    with zipfile.ZipFile(archive_dir / f"{sha}.zip", "w") as zf:
        for rel, content in files.items():
            zf.writestr(f"{top}/{rel}", content)


def write_project(root: Path, slug: str, builds: list[dict], logs: dict[int, str] | None = None) -> Path:
    proj = root / slug
    proj.mkdir(parents=True, exist_ok=True)
    (proj / "builds.json").write_text(json.dumps(builds, indent=2))
    if logs:
        (proj / "logs").mkdir(exist_ok=True)
        for job_id, text in logs.items():
            (proj / "logs" / f"{job_id}.txt").write_text(text)
    return proj


CFG_A = {"language": "java", "jdk": "8", "script": ["./run_tests.sh"]}
CFG_B = {"language": "java", "jdk": "11", "script": ["./run_tests.sh"]}


MAVEN_FAIL_BODY = (
    "[INFO] Scanning for projects...\n"
    " T E S T S\n"
    "Tests run: 2, Failures: 1, Errors: 0, Skipped: 0, Time elapsed: 0.10 sec - in com.acme.AppTest\n"
    "\nResults :\n\n"
    "Failed tests:   AppTest.testAdd:10 expected:<2> but was:<3>\n"
    "\n"
    "Tests run: 2, Failures: 1, Errors: 0, Skipped: 0\n"
    "\n[INFO] BUILD FAILURE\n"
)

MAVEN_PASS_BODY = (
    "[INFO] Scanning for projects...\n"
    " T E S T S\n"
    "Tests run: 2, Failures: 0, Errors: 0, Skipped: 0, Time elapsed: 0.10 sec - in com.acme.AppTest\n"
    "\nResults :\n\n"
    "Tests run: 2, Failures: 0, Errors: 0, Skipped: 0\n"
    "\n[INFO] BUILD SUCCESS\n"
)

PYTEST_FAIL_BODY = (
    "============================= test session starts ==============================\n"
    "tests/test_app.py .F\n"
    "=========================== short test summary info ============================\n"
    "FAILED tests/test_app.py::test_sub - AssertionError\n"
    "========================= 1 failed, 1 passed in 0.05s ==========================\n"
)

PYTEST_PASS_BODY = (
    "============================= test session starts ==============================\n"
    "tests/test_app.py ..\n"
    "========================= 2 passed in 0.05s ==========================\n"
)


def wrap_original_log(body: str, exit_code: int, command: str = "./run_tests.sh", header: str | None = None) -> str:
    head = log_header() if header is None else header
    return (
        head
        + f"$ {command}\n"
        + body
        + f'The command "{command}" exited with {exit_code}.\n'
        + f"Done. Your build exited with {exit_code}.\n"
    )


def _cat_script(body: str, exit_code: int) -> str:
    return f"#!/bin/sh\ncat <<'EOG'\n{body}EOG\nexit {exit_code}\n"


FLAKY_PASS_SCRIPT = """#!/bin/sh
S="${FAILPASS_SCRATCH:-}"
if [ -n "$S" ] && [ -f "$S/marker" ]; then
cat <<'EOG'
============================= test session starts ==============================
tests/test_app.py .F
=========================== short test summary info ============================
FAILED tests/test_app.py::test_net - AssertionError
========================= 1 failed, 1 passed in 0.05s ==========================
EOG
exit 1
fi
[ -n "$S" ] && touch "$S/marker"
cat <<'EOG'
============================= test session starts ==============================
tests/test_app.py ..
========================= 2 passed in 0.05s ==========================
EOG
exit 0
"""


def build_record(build_id, status, event, branch, committed_at, jobs, *, pr_number=None,
                 trigger_sha=None, base_sha=None, merge_message=None):
    rec = {
        "build_id": build_id,
        "status": status,
        "event": event,
        "branch": branch,
        "committed_at": committed_at,
        "jobs": jobs,
        "trigger_sha": trigger_sha,
    }
    if pr_number is not None:
        rec["pr_number"] = pr_number
    if base_sha is not None:
        rec["base_sha"] = base_sha
    if merge_message is not None:
        rec["merge_message"] = merge_message
    return rec


def job_record(job_id, status, config, log=None):
    return {"job_id": job_id, "status": status, "config": config, "log": log}


@pytest.fixture(scope="session")
def widgets_root(tmp_path_factory) -> Path:
    """A mining-oriented fixture world: project acme/widgets with 6 builds.

    Exactly one fail->pass on master and one inside PR #3; one canceled
    build sits between the two master builds to exercise exclusion.
    """
    root = tmp_path_factory.mktemp("widgets-world")
    proj = root / "acme" / "widgets"
    m = make_repo(proj / "repo", [{"a.txt": "one\n"}, {"a.txt": "two\n"}, {"b.txt": "x\n"}])
    p = add_branch(proj / "repo", "pr-3", m[0], [{"feat.txt": "v1\n"}, {"feat.txt": "v2\n"}])
    mm1, mm2 = fake_sha(0xaa1), fake_sha(0xaa2)
    builds = [
        build_record(1, "failed", "push", "master", "2017-01-01T00:00:00Z",
                     [job_record(11, "failed", CFG_A, "11"), job_record(12, "passed", CFG_B, "12")],
                     trigger_sha=m[0]),
        build_record(2, "canceled", "push", "master", "2017-01-02T00:00:00Z",
                     [job_record(15, "canceled", CFG_A)], trigger_sha=m[1]),
        build_record(3, "passed", "push", "master", "2017-01-03T00:00:00Z",
                     [job_record(13, "passed", CFG_A, "13"), job_record(14, "passed", CFG_B, "14")],
                     trigger_sha=m[1]),
        build_record(4, "failed", "pull_request", "pr-temp-1", "2017-01-04T00:00:00Z",
                     [job_record(16, "failed", CFG_A, "16")], pr_number=3,
                     trigger_sha=mm1, base_sha=m[0], merge_message=f"Merge {p[0]} into {m[0]}"),
        build_record(5, "passed", "pull_request", "pr-temp-2", "2017-01-05T00:00:00Z",
                     [job_record(17, "passed", CFG_A, "17")], pr_number=3,
                     trigger_sha=mm2, base_sha=m[0], merge_message=f"Merge {p[1]} into {m[0]}"),
        build_record(6, "passed", "push", "dev", "2017-01-06T00:00:00Z",
                     [job_record(18, "passed", CFG_A)], trigger_sha=m[2]),
    ]
    logs = {
        11: wrap_original_log(MAVEN_FAIL_BODY, 1),
        12: wrap_original_log(MAVEN_PASS_BODY, 0),
        13: wrap_original_log(MAVEN_PASS_BODY, 0),
        14: wrap_original_log(MAVEN_PASS_BODY, 0),
        16: wrap_original_log(MAVEN_FAIL_BODY, 1),
        17: wrap_original_log(MAVEN_PASS_BODY, 0),
    }
    write_project(root, "acme/widgets", builds, logs)
    make_zip(proj, fake_sha(0xbb1), {"src/app.c": "int main(){}\n"})
    return root


@pytest.fixture(scope="session")
def catalog_path(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("catalog") / "images.json"
    path.write_text(json.dumps([
        {"language": "Java", "registry": "quay.io", "name": "ci-jvm", "tag": "2015-01",
         "built_at": "2015-01-01T00:00:00Z", "instance_pattern": r"worker-[A-Za-z0-9._-]+"},
        {"language": "Java", "registry": "quay.io", "name": "ci-jvm", "tag": "2016-11",
         "built_at": "2016-11-01T00:00:00Z", "instance_pattern": r"worker-[A-Za-z0-9._-]+"},
        {"language": "Python", "registry": "quay.io", "name": "ci-python", "tag": "2016-06",
         "built_at": "2016-06-01T00:00:00Z", "instance_pattern": r"worker-[A-Za-z0-9._-]+"},
    ]))
    return path


def _e2e_project(root: Path, slug: str, language: str, fail_body: str, pass_body: str,
                 job_ids: tuple[int, int], build_ids: tuple[int, int],
                 pass_script: str | None = None):
    proj = root / slug
    fail_script = _cat_script(fail_body, 1)
    ok_script = pass_script or _cat_script(pass_body, 0)
    shas = make_repo(proj / "repo", [{"run_tests.sh": fail_script}, {"run_tests.sh": ok_script}])
    cfg = {"language": language, "script": ["./run_tests.sh"]}
    builds = [
        build_record(build_ids[0], "failed", "push", "master", "2017-02-01T00:00:00Z",
                     [job_record(job_ids[0], "failed", cfg)], trigger_sha=shas[0]),
        build_record(build_ids[1], "passed", "push", "master", "2017-02-02T00:00:00Z",
                     [job_record(job_ids[1], "passed", cfg)], trigger_sha=shas[1]),
    ]
    logs = {
        job_ids[0]: wrap_original_log(fail_body, 1),
        job_ids[1]: wrap_original_log(pass_body, 0),
    }
    write_project(root, slug, builds, logs)
    return shas


@pytest.fixture(scope="session")
def e2e_root(tmp_path_factory) -> Path:
    """Three seeded reproduction projects: java-style, python-style, flaky."""
    root = tmp_path_factory.mktemp("e2e-world")
    _e2e_project(root, "acme/javaproj", "java", MAVEN_FAIL_BODY, MAVEN_PASS_BODY, (1001, 1002), (101, 102))
    _e2e_project(root, "acme/pyproj", "python", PYTEST_FAIL_BODY, PYTEST_PASS_BODY, (2001, 2002), (201, 202))
    _e2e_project(root, "acme/flaky", "python", PYTEST_FAIL_BODY, PYTEST_PASS_BODY, (3001, 3002), (301, 302),
                 pass_script=FLAKY_PASS_SCRIPT)
    return root
