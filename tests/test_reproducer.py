import dataclasses
import errno
import itertools
import os
import selectors
import shlex
import shutil
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

import pytest

from failpass import analyzer, reproducer
from failpass.connector import ConnectorError, FixtureConnector, clone_at
from failpass.miner import mine
from failpass.model import (
    Availability,
    CommitCoordinates,
    Job,
    JobPair,
    Project,
    RecoverySource,
    Stage,
    Status,
)
from failpass.pairfilter import FilterVerdict, ImageRef, filter_pairs, load_catalog
from failpass.reproducer import (
    DEFAULT_REPEATS,
    ReproductionContext,
    ReproductionError,
    ReproductionRecord,
    classify_reproduced,
    classify_unreproducible,
    generate_job_script,
    pair_id,
    revert_project,
    run_job,
    stability_from_attempts,
    stability_protocol,
    unreproducible_reason,
)
from failpass.runtime import (
    KILLED_EXIT_STATUS,
    DockerRuntime,
    LocalRuntime,
    RuntimeUnavailable,
    default_runtime,
)
from conftest import (
    PYTEST_FAIL_BODY,
    PYTEST_PASS_BODY,
    TREE_GIT_DIR,
    _e2e_project,
    add_branch,
    build_record,
    fake_sha,
    git,
    git_dir_entries,
    job_record,
    make_repo,
    make_zip,
    wrap_original_log,
    write_project,
)

RUNTIME = LocalRuntime()


class TestGenerateJobScript:
    def test_deterministic(self):
        cfg = {"language": "java", "jdk": "8", "env": ["CI=true"], "script": ["./run_tests.sh"]}
        assert generate_job_script(cfg) == generate_job_script(cfg)

    def test_runs_no_checkout_and_has_markers(self):
        script = generate_job_script({"script": ["make test"]})
        assert "git checkout" not in script
        assert 'The command "make test" exited with ' in script
        assert "Done. Your build exited with " in script

    def test_install_failure_marks_errored_phase(self):
        script = generate_job_script({"install": ["pip install -r r.txt"], "script": ["pytest"]})
        assert "failed and exited with " in script
        assert "during install." in script

    def test_unsupported_keys_rejected(self):
        with pytest.raises(ReproductionError) as exc:
            generate_job_script({"script": ["x"], "services": ["docker"]})
        assert exc.value.reason == "ci_command_issue"

    def test_malformed_env_rejected(self):
        with pytest.raises(ReproductionError):
            generate_job_script({"env": ["not an assignment"]})

    def test_env_values_are_quoted(self):
        script = generate_job_script({"env": ["MSG=hello world; rm -rf /"]})
        assert "export MSG='hello world; rm -rf /'" in script


class TestRevertProject:
    def test_clone_reset_for_push(self, tmp_path):
        shas = make_repo(tmp_path / "repo", [{"a": "1\n"}, {"a": "2\n"}])
        coords = CommitCoordinates(trigger_sha=shas[0], availability=Availability.AVAILABLE,
                                   recovery_source=RecoverySource.GIT_HISTORY)
        tree = revert_project(coords, tmp_path / "repo", lambda s, d: None, tmp_path / "wt")
        assert tree.construction == "clone_reset"
        assert (tree.root / "a").read_text() == "1\n"

    def test_phantom_merge_for_pr(self, tmp_path):
        repo = tmp_path / "repo"
        master = make_repo(repo, [{"a": "1\n"}, {"b": "base\n"}])
        branch = add_branch(repo, "feature", master[0], [{"c": "feat\n"}])
        coords = CommitCoordinates(trigger_sha=branch[0], base_sha=master[1],
                                   availability=Availability.AVAILABLE,
                                   recovery_source=RecoverySource.GIT_HISTORY)
        tree = revert_project(coords, repo, lambda s, d: None, tmp_path / "wt")
        assert tree.construction == "phantom_merge"
        # the merged tree carries content from both parents
        assert (tree.root / "b").read_text() == "base\n"
        assert (tree.root / "c").read_text() == "feat\n"

    def test_archive_zip_route(self, tmp_path):
        sha = fake_sha(0xA1)
        proj = tmp_path / "proj"
        make_zip(proj, sha, {"a": "zipped\n"})
        coords = CommitCoordinates(trigger_sha=sha, availability=Availability.AVAILABLE,
                                   recovery_source=RecoverySource.ARCHIVE)

        def fetch(s, dest):
            archive = proj / "archive" / f"{s}.zip"
            if not archive.exists():
                return None
            from failpass.connector import extract_archive

            return extract_archive(archive, dest)

        tree = revert_project(coords, None, fetch, tmp_path / "wt")
        assert tree.construction == "archive_zip"
        assert (tree.root / "a").read_text() == "zipped\n"

    def test_unavailable_coords_raise(self, tmp_path):
        coords = CommitCoordinates(trigger_sha="a" * 40, reason="gone")
        with pytest.raises(ReproductionError):
            revert_project(coords, None, lambda s, d: None, tmp_path / "wt")


class TestRunJob:
    def _tree(self, tmp_path, files):
        shas = make_repo(tmp_path / "repo", [files])
        from failpass.reproducer import WorkTree
        from failpass.connector import clone_at

        clone_at(tmp_path / "repo", shas[0], tmp_path / "wt")
        return WorkTree(root=tmp_path / "wt", construction="clone_reset")

    def test_script_runs_and_collects_output(self, tmp_path):
        tree = self._tree(tmp_path, {"run_tests.sh": "#!/bin/sh\necho hello from tests\nexit 0\n"})
        script = generate_job_script({"script": ["./run_tests.sh"]})
        outcome = run_job(script, "img", tree, 30.0, RUNTIME)
        assert outcome.exit_status == 0
        assert "hello from tests" in outcome.log_text
        assert "Done. Your build exited with 0." in outcome.log_text

    def test_failing_script_propagates_exit(self, tmp_path):
        tree = self._tree(tmp_path, {"run_tests.sh": "#!/bin/sh\nexit 3\n"})
        script = generate_job_script({"script": ["./run_tests.sh"]})
        outcome = run_job(script, "img", tree, 30.0, RUNTIME)
        assert outcome.exit_status == 3
        assert 'The command "./run_tests.sh" exited with 3.' in outcome.log_text
        assert "Done. Your build exited with 3." in outcome.log_text

    def test_timeout_kills_run(self, tmp_path):
        tree = self._tree(tmp_path, {"run_tests.sh": "#!/bin/sh\nsleep 30\n"})
        script = generate_job_script({"script": ["./run_tests.sh"]})
        start = time.monotonic()
        outcome = run_job(script, "img", tree, 1.0, RUNTIME)
        assert outcome.timed_out
        assert outcome.exit_status == KILLED_EXIT_STATUS
        assert time.monotonic() - start < 10

    def test_runtime_env_is_scrubbed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SECRET_TOKEN", "hunter2")
        tree = self._tree(tmp_path, {"run_tests.sh": '#!/bin/sh\necho "token=${SECRET_TOKEN:-unset}"\n'})
        script = generate_job_script({"script": ["./run_tests.sh"]})
        outcome = run_job(script, "img", tree, 30.0, LocalRuntime())
        assert "token=unset" in outcome.log_text

    def test_job_sees_exactly_the_built_tree(self, tmp_path):
        tree = self._tree(tmp_path, {"run_tests.sh": "#!/bin/sh\n", "b.txt": "b\n"})
        outcome = run_job(generate_job_script({"script": ["ls -A"]}), "img", tree, 30.0, RUNTIME)
        assert "$ ls -A\n.git\nb.txt\nrun_tests.sh\n" in outcome.log_text
        assert sorted(os.listdir(tree.root)) == [".git", "b.txt", "run_tests.sh"]

    def test_job_reads_eof_on_stdin(self, tmp_path):
        tree = self._tree(tmp_path, {"a": "1\n"})
        # failpass's own stdin is a pipe that stays open: a job that inherited it would block
        read_end, write_end = os.pipe()
        saved_stdin = os.dup(0)
        os.dup2(read_end, 0)
        try:
            start = time.monotonic()
            outcome = run_job(generate_job_script({"script": ["cat"]}), "img", tree, 10.0, RUNTIME)
        finally:
            os.dup2(saved_stdin, 0)
            for fd in (saved_stdin, read_end, write_end):
                os.close(fd)
        assert (outcome.exit_status, outcome.timed_out) == (0, False)
        assert time.monotonic() - start < 5

    def test_longest_script_runs_and_one_byte_more_is_a_ci_command_issue(self, tmp_path):
        tree = self._tree(tmp_path, {"a": "1\n"})
        padding = reproducer.MAX_SCRIPT_BYTES - len(generate_job_script({"env": ["PAD=x"]})) + 1
        script = generate_job_script({"env": ["PAD=" + "x" * padding]})
        assert len(script) == reproducer.MAX_SCRIPT_BYTES
        outcome = run_job(script, "img", tree, 30.0, RUNTIME)
        assert outcome.exit_status == 0
        assert "Done. Your build exited with 0." in outcome.log_text
        with pytest.raises(ReproductionError) as exc:
            generate_job_script({"env": ["PAD=" + "x" * (padding + 1)]})
        assert exc.value.reason == "ci_command_issue"

    def test_pr_job_runs_on_the_phantom_merge(self, tmp_path):
        repo = tmp_path / "repo"
        master = make_repo(repo, [{"a": "1\n"}, {"b": "base\n"}])
        (trigger,) = add_branch(repo, "feature", master[0], [{"c": "feat\n"}])
        coords = CommitCoordinates(trigger_sha=trigger, base_sha=master[1], availability=Availability.AVAILABLE,
                                   recovery_source=RecoverySource.GIT_HISTORY)
        tree = revert_project(coords, repo, lambda s, d: None, tmp_path / "wt")
        outcome = run_job(generate_job_script({"script": ["ls"]}), "img", tree, 30.0, RUNTIME)
        # the base's b and the trigger's c: the job sees both parents of the merge
        assert "$ ls\na\nb\nc\n" in outcome.log_text


def group_is_gone(pgid: int, within_s: float = 5.0) -> bool:
    """Whether no process is left in group ``pgid`` within ``within_s``.

    A killed orphan is a zombie until init reaps it, and a zombie still
    answers ``killpg(pgid, 0)``; so this waits a little for the reaping.
    """
    deadline = time.monotonic() + within_s
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)


class TestJobRunEndsWithItsShell:
    def test_background_child_holding_the_output_does_not_make_a_timeout(self, tmp_path):
        start = time.monotonic()
        result = RUNTIME.run_script("img", tmp_path, "echo $$; sleep 60 & echo hi; exit 0", 10.0)
        assert (result.exit_status, result.timed_out) == (0, False)
        assert time.monotonic() - start < 5
        assert result.log_text.endswith("hi\n")
        assert group_is_gone(int(result.log_text.split()[0]))

    def test_detached_child_is_killed_with_the_session(self, tmp_path):
        result = RUNTIME.run_script("img", tmp_path, "echo $$; sleep 60 >/dev/null 2>&1 & exit 0", 10.0)
        assert (result.exit_status, result.timed_out) == (0, False)
        assert group_is_gone(int(result.log_text))

    def test_timeout_keeps_the_partial_log(self, tmp_path):
        start = time.monotonic()
        result = RUNTIME.run_script("img", tmp_path, "echo start; sleep 30", 1.0)
        assert (result.exit_status, result.timed_out, result.log_text) == (KILLED_EXIT_STATUS, True, "start\n")
        assert 1.0 <= result.wall_time and time.monotonic() - start < 5

    def test_output_larger_than_a_pipe_buffer_comes_back_whole(self, tmp_path):
        script = "head -c 3000000 /dev/zero | tr '\\0' x; echo; exit 7"
        result = RUNTIME.run_script("img", tmp_path, script, 30.0)
        assert (result.exit_status, result.timed_out) == (7, False)
        assert result.log_text == "x" * 3_000_000 + "\n"

    def test_output_still_in_the_pipe_when_the_shell_exits_is_kept(self, tmp_path, monkeypatch):
        class LateSelector(selectors.DefaultSelector):
            """Wakes first only after the job has exited, with its whole output still in the pipe."""
            slept = False

            def select(self, timeout=None):
                if not LateSelector.slept:
                    LateSelector.slept = True
                    time.sleep(1.0)
                return super().select(timeout)

        monkeypatch.setattr(selectors, "DefaultSelector", LateSelector)
        # the job grows its pipe to 1 MiB, so the pipe holds more than one read takes
        fill = "import fcntl, os; fcntl.fcntl(1, fcntl.F_SETPIPE_SZ, 1 << 20); os.write(1, b'x' * 800000)"
        result = RUNTIME.run_script("img", tmp_path, "exec " + shlex.join([sys.executable, "-c", fill]), 30.0)
        assert LateSelector.slept
        assert (result.exit_status, result.timed_out) == (0, False)
        assert result.log_text == "x" * 800_000


DAEMON_DOWN = "Cannot connect to the Docker daemon at unix:///var/run/docker.sock. Is the docker daemon running?"


def stub_docker(tmp_path, monkeypatch, version: str, run: str = "exit 0", pull: str = "exit 0",
                ps: str = "exit 0") -> None:
    """Put a fake ``docker`` first on PATH; ``version``/``run``/``pull``/``ps`` are its shell bodies."""
    bindir = tmp_path / "stub-bin"
    bindir.mkdir()
    stub = bindir / "docker"
    stub.write_text(f'#!/bin/sh\ncase "$1" in\n  version) {version} ;;\n  run) {run} ;;\n'
                    f'  pull) {pull} ;;\n  ps) {ps} ;;\nesac\n')
    stub.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bindir}:{os.environ['PATH']}")


class TestDefaultRuntime:
    def test_no_docker_on_path_gives_local(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PATH", str(tmp_path))
        assert isinstance(default_runtime(), LocalRuntime)

    def test_daemon_down_gives_local(self, tmp_path, monkeypatch):
        stub_docker(tmp_path, monkeypatch, f'echo "Client: 28.2.2"; echo "{DAEMON_DOWN}" >&2; exit 1')
        with pytest.raises(RuntimeUnavailable, match="Cannot connect to the Docker daemon"):
            DockerRuntime()
        assert isinstance(default_runtime(), LocalRuntime)

    def test_hung_engine_gives_local(self, tmp_path, monkeypatch):
        monkeypatch.setattr("failpass.runtime.ENGINE_PROBE_TIMEOUT_S", 0.5)
        stub_docker(tmp_path, monkeypatch, "exec sleep 30")
        start = time.monotonic()
        assert isinstance(default_runtime(), LocalRuntime)
        assert time.monotonic() - start < 10

    def test_answering_engine_gives_docker(self, tmp_path, monkeypatch):
        stub_docker(tmp_path, monkeypatch, 'echo "Server: Docker Engine"')
        assert isinstance(default_runtime(), DockerRuntime)

    def test_engine_error_on_run_raises(self, tmp_path, monkeypatch):
        stub_docker(tmp_path, monkeypatch, "exit 0",
                    run=f'echo "docker: Error response from daemon: {DAEMON_DOWN}" >&2; exit 125')
        with pytest.raises(RuntimeUnavailable, match="Error response from daemon"):
            DockerRuntime().run_script("img", tmp_path, "exit 0", 30.0)

    def test_job_exit_status_passes_through(self, tmp_path, monkeypatch):
        stub_docker(tmp_path, monkeypatch, "exit 0", run='echo "job output"; exit 3')
        result = DockerRuntime().run_script("img", tmp_path, "exit 0", 30.0)
        assert result.exit_status == 3
        assert "job output" in result.log_text


def recorded_docker(tmp_path, monkeypatch) -> Path:
    """A fake ``docker`` whose ``run`` writes its arguments, each ended by a NUL, to the returned file."""
    argv_file = tmp_path / "docker-argv"
    stub_docker(tmp_path, monkeypatch, "exit 0", run=f'shift; printf "%s\\0" "$@" > {argv_file}')
    return argv_file


def docker_args(argv_file: Path) -> list[str]:
    return argv_file.read_text().split("\0")[:-1]


def volumes(argv_file: Path) -> list[str]:
    args = docker_args(argv_file)
    return [args[i + 1] for i, arg in enumerate(args) if arg == "-v"]


class TestDockerMounts:
    def test_tree_without_alternates_mounts_only_the_build_directory(self, tmp_path, monkeypatch):
        argv_file = recorded_docker(tmp_path, monkeypatch)
        tree = tmp_path / "wt"
        tree.mkdir()
        script = generate_job_script({"script": ["./run_tests.sh"]})
        DockerRuntime().run_script("img", tree, script, 30.0)
        assert volumes(argv_file) == [f"{tree.resolve()}:/build"]
        # the script is the shell's one argument; nothing is written into the tree
        assert docker_args(argv_file)[-4:] == ["img", "/bin/sh", "-c", script]
        assert list(tree.iterdir()) == []

    def test_scratch_directory_is_mounted_read_write_at_its_own_path(self, tmp_path, monkeypatch):
        argv_file = recorded_docker(tmp_path, monkeypatch)
        tree = tmp_path / "wt"
        tree.mkdir()
        scratch = str(tmp_path / "scratch")
        DockerRuntime().run_script("img", tree, "exit 0", 30.0, env={"FAILPASS_SCRATCH": scratch})
        assert volumes(argv_file) == [f"{tree.resolve()}:/build", f"{scratch}:{scratch}"]
        assert f"FAILPASS_SCRATCH={scratch}" in docker_args(argv_file)
        assert docker_args(argv_file)[-4:] == ["img", "/bin/sh", "-c", "exit 0"]

    def test_borrowed_object_stores_are_mounted_read_only_at_their_paths(self, tmp_path, monkeypatch):
        argv_file = recorded_docker(tmp_path, monkeypatch)
        origin = tmp_path / "origin"
        shas = make_repo(origin, [{"a": "1\n"}])
        # a mirror that borrows from origin through a relative entry: the chain the tree's git follows
        mirror = tmp_path / "mirror"
        git(tmp_path, "clone", "-q", "--shared", str(origin), str(mirror))
        mirror_objects = (mirror / ".git" / "objects").resolve()
        origin_objects = (origin / ".git" / "objects").resolve()
        (mirror_objects / "info" / "alternates").write_text(
            f"# borrowed\n{os.path.relpath(origin_objects, mirror_objects)}\n")
        tree = clone_at(mirror, shas[0], tmp_path / "wt")
        DockerRuntime().run_script("img", tree, "exit 0", 30.0)
        assert volumes(argv_file) == [f"{tree.resolve()}:/build", f"{mirror_objects}:{mirror_objects}:ro",
                                      f"{origin_objects}:{origin_objects}:ro"]

    def test_relative_entry_of_the_tree_is_mounted_where_git_looks_in_the_container(self, tmp_path, monkeypatch):
        argv_file = recorded_docker(tmp_path, monkeypatch)
        origin = tmp_path / "origin"
        shas = make_repo(origin, [{"a": "1\n"}])
        tree = clone_at(origin, shas[0], tmp_path / "wt")
        objects = (tree / ".git" / "objects").resolve()
        origin_objects = (origin / ".git" / "objects").resolve()
        (objects / "info" / "alternates").write_text(os.path.relpath(origin_objects, objects) + "\n")
        assert git(tree, "status", "--porcelain").stdout == ""
        DockerRuntime().run_script("img", tree, "exit 0", 30.0)
        # the tree is /build in the container, so ../../../origin/.git/objects is /origin/.git/objects there
        assert volumes(argv_file)[1:] == [f"{origin_objects}:/origin/.git/objects:ro"]


class TestClassification:
    def _attrs(self, status, failed=0, run=0):
        return analyzer.LogAttributes(status=status, num_tests_run=run, num_tests_failed=failed)

    def test_reproduced_categories(self):
        assert classify_reproduced(self._attrs("errored")) == "error_pass"
        assert classify_reproduced(self._attrs("failed", failed=2, run=5)) == "with_failed_test"
        assert classify_reproduced(self._attrs("failed")) == "with_failed_job"
        with pytest.raises(ValueError):
            classify_reproduced(self._attrs("passed"))

    def test_unreproducible_rule_order(self):
        both = 'pip failed and exited with 1 during install.\nCould not resolve host pypi.org\n'
        assert classify_unreproducible(both) == "dependency_install_failed"
        assert classify_unreproducible("Could not resolve host x.com") == "stale_url_or_network"
        assert classify_unreproducible("", timed_out=True) == "did_not_finish"
        assert classify_unreproducible("sh: Permission denied") == "permission_issue"
        assert classify_unreproducible("something else entirely") == "project_specific"

    def test_pair_reason_is_the_most_common_mismatch(self):
        assert unreproducible_reason(["did_not_finish"] * 2 + ["dependency_install_failed"]) == "did_not_finish"

    def test_pair_reason_ties_go_by_reasons_order(self):
        assert unreproducible_reason(["permission_issue", "project_specific", "stale_url_or_network",
                                      "did_not_finish"]) == "stale_url_or_network"
        assert unreproducible_reason(["permission_issue", "did_not_finish"]) == "did_not_finish"

    def test_pair_reason_counts_unknown_labels_as_project_specific(self):
        reasons = ["original log absent", "job configuration missing", "stale_url_or_network"]
        assert unreproducible_reason(reasons) == "project_specific"


class TestStability:
    def test_truth_table_exhaustive(self):
        for combo in itertools.product([(True, True), (True, False), (False, True), (False, False)],
                                       repeat=3):
            matched = [f and p for f, p in combo]
            got = stability_from_attempts(list(combo))
            if all(matched):
                assert got == "reproducible"
            elif not any(matched):
                assert got == "unreproducible"
            else:
                assert got == "flaky"

    def test_one_sided_match_is_not_a_match(self):
        assert stability_from_attempts([(True, False)] * 5) == "unreproducible"
        assert stability_from_attempts([(False, True)] * 5) == "unreproducible"

    def test_record_invariant(self):
        with pytest.raises(ValueError):
            ReproductionRecord(pair_id="x", attempts=[(True, True)], stability="reproducible")
        with pytest.raises(ValueError):
            ReproductionRecord(pair_id="x", attempts=[(False, False)], stability="unreproducible",
                               category="error_pass")


def _context_for(root, slug, language, tmp_path, scratch=None):
    connector = FixtureConnector(root)
    raw_configs = {
        j["job_id"]: j["config"]
        for r in connector.fetch_raw_records(slug)
        for j in r.get("jobs", [])
    }
    return ReproductionContext(
        connector=connector,
        runtime=RUNTIME,
        language=language,
        raw_configs=raw_configs,
        scratch_dir=scratch,
        timeout_s=60.0,
    )


def _verdict_with_image(pair):
    image = ImageRef("quay.io", "ci-python", "2015-01", datetime(2015, 1, 1, tzinfo=timezone.utc), "worker-1")
    return FilterVerdict(pair, Stage.WITH_IMAGE, image_ref=image)


def _mined_verdict(root, slug, language, catalog_path):
    connector = FixtureConnector(root)
    pairs = mine(slug, connector, language)
    assert len(pairs) == 1
    catalog = load_catalog(catalog_path)
    verdicts, _ = filter_pairs(pairs, connector.fetch_job_log, catalog)
    (verdict,) = verdicts
    assert verdict.image_ref is not None
    return pairs[0], verdict


class TestEndToEnd:
    def test_java_pair_reproduces(self, e2e_root, catalog_path, tmp_path):
        pair, verdict = _mined_verdict(e2e_root, "acme/javaproj", "java", catalog_path)
        ctx = _context_for(e2e_root, "acme/javaproj", "java", tmp_path)
        [(fail_matched, pass_matched)] = stability_protocol(pair, verdict, ctx, n=1).attempts
        assert fail_matched and pass_matched

    def test_python_pair_full_protocol(self, e2e_root, catalog_path, tmp_path):
        pair, verdict = _mined_verdict(e2e_root, "acme/pyproj", "python", catalog_path)
        ctx = _context_for(e2e_root, "acme/pyproj", "python", tmp_path)
        record = stability_protocol(pair, verdict, ctx, n=3)
        assert record.stability == "reproducible"
        assert record.category == "with_failed_test"
        assert record.attempts == [(True, True)] * 3

    def test_flaky_pair_detected_with_scratch_state(self, e2e_root, catalog_path, tmp_path):
        pair, verdict = _mined_verdict(e2e_root, "acme/flaky", "python", catalog_path)
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        ctx = _context_for(e2e_root, "acme/flaky", "python", tmp_path, scratch=scratch)
        record = stability_protocol(pair, verdict, ctx, n=3)
        assert record.stability == "flaky"
        # first attempt matches, later ones see the poisoned pass side
        assert record.attempts[0] == (True, True)
        assert all(not p for _, p in record.attempts[1:])

    def test_flaky_pair_is_stable_without_shared_state(self, e2e_root, catalog_path, tmp_path):
        pair, verdict = _mined_verdict(e2e_root, "acme/flaky", "python", catalog_path)
        ctx = _context_for(e2e_root, "acme/flaky", "python", tmp_path, scratch=None)
        record = stability_protocol(pair, verdict, ctx, n=3)
        assert record.stability == "reproducible"

    def test_attempts_leave_repo_untouched(self, e2e_root, catalog_path, tmp_path):
        repo = e2e_root / "acme" / "javaproj" / "repo"
        from failpass.connector import _git

        before = _git(repo, "rev-parse", "HEAD").stdout
        pair, verdict = _mined_verdict(e2e_root, "acme/javaproj", "java", catalog_path)
        ctx = _context_for(e2e_root, "acme/javaproj", "java", tmp_path)
        stability_protocol(pair, verdict, ctx, n=1)
        assert _git(repo, "rev-parse", "HEAD").stdout == before
        assert _git(repo, "status", "--porcelain").stdout == ""

    def test_pair_id_shape(self, e2e_root, catalog_path, tmp_path):
        pair, _ = _mined_verdict(e2e_root, "acme/javaproj", "java", catalog_path)
        assert pair_id(pair) == "acme-javaproj-1001"

    def test_default_repeat_count(self):
        assert DEFAULT_REPEATS == 5


def _edit_checking_script(body: str, exit_code: int) -> str:
    """A job that needs .git, fails if its tracked state.txt was already edited, then edits it."""
    return (
        "#!/bin/sh\n"
        "[ -d .git ] || { echo 'no .git in the worktree'; exit 3; }\n"
        "[ \"$(cat state.txt)\" = clean ] || { echo 'worktree already used'; exit 3; }\n"
        "echo used >> state.txt\n"
        f"cat <<'EOG'\n{body}EOG\nexit {exit_code}\n"
    )


@pytest.fixture()
def edit_root(tmp_path) -> Path:
    """One push-built python pair whose jobs edit a tracked file in place."""
    root = tmp_path / "edit-world"
    slug = "acme/editor"
    shas = make_repo(root / slug / "repo", [
        {"run_tests.sh": _edit_checking_script(PYTEST_FAIL_BODY, 1), "state.txt": "clean\n"},
        {"run_tests.sh": _edit_checking_script(PYTEST_PASS_BODY, 0)},
    ])
    cfg = {"language": "python", "script": ["./run_tests.sh"]}
    builds = [
        build_record(401, "failed", "push", "master", "2017-02-01T00:00:00Z",
                     [job_record(4001, "failed", cfg)], trigger_sha=shas[0]),
        build_record(402, "passed", "push", "master", "2017-02-02T00:00:00Z",
                     [job_record(4002, "passed", cfg)], trigger_sha=shas[1]),
    ]
    write_project(root, slug, builds, {4001: wrap_original_log(PYTEST_FAIL_BODY, 1),
                                       4002: wrap_original_log(PYTEST_PASS_BODY, 0)})
    return root


def _counting(monkeypatch, owner, name, key):
    """Replace owner.name with a wrapper that counts calls by key(args); returns the counter."""
    calls = Counter()
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[key(args)] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestSharedPairInputs:
    def test_each_side_tree_built_once(self, e2e_root, catalog_path, tmp_path, monkeypatch):
        built = _counting(monkeypatch, reproducer, "revert_project", lambda a: Path(a[3]).name)
        pair, verdict = _mined_verdict(e2e_root, "acme/pyproj", "python", catalog_path)
        ctx = _context_for(e2e_root, "acme/pyproj", "python", tmp_path)
        record = stability_protocol(pair, verdict, ctx, n=5)
        assert record.attempts == [(True, True)] * 5
        assert built == {"fail": 1, "pass": 1}

    def test_each_job_finds_only_what_clone_at_wrote_in_its_git_dir(self, e2e_root, catalog_path, tmp_path,
                                                                     monkeypatch):
        seen = []
        real_run_job = reproducer.run_job

        def run_job_listing(script, image, tree, *args, **kwargs):
            seen.append(git_dir_entries(tree.root))
            return real_run_job(script, image, tree, *args, **kwargs)

        monkeypatch.setattr(reproducer, "run_job", run_job_listing)
        pair, verdict = _mined_verdict(e2e_root, "acme/pyproj", "python", catalog_path)
        ctx = _context_for(e2e_root, "acme/pyproj", "python", tmp_path)
        assert stability_protocol(pair, verdict, ctx, n=2).attempts == [(True, True)] * 2
        assert seen == [TREE_GIT_DIR] * 4

    def test_original_logs_parsed_once_per_job(self, e2e_root, catalog_path, tmp_path, monkeypatch):
        parsed = _counting(monkeypatch, ReproductionContext, "original_attributes", lambda a: a[1])
        pair, verdict = _mined_verdict(e2e_root, "acme/pyproj", "python", catalog_path)
        ctx = _context_for(e2e_root, "acme/pyproj", "python", tmp_path)
        record = stability_protocol(pair, verdict, ctx, n=5)
        assert record.category == "with_failed_test"
        assert parsed == {2001: 1, 2002: 1}

    def test_conflicting_phantom_merge_tried_once(self, e2e_root, catalog_path, tmp_path, monkeypatch):
        # the pass side stays on the project's history; the fail side merges two branches that clash
        repo = tmp_path / "conflict-repo"
        git(tmp_path, "clone", "-q", str(e2e_root / "acme" / "pyproj" / "repo"), str(repo))
        head = git(repo, "rev-parse", "HEAD").stdout.strip()
        (base,) = add_branch(repo, "base", head, [{"a": "base\n"}])
        (feature,) = add_branch(repo, "feature", head, [{"a": "feature\n"}])
        pair, verdict = _mined_verdict(e2e_root, "acme/pyproj", "python", catalog_path)
        conflicting = CommitCoordinates(trigger_sha=feature, base_sha=base,
                                        availability=Availability.AVAILABLE,
                                        recovery_source=RecoverySource.GIT_HISTORY)
        pair = dataclasses.replace(pair, failed_commits=conflicting)
        verdict = dataclasses.replace(verdict, pair=pair)
        ctx = _context_for(e2e_root, "acme/pyproj", "python", tmp_path)
        monkeypatch.setattr(ctx.connector, "repo_path", lambda slug: repo)
        merges = _counting(monkeypatch, reproducer, "merge_tree", lambda a: a[1])
        record = stability_protocol(pair, verdict, ctx, n=5)
        assert merges == {base: 1}
        assert (record.stability, record.unreproducibility_reason) == ("unreproducible", "project_specific")
        assert record.attempts == [(False, True)] * 5

    def test_single_attempt_removes_its_trees(self, e2e_root, catalog_path, tmp_path, monkeypatch):
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        pair, verdict = _mined_verdict(e2e_root, "acme/javaproj", "java", catalog_path)
        ctx = _context_for(e2e_root, "acme/javaproj", "java", tmp_path)
        [(fail_matched, pass_matched)] = stability_protocol(pair, verdict, ctx, n=1).attempts
        assert fail_matched and pass_matched
        assert list(tmp.iterdir()) == []

    def test_each_side_prepared_once_and_a_blocked_side_builds_and_runs_nothing(self, catalog_path, tmp_path,
                                                                                 monkeypatch):
        root = tmp_path / "absent-world"
        _e2e_project(root, "acme/absent", "python", PYTEST_FAIL_BODY, PYTEST_PASS_BODY, (6001, 6002), (601, 602))
        pair, verdict = _mined_verdict(root, "acme/absent", "python", catalog_path)
        ctx = _context_for(root, "acme/absent", "python", tmp_path)
        scripts = _counting(monkeypatch, reproducer, "generate_job_script", lambda a: "script")
        built = _counting(monkeypatch, reproducer, "revert_project", lambda a: Path(a[3]).name)
        record = stability_protocol(pair, verdict, ctx, n=5)
        assert record.attempts == [(True, True)] * 5
        assert scripts == {"script": 2} and built == {"fail": 1, "pass": 1}

        # the fail side's original log goes away after filtering; a new connector reads the fixture afresh
        (root / "acme" / "absent" / "logs" / "6001.txt").unlink()
        ctx = _context_for(root, "acme/absent", "python", tmp_path)
        scripts.clear()
        built.clear()
        runs = _counting(monkeypatch, reproducer, "run_job", lambda a: a[2].root.name)
        sunk = []
        ctx.log_sink = lambda pid, attempt, side, text: sunk.append((pid, attempt, side, text))
        record = stability_protocol(pair, verdict, ctx, n=5)
        assert record.attempts == [(False, True)] * 5
        assert (record.stability, record.unreproducibility_reason) == ("unreproducible", "project_specific")
        assert scripts == {"script": 1} and built == {"pass": 1} and runs == {"pass": 5}
        assert [(pid, attempt, side) for pid, attempt, side, _ in sunk] == [
            (pair_id(pair), k, "pass") for k in range(5)]
        assert all("Done. Your build exited with 0." in text for *_, text in sunk)


def _side_copies(monkeypatch) -> Counter:
    """Count ``shutil.copytree`` calls by their destination's name; a side's copy is named after the side."""
    return _counting(monkeypatch, shutil, "copytree", lambda a: Path(a[1]).name)


def _sides(counts: Counter) -> dict:
    """The counts of the two sides alone (a ``.git`` copy and copytree's own recursive calls aside)."""
    return {k: n for k, n in counts.items() if k in ("fail", "pass")}


class TestWorkingCopies:
    """Jobs run in the tree as built; a tree a job changed is replaced before the next attempt.

    The first replacement builds the side's tree once more, as a reserve no
    job runs in; each attempt after a change runs in a fresh copy of it.
    """

    def test_one_copy_per_side(self, e2e_root, catalog_path, tmp_path, monkeypatch):
        # the job leaves its tree alone, so each check finds the tree unchanged
        built = _counting(monkeypatch, reproducer, "revert_project", lambda a: Path(a[3]).name)
        copied = _side_copies(monkeypatch)
        pair, verdict = _mined_verdict(e2e_root, "acme/pyproj", "python", catalog_path)
        ctx = _context_for(e2e_root, "acme/pyproj", "python", tmp_path)
        record = stability_protocol(pair, verdict, ctx, n=5)
        assert record.attempts == [(True, True)] * 5
        assert built == {"fail": 1, "pass": 1}
        assert _sides(copied) == {}

    def test_an_edited_copy_is_replaced(self, edit_root, catalog_path, tmp_path, monkeypatch):
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        built = _counting(monkeypatch, reproducer, "revert_project", lambda a: Path(a[3]).name)
        copied = _side_copies(monkeypatch)
        # by the tree's directory: failpass-pair-* (the first build), copy-<k> or reserve
        runs = _counting(monkeypatch, reproducer, "run_job", lambda a: a[2].root.parent.name.split("-")[0])
        pair, verdict = _mined_verdict(edit_root, "acme/editor", "python", catalog_path)
        ctx = _context_for(edit_root, "acme/editor", "python", tmp_path)
        record = stability_protocol(pair, verdict, ctx, n=5)
        assert record.stability == "reproducible"
        assert record.attempts == [(True, True)] * 5
        assert built == {"fail": 2, "pass": 2}
        assert _sides(copied) == {"fail": 4, "pass": 4}
        # the first attempt runs in the first build, every later one in its own copy; none in the reserve
        assert runs == {"failpass": 2, "copy": 8}
        assert ctx.trees_edited
        assert list(tmp.iterdir()) == []

    def test_once_jobs_edit_their_trees_each_build_is_the_reserve(self, edit_root, catalog_path, tmp_path,
                                                                 monkeypatch):
        built = _counting(monkeypatch, reproducer, "revert_project", lambda a: Path(a[3]).name)
        copied = _side_copies(monkeypatch)
        pair, verdict = _mined_verdict(edit_root, "acme/editor", "python", catalog_path)
        ctx = _context_for(edit_root, "acme/editor", "python", tmp_path)
        ctx.trees_edited = True  # an earlier pair of the command found a tree its job had changed
        record = stability_protocol(pair, verdict, ctx, n=5)
        assert record.attempts == [(True, True)] * 5
        assert built == {"fail": 1, "pass": 1}
        assert _sides(copied) == {"fail": 5, "pass": 5}

    def test_failed_restore_falls_back_to_a_fresh_copy(self, e2e_root, catalog_path, tmp_path, monkeypatch):
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        pair, verdict = _mined_verdict(e2e_root, "acme/pyproj", "python", catalog_path)
        ctx = _context_for(e2e_root, "acme/pyproj", "python", tmp_path)
        clean = stability_protocol(pair, verdict, ctx, n=5)
        built = _counting(monkeypatch, reproducer, "revert_project", lambda a: Path(a[3]).name)
        copied = _side_copies(monkeypatch)
        real = reproducer.tree_unchanged
        failed = []

        def check_failing_once(root, fingerprint):
            if failed:
                return real(root, fingerprint)
            failed.append(Path(root).name)
            raise PermissionError(errno.EACCES, "Permission denied", str(root))

        monkeypatch.setattr(reproducer, "tree_unchanged", check_failing_once)
        faulted = stability_protocol(pair, verdict, ctx, n=5)
        assert faulted == clean
        assert clean.attempts == [(True, True)] * 5
        (side,) = failed
        assert built[side] == 2 and sum(built.values()) == 3
        assert _sides(copied) == {side: 1}
        assert list(tmp.iterdir()) == []

    def test_a_reserve_that_cannot_be_built_leaves_the_pair_unreproducible(self, edit_root, catalog_path, tmp_path,
                                                                         monkeypatch):
        # the fail side's tree is edited by its first job; building it once more fails
        real = reproducer.revert_project
        builds = Counter()

        def second_fail_build_fails(coords, repo, archive_fetch, dest):
            builds[Path(dest).name] += 1
            if Path(dest).name == "fail" and builds["fail"] == 2:
                raise ConnectorError("git checkout: fatal: unable to read tree")
            return real(coords, repo, archive_fetch, dest)

        monkeypatch.setattr(reproducer, "revert_project", second_fail_build_fails)
        runs = _counting(monkeypatch, reproducer, "run_job", lambda a: a[2].root.name)
        pair, verdict = _mined_verdict(edit_root, "acme/editor", "python", catalog_path)
        ctx = _context_for(edit_root, "acme/editor", "python", tmp_path)
        sunk = []
        ctx.log_sink = lambda pid, attempt, side, text: sunk.append((attempt, side))
        record = stability_protocol(pair, verdict, ctx, n=5)
        # the fail side's first job ran and its log was kept, yet the side counts as unmatched in every attempt
        assert runs == {"fail": 1, "pass": 5} and (0, "fail") in sunk
        assert record.attempts == [(False, True)] * 5
        assert (record.stability, record.category) == ("unreproducible", None)
        assert record.unreproducibility_reason == "project_specific"
        assert builds == {"fail": 2, "pass": 2}


NOISY_LOG_BYTES = 2 << 20
NOISE_LINE = "Downloading https://repo.example.org/maven2/org/acme/lib/1.0/lib"  # 63 characters and a newline


def _noisy_script(body: str, exit_code: int) -> str:
    """A job that prints ``NOISY_LOG_BYTES`` of download lines before its test output."""
    return (f"#!/bin/sh\nyes {shlex.quote(NOISE_LINE)} | head -n {NOISY_LOG_BYTES // 64}\n"
            f"cat <<'EOG'\n{body}EOG\nexit {exit_code}\n")


class TestOneJobLogAtATime:
    def test_a_pair_holds_one_job_log_at_a_time(self, catalog_path, tmp_path):
        """Each attempt's log goes to the sink when its job ends and is not kept, so 2n logs are never held."""
        root = tmp_path / "noisy-world"
        slug = "acme/noisy"
        shas = make_repo(root / slug / "repo", [{"run_tests.sh": _noisy_script(PYTEST_FAIL_BODY, 1)},
                                                {"run_tests.sh": _noisy_script(PYTEST_PASS_BODY, 0)}])
        cfg = {"language": "python", "script": ["./run_tests.sh"]}
        write_project(root, slug, [
            build_record(501, "failed", "push", "master", "2017-02-01T00:00:00Z",
                         [job_record(5001, "failed", cfg)], trigger_sha=shas[0]),
            build_record(502, "passed", "push", "master", "2017-02-02T00:00:00Z",
                         [job_record(5002, "passed", cfg)], trigger_sha=shas[1]),
        ], {5001: wrap_original_log(PYTEST_FAIL_BODY, 1), 5002: wrap_original_log(PYTEST_PASS_BODY, 0)})
        pair, verdict = _mined_verdict(root, slug, "python", catalog_path)
        ctx = _context_for(root, slug, "python", tmp_path)
        sizes = []

        def sink(pid, attempt, side, text):
            path = tmp_path / "logs" / f"{attempt}-{side}.log"
            path.parent.mkdir(exist_ok=True)
            path.write_text(text)
            sizes.append(len(text))

        ctx.log_sink = sink
        tracemalloc.start()
        try:
            record = stability_protocol(pair, verdict, ctx, n=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert record.attempts == [(True, True)] * 5
        assert len(sizes) == 10 and min(sizes) > NOISY_LOG_BYTES
        assert peak < 6 * NOISY_LOG_BYTES, f"peak {peak / NOISY_LOG_BYTES:.1f}x the log size"


GIT_REPORTING_SCRIPT = """#!/bin/sh
git log -1 --format='%H %P'
git status --porcelain
echo 'status end'
echo edited >> a
git -c user.email=job@ci -c user.name=job commit -qam 'job commit' || exit 3
git checkout -q -b job-branch || exit 3
"""


def test_git_works_in_every_attempts_working_copy(tmp_path, monkeypatch):
    root = tmp_path / "git-world"
    repo = root / "acme" / "gitjob" / "repo"
    master = make_repo(repo, [{"a": "1\n"}, {"b": "base\n"}])
    (trigger,) = add_branch(repo, "feature", master[0], [{"c": "feat\n"}])
    push = CommitCoordinates(trigger_sha=master[1], availability=Availability.AVAILABLE,
                             recovery_source=RecoverySource.GIT_HISTORY)
    merge = CommitCoordinates(trigger_sha=trigger, base_sha=master[1], availability=Availability.AVAILABLE,
                              recovery_source=RecoverySource.GIT_HISTORY)
    pair = JobPair(project=Project("acme/gitjob", "python"), failed_build_id=1, passed_build_id=2,
                   failed_job=Job(1, Status.FAILED, "k"), passed_job=Job(2, Status.PASSED, "k"),
                   failed_commits=merge, passed_commits=push, group_key=("master", None))
    # each side needs an original and a configuration, or it builds no tree
    write_project(root, "acme/gitjob", [], {1: wrap_original_log("", 1), 2: wrap_original_log("", 0)})
    command = 'sh -c "$REPORT"'
    config = {"env": [f"REPORT={GIT_REPORTING_SCRIPT}"], "script": [command]}
    ctx = ReproductionContext(connector=FixtureConnector(root), runtime=RUNTIME, language="python",
                              raw_configs={1: config, 2: config})
    outputs = {"fail": [], "pass": []}
    real_run_job = reproducer.run_job

    def run_job_checked(script, image, tree, *args, **kwargs):
        side = tree.root.name
        assert tree.construction == ("phantom_merge" if side == "fail" else "clone_reset")
        outcome = real_run_job(script, image, tree, *args, **kwargs)
        assert outcome.exit_status == 0, outcome.log_text
        # the job's own output, between the command's echo and its exit marker
        head, body = outcome.log_text.split("\n", 1)
        assert head == f"$ {command}"
        outputs[side].append(body.split(f'The command "{command}" exited with 0.\n')[0])
        return outcome

    monkeypatch.setattr(reproducer, "run_job", run_job_checked)
    stability_protocol(pair, _verdict_with_image(pair), ctx, n=2)
    assert outputs["pass"] == [f"{master[1]} {master[0]}\nstatus end\n"] * 2
    # the merge commit of trigger into base, on each attempt, with nothing changed in the tree
    merge_sha, parents = outputs["fail"][0].split("\n")[0].split(" ", 1)
    assert len(merge_sha) == 40 and parents == f"{master[1]} {trigger}"
    assert outputs["fail"] == [f"{merge_sha} {parents}\nstatus end\n"] * 2


def test_unreproducible_reason_comes_from_the_side_that_did_not_match(catalog_path, tmp_path):
    # the fail side reproduces every time; the pass side cannot reach the network
    root = tmp_path / "net-world"
    network_script = "#!/bin/sh\necho 'Could not resolve host: pypi.org'\nexit 1\n"
    _e2e_project(root, "acme/netproj", "python", PYTEST_FAIL_BODY, PYTEST_PASS_BODY, (5001, 5002), (501, 502),
                 pass_script=network_script)
    pair, verdict = _mined_verdict(root, "acme/netproj", "python", catalog_path)
    ctx = _context_for(root, "acme/netproj", "python", tmp_path)
    record = stability_protocol(pair, verdict, ctx, n=3)
    assert record.attempts == [(True, False)] * 3
    assert (record.stability, record.unreproducibility_reason) == ("unreproducible", "stale_url_or_network")


@pytest.mark.parametrize("env", [["PAD=" + "x" * (128 * 1024)], ["PAD=a\0b"]], ids=["128KiB", "NUL"])
def test_a_script_that_cannot_be_one_argument_is_a_ci_command_issue(e2e_root, catalog_path, tmp_path, env):
    pair, verdict = _mined_verdict(e2e_root, "acme/pyproj", "python", catalog_path)
    ctx = _context_for(e2e_root, "acme/pyproj", "python", tmp_path)
    job_id = pair.failed_job.job_id
    ctx.raw_configs[job_id] = {**ctx.raw_configs[job_id], "env": env}
    record = stability_protocol(pair, verdict, ctx, n=2)
    assert record.attempts == [(False, True)] * 2
    assert (record.stability, record.unreproducibility_reason) == ("unreproducible", "ci_command_issue")


def test_unreproducible_reason_of_a_script_that_cannot_be_generated(e2e_root, catalog_path, tmp_path):
    pair, verdict = _mined_verdict(e2e_root, "acme/pyproj", "python", catalog_path)
    ctx = _context_for(e2e_root, "acme/pyproj", "python", tmp_path)
    job_id = pair.failed_job.job_id
    ctx.raw_configs[job_id] = {**ctx.raw_configs[job_id], "services": ["redis"]}
    record = stability_protocol(pair, verdict, ctx, n=2)
    assert record.attempts == [(False, True)] * 2
    assert (record.stability, record.unreproducibility_reason) == ("unreproducible", "ci_command_issue")
