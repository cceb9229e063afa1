import os
import stat
import subprocess
import time
import zipfile
from contextlib import nullcontext
from pathlib import Path

import pytest

from failpass import connector
from failpass.connector import (
    CloneScope,
    ConnectorError,
    CorruptArchiveError,
    FixtureConnector,
    ProjectNotFound,
    clone_at,
    commit_exists,
    make_connector,
    merge_tree,
)
from failpass.model import Status
from conftest import add_branch, fake_sha, git, git_clones, make_repo, record_git_commands, write_project


class TestFetchBuildHistory:
    def test_widgets_has_six_builds(self, widgets_root):
        builds = FixtureConnector(widgets_root).fetch_build_history("acme/widgets")
        assert len(builds) == 6

    def test_empty_fixture(self, tmp_path):
        write_project(tmp_path, "acme/empty", [])
        assert FixtureConnector(tmp_path).fetch_build_history("acme/empty") == []

    def test_canceled_status_preserved(self, widgets_root):
        builds = FixtureConnector(widgets_root).fetch_build_history("acme/widgets")
        assert any(b.status is Status.CANCELED for b in builds)

    def test_unknown_slug(self, widgets_root):
        with pytest.raises(ProjectNotFound):
            FixtureConnector(widgets_root).fetch_build_history("acme/nope")

    def test_idempotent(self, widgets_root):
        conn = FixtureConnector(widgets_root)
        assert conn.fetch_build_history("acme/widgets") == conn.fetch_build_history("acme/widgets")


class TestFetchJobLog:
    def test_present_log_round_trip(self, widgets_root):
        text = FixtureConnector(widgets_root).fetch_job_log(11)
        assert "Using worker: worker-garnet-1512502259" in text

    def test_absent_log(self, widgets_root):
        assert FixtureConnector(widgets_root).fetch_job_log(999999) is None

    def test_truncated_log_returned_as_is(self, tmp_path):
        proj = write_project(tmp_path, "acme/t", [])
        (proj / "logs").mkdir()
        (proj / "logs" / "42.txt").write_text("partial line without newline")
        assert FixtureConnector(tmp_path).fetch_job_log(42) == "partial line without newline"


class TestCommitExists:
    def test_seeded_commit_found(self, tmp_path):
        shas = make_repo(tmp_path / "repo", [{"f": "1\n"}])
        assert commit_exists(tmp_path / "repo", shas[0])

    def test_zero_sha_absent(self, tmp_path):
        make_repo(tmp_path / "repo", [{"f": "1\n"}])
        assert not commit_exists(tmp_path / "repo", "0" * 40)

    def test_missing_clone_raises(self, tmp_path):
        with pytest.raises(ConnectorError):
            commit_exists(tmp_path / "nope", "0" * 40)

    def test_history_rewrite_removes_commit(self, tmp_path):
        repo = tmp_path / "repo"
        shas = make_repo(repo, [{"f": "1\n"}, {"f": "2\n"}])
        git(repo, "reset", "--hard", shas[0])
        git(repo, "reflog", "expire", "--expire=now", "--all")
        git(repo, "gc", "--prune=now", "--aggressive", "-q")
        assert commit_exists(repo, shas[0])
        assert not commit_exists(repo, shas[1])

    def test_exists_implies_checkout_succeeds(self, tmp_path):
        repo = tmp_path / "repo"
        shas = make_repo(repo, [{"f": "1\n"}, {"f": "2\n"}])
        assert commit_exists(repo, shas[0])
        tree = clone_at(repo, shas[0], tmp_path / "co")
        assert (tree / "f").read_text() == "1\n"

    def test_clone_has_no_sample_hooks_and_is_clean(self, tmp_path):
        repo = tmp_path / "repo"
        shas = make_repo(repo, [{"f": "1\n"}, {"f": "2\n"}])
        tree = clone_at(repo, shas[0], tmp_path / "co")
        assert list((tree / ".git").glob("hooks/*.sample")) == []
        assert git(tree, "status", "--porcelain").stdout == ""

    def test_clone_and_merge_write_no_reflogs(self, tmp_path):
        repo = tmp_path / "repo"
        shas = make_repo(repo, [{"f": "1\n"}, {"f": "2\n"}])
        trees = [clone_at(repo, shas[0], tmp_path / "co"), merge_tree(repo, shas[0], shas[1], tmp_path / "merge")]
        # a job's own git commands in the tree write none either
        git(trees[0], "-c", "user.email=job@ci", "-c", "user.name=job", "commit", "-q", "--allow-empty", "-m", "job")
        for tree in trees:
            assert not (tree / ".git" / "logs").exists()

    def test_clone_borrows_the_source_objects(self, tmp_path):
        repo = tmp_path / "repo"
        shas = make_repo(repo, [{"f": "1\n"}, {"f": "2\n"}])
        # a commit no ref reaches, as a phantom merge's parent may be
        git(repo, "reset", "-q", "--hard", shas[0])
        assert [p for p in (repo / ".git" / "objects").iterdir() if len(p.name) == 2]
        tree = clone_at(repo, shas[0], tmp_path / "co")
        objects = tree / ".git" / "objects"
        assert [p.name for p in objects.iterdir() if len(p.name) == 2] == []
        (alternate,) = (objects / "info" / "alternates").read_text().split()
        assert Path(alternate).resolve() == (repo / ".git" / "objects").resolve()
        assert commit_exists(tree, shas[1])
        assert (tree / "f").read_text() == "1\n"


CLONE = ["git", "clone", "--quiet", "--template=", "--shared", "--no-checkout",
         "--config", "core.logAllRefUpdates=false"]


def files_under(root: Path) -> dict[str, tuple]:
    """Every entry under root: a directory's mode, a file's mode and bytes, a symlink's target."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        for name in dirnames + filenames:
            path = os.path.join(dirpath, name)
            st = os.lstat(path)
            rel = os.path.relpath(path, root)
            if stat.S_ISLNK(st.st_mode):
                out[rel] = ("link", os.readlink(path))
            elif stat.S_ISDIR(st.st_mode):
                out[rel] = ("dir", st.st_mode)
            else:
                out[rel] = ("file", st.st_mode, Path(path).read_bytes())
    return out


@pytest.fixture()
def two_commits(tmp_path):
    repo = tmp_path / "repo"
    return repo, make_repo(repo, [{"f": "1\n"}, {"f": "2\n"}])


class TestCloneScope:
    def test_one_clone_per_repository_and_each_tree_gets_a_copy_of_its_git_dir(self, tmp_path, two_commits,
                                                                               monkeypatch):
        repo, shas = two_commits
        other = tmp_path / "other"
        (other_sha,) = make_repo(other, [{"g": "x\n"}])
        commands = record_git_commands(monkeypatch)
        copied = []  # each tree's .git as its checkout finds it
        real_git = connector._git

        def recording_git(where, *args, **kwargs):
            if args[:1] == ("checkout",):
                copied.append(files_under(Path(where) / ".git"))
            return real_git(where, *args, **kwargs)

        monkeypatch.setattr(connector, "_git", recording_git)
        with CloneScope() as clones:
            trees = [clone_at(repo, shas[k % 2], tmp_path / f"tree-{k}", clones) for k in range(4)]
            other_tree = clone_at(other, other_sha, tmp_path / "other-tree", clones)
        clones = git_clones(commands)
        assert [argv[:-1] for argv in clones] == [[*CLONE, str(repo)], [*CLONE, str(other)]]
        assert all(Path(argv[-1]).parent.name.startswith("failpass-clones-") for argv in clones)
        fresh = tmp_path / "fresh"
        subprocess.run([*CLONE, str(repo), str(fresh)], check=True)
        assert copied[:4] == [files_under(fresh / ".git")] * 4
        for k, tree in enumerate(trees):
            assert (tree / "f").read_text() == f"{k % 2 + 1}\n"
            assert git(tree, "rev-parse", "HEAD").stdout.strip() == shas[k % 2]
            assert git(tree, "status", "--porcelain").stdout == ""
        assert (other_tree / "g").read_text() == "x\n"

    def test_trees_outlive_the_scope_and_borrow_only_the_source(self, tmp_path, two_commits):
        repo, shas = two_commits
        with CloneScope() as clones:
            tree = clone_at(repo, shas[0], tmp_path / "tree", clones)
            merged = merge_tree(repo, shas[0], shas[1], tmp_path / "merged", clones)
        for t in (tree, merged):
            (alternate,) = (t / ".git" / "objects" / "info" / "alternates").read_text().split()
            assert Path(alternate).resolve() == (repo / ".git" / "objects").resolve()
            assert git(t, "status", "--porcelain").stdout == ""
            assert not (t / ".git" / "logs").exists()
            assert list((t / ".git").glob("hooks/*.sample")) == []
        assert git(tree, "log", "--format=%H").stdout.split() == [shas[0]]
        assert git(merged, "log", "-1", "--format=%P").stdout.split() == shas

    def test_outside_a_scope_each_call_clones_into_its_destination(self, tmp_path, two_commits, monkeypatch):
        repo, shas = two_commits
        commands = record_git_commands(monkeypatch)
        trees = [clone_at(repo, sha, tmp_path / f"tree-{k}") for k, sha in enumerate(shas)]
        assert commands == [argv for tree, sha in zip(trees, shas)
                            for argv in ([*CLONE, str(repo), str(tree)], ["git", "-C", str(tree), "checkout",
                                                                          "--quiet", sha])]
        assert [(t / "f").read_text() for t in trees] == ["1\n", "2\n"]

    @pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
    def test_a_failed_git_command_raises_connector_error_with_gits_message(self, tmp_path, two_commits, scoped):
        repo, shas = two_commits
        with CloneScope() if scoped else nullcontext() as clones:
            with pytest.raises(ConnectorError, match=r"checkout --quiet 0{40} exited with 128: fatal: "):
                clone_at(repo, "0" * 40, tmp_path / "missing-sha", clones)
            with pytest.raises(ConnectorError, match=r"git clone .* exited with 128: fatal: "):
                clone_at(tmp_path / "no-repo", shas[0], tmp_path / "missing-repo", clones)
            # a failed clone is not remembered: the scope clones the repository when asked again
            assert (clone_at(repo, shas[1], tmp_path / "tree", clones) / "f").read_text() == "2\n"

    def test_a_failed_scope_removes_its_clones(self, tmp_path, two_commits):
        repo, shas = two_commits
        with pytest.raises(ConnectorError):
            with CloneScope() as clones:
                clone_at(repo, shas[0], tmp_path / "tree", clones)
                clone_at(repo, "0" * 40, tmp_path / "bad", clones)
        # the leak guard fails the test if a failpass-clones-* directory is left; the tree itself stays
        assert (tmp_path / "tree" / "f").read_text() == "1\n"


class TestMergeTree:
    def test_merge_starts_no_maintenance(self, tmp_path, two_commits, monkeypatch):
        repo, shas = two_commits
        trace = tmp_path / "trace"
        monkeypatch.setenv("GIT_TRACE", str(trace))
        merge_tree(repo, shas[0], shas[1], tmp_path / "merged")
        # each git process logs its own argv ("built-in:"), and each one it starts ("run_command:")
        started = [line for line in trace.read_text().splitlines() if "built-in:" in line or "run_command:" in line]
        assert any(" merge " in line for line in started)
        assert [line for line in started if "maintenance" in line] == []

    @pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
    def test_a_rebuilt_phantom_merge_is_the_same_commit(self, tmp_path, scoped):
        repo = tmp_path / "repo"
        master = make_repo(repo, [{"a": "1\n"}, {"b": "base\n"}])
        (trigger,) = add_branch(repo, "feature", master[0], [{"c": "feat\n"}])
        heads = []
        with CloneScope() if scoped else nullcontext() as clones:
            for k in range(2):
                if k:
                    time.sleep(1.1)  # a merge dated by the clock would get a later second
                tree = merge_tree(repo, master[1], trigger, tmp_path / f"merged-{k}", clones)
                heads.append(git(tree, "rev-parse", "HEAD").stdout.strip())
        assert heads[0] == heads[1]
        trigger_date = git(repo, "show", "-s", "--format=%cd", "--date=raw", trigger).stdout
        assert git(tree, "show", "-s", "--format=%ad%n%cd", "--date=raw", "HEAD").stdout == trigger_date * 2

    def test_failed_merges_raise_connector_error_and_remove_the_tree(self, tmp_path):
        repo = tmp_path / "repo"
        (head,) = make_repo(repo, [{"a": "1\n"}])
        (base,) = add_branch(repo, "base", head, [{"a": "base\n"}])
        (feature,) = add_branch(repo, "feature", head, [{"a": "feature\n"}])
        cases = [(fake_sha(0xB), feature, r"checkout --quiet 0+b exited with 128: fatal: "),
                 (base, fake_sha(0xF), r"show -s .* exited with 128: fatal: "),
                 (base, feature, r"(?s)merge .* exited with 1: .*CONFLICT")]
        for k, (b, t, message) in enumerate(cases):
            with pytest.raises(ConnectorError, match=message):
                merge_tree(repo, b, t, tmp_path / f"merge-{k}")
            if k:  # the base was checked out, so the tree existed and is removed
                assert not (tmp_path / f"merge-{k}").exists()


class TestArchiveSnapshot:
    def test_archived_sha_extracts(self, widgets_root, tmp_path):
        conn = FixtureConnector(widgets_root)
        root = conn.fetch_archive_snapshot("acme/widgets", fake_sha(0xBB1), tmp_path / "x")
        assert root is not None
        assert any(root.rglob("*"))

    def test_unarchived_sha_is_absent(self, widgets_root, tmp_path):
        conn = FixtureConnector(widgets_root)
        assert conn.fetch_archive_snapshot("acme/widgets", fake_sha(0xDEAD), tmp_path / "x") is None

    def test_zip_without_top_dir_is_corrupt(self, tmp_path):
        proj = write_project(tmp_path, "acme/z", [])
        (proj / "archive").mkdir()
        sha = fake_sha(1)
        with zipfile.ZipFile(proj / "archive" / f"{sha}.zip", "w") as zf:
            zf.writestr("loose-root-file.txt", "data")
        with pytest.raises(CorruptArchiveError):
            FixtureConnector(tmp_path).fetch_archive_snapshot("acme/z", sha, tmp_path / "x")

    def test_non_zip_is_corrupt(self, tmp_path):
        proj = write_project(tmp_path, "acme/z", [])
        (proj / "archive").mkdir()
        sha = fake_sha(2)
        (proj / "archive" / f"{sha}.zip").write_bytes(b"not a zip")
        with pytest.raises(CorruptArchiveError):
            FixtureConnector(tmp_path).fetch_archive_snapshot("acme/z", sha, tmp_path / "x")


def test_make_connector_env_forces_fixture(widgets_root, monkeypatch):
    monkeypatch.setenv("FAILPASS_FIXTURE_DIR", str(widgets_root))
    conn = make_connector()
    assert isinstance(conn, FixtureConnector)


def test_make_connector_unconfigured(monkeypatch):
    monkeypatch.delenv("FAILPASS_FIXTURE_DIR", raising=False)
    with pytest.raises(ConnectorError):
        make_connector()
