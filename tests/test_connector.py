import re
import time
import zipfile
from pathlib import Path

import pytest

from failpass.connector import (
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
from conftest import (
    TREE_GIT_DIR,
    add_branch,
    commit_files,
    fake_sha,
    git,
    git_dir_entries,
    git_verb,
    make_repo,
    record_git_commands,
    write_project,
)


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


@pytest.fixture()
def two_commits(tmp_path):
    repo = tmp_path / "repo"
    return repo, make_repo(repo, [{"f": "1\n"}, {"f": "2\n"}])


class TestTreeRepository:
    """``clone_at`` writes the tree's ``.git`` itself over the source's object store and starts one git process."""

    def test_clone_at_starts_one_checkout_and_merge_tree_two_more_processes(self, tmp_path, two_commits,
                                                                          monkeypatch):
        repo, shas = two_commits
        commands = record_git_commands(monkeypatch)
        tree = clone_at(repo, shas[0], tmp_path / "tree")
        assert commands == [["git", "-C", str(tree), "checkout", "--quiet", shas[0]]]
        commands.clear()
        merged = merge_tree(repo, shas[0], shas[1], tmp_path / "merged")
        assert [git_verb(argv) for argv in commands] == ["checkout", "show", "merge"]
        assert all(argv[:3] == ["git", "-C", str(merged)] for argv in commands)

    def test_the_trees_git_dir_holds_head_config_index_alternates_and_empty_refs(self, tmp_path, two_commits):
        repo, shas = two_commits
        tree = clone_at(repo, shas[1], tmp_path / "tree")
        assert git_dir_entries(tree) == TREE_GIT_DIR
        # HEAD is detached at the commit: the tree has no branch, tag or remote
        assert (tree / ".git" / "HEAD").read_text() == f"{shas[1]}\n"
        assert git(tree, "for-each-ref").stdout == ""
        assert git(tree, "config", "--local", "--list").stdout.splitlines() == [
            "core.repositoryformatversion=0", "core.logallrefupdates=false"]

    @pytest.mark.parametrize("bare", [False, True], ids=["non-bare", "bare"])
    def test_the_tree_borrows_the_sources_object_store_and_history(self, tmp_path, two_commits, bare):
        repo, shas = two_commits
        unreachable = commit_files(repo, {"f": "3\n"}, "commit 2")
        git(repo, "reset", "-q", "--hard", shas[1])
        source, store = repo, repo / ".git" / "objects"
        if bare:
            source = tmp_path / "bare.git"
            git(tmp_path, "init", "-q", "--bare", str(source))
            git(repo, "push", "-q", str(source), f"{unreachable}:refs/heads/master")
            git(source, "update-ref", "refs/heads/master", shas[1])
            store = source / "objects"
        tree = clone_at(source, shas[1], tmp_path / "tree")
        (alternate,) = (tree / ".git" / "objects" / "info" / "alternates").read_text().splitlines()
        assert Path(alternate).is_absolute() and Path(alternate) == store.resolve()
        assert [p.name for p in (tree / ".git" / "objects").iterdir()] == ["info"]  # no object copied
        assert git(tree, "status", "--porcelain").stdout == ""
        assert git(tree, "log", "--format=%H").stdout.split() == shas[::-1]
        # a commit no ref of the source reaches, as a phantom merge's parent may be
        assert git(tree, "rev-parse", "--verify", "-q", f"{unreachable}^{{commit}}").stdout.strip() == unreachable
        assert (tree / "f").read_text() == "2\n"

    def test_a_source_with_no_object_store_raises_naming_it(self, tmp_path):
        (tmp_path / "not-a-repo").mkdir()
        for source in (tmp_path / "not-a-repo", tmp_path / "missing"):
            with pytest.raises(ConnectorError, match=f"^no git object store in {re.escape(str(source))}$"):
                clone_at(source, fake_sha(1), tmp_path / "tree")
            assert not (tmp_path / "tree").exists()

    def test_a_missing_sha_raises_gits_message_and_leaves_nothing_at_dest(self, tmp_path, two_commits):
        repo, shas = two_commits
        dest = tmp_path / "trees" / "tree"
        with pytest.raises(ConnectorError, match=r"checkout --quiet 0{40} exited with 128: fatal: "):
            clone_at(repo, "0" * 40, dest)
        assert not dest.exists()
        assert (clone_at(repo, shas[1], dest) / "f").read_text() == "2\n"

    def test_a_dest_that_exists_is_refused_and_kept(self, tmp_path, two_commits):
        repo, shas = two_commits
        dest = tmp_path / "tree"
        dest.mkdir()
        (dest / "keep").write_text("kept\n")
        with pytest.raises(ConnectorError, match=f"cannot make the tree {re.escape(str(dest))}: File exists"):
            clone_at(repo, shas[0], dest)
        assert [p.name for p in dest.iterdir()] == ["keep"]


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

    def test_a_rebuilt_phantom_merge_is_the_same_commit(self, tmp_path):
        repo = tmp_path / "repo"
        master = make_repo(repo, [{"a": "1\n"}, {"b": "base\n"}])
        (trigger,) = add_branch(repo, "feature", master[0], [{"c": "feat\n"}])
        heads = []
        for k in range(2):
            if k:
                time.sleep(1.1)  # a merge dated by the clock would get a later second
            tree = merge_tree(repo, master[1], trigger, tmp_path / f"merged-{k}")
            heads.append(git(tree, "rev-parse", "HEAD").stdout.strip())
        assert heads[0] == heads[1]
        trigger_date = git(repo, "show", "-s", "--format=%cd", "--date=raw", trigger).stdout
        assert git(tree, "show", "-s", "--format=%ad%n%cd", "--date=raw", "HEAD").stdout == trigger_date * 2

    def test_merge_drivers_of_the_base_apply(self, tmp_path):
        # union keeps both sides' lines where a plain merge of two appends to one file conflicts
        repo = tmp_path / "repo"
        (head,) = make_repo(repo, [{".gitattributes": "CHANGES merge=union\n", "CHANGES": "start\n"}])
        (base,) = add_branch(repo, "base", head, [{"CHANGES": "start\nbase line\n"}])
        (trigger,) = add_branch(repo, "feature", head, [{"CHANGES": "start\ntrigger line\n"}])
        tree = merge_tree(repo, base, trigger, tmp_path / "merged")
        assert sorted((tree / "CHANGES").read_text().splitlines()) == ["base line", "start", "trigger line"]

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
