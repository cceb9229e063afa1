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
from conftest import fake_sha, git, make_repo, write_project


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
