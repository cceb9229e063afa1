"""``known_commits`` answers exactly as one-shot ``commit_exists``, and mining starts one git process per project."""

from __future__ import annotations

import hashlib
import re
import subprocess

import pytest
from hypothesis import given, settings, strategies as st

from failpass import miner
from failpass.connector import ConnectorError, FixtureConnector, commit_exists, known_commits
from failpass.model import RecoverySource
from conftest import build_record, fake_sha, git, job_record, make_repo, make_zip, write_project

IDENT = "A U Thor <a@u> 1500000000 +0000"


def _object_sha(kind: str, body: bytes) -> str:
    return hashlib.sha1(f"{kind} {len(body)}\0".encode() + body).hexdigest()


def _write_object(repo, kind: str, body: bytes) -> str:
    out = subprocess.run(["git", "-C", str(repo), "hash-object", "-w", "-t", kind, "--stdin"],
                         input=body, capture_output=True, check=True)
    return out.stdout.decode().strip()


def _with_shared_prefix(kind: str, make_body, prefixes: set[str]) -> bytes:
    """The first ``make_body(i)`` whose object id starts with one of the 4-hex ``prefixes``."""
    i = 0
    while _object_sha(kind, make_body(i))[:4] not in prefixes:
        i += 1
    return make_body(i)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A clone with every kind of name a lookup can meet, and the names themselves."""
    with pytest.MonkeyPatch.context() as mp:
        # fixed dates make every object id, and so every shared prefix below, the same on each run
        for var in ("GIT_AUTHOR_DATE", "GIT_COMMITTER_DATE"):
            mp.setenv(var, "1500000000 +0000")
        return _build_world(tmp_path_factory.mktemp("probe") / "repo")


def _build_world(repo):
    shas = make_repo(repo, [{"f": "1\n"}, {"f": "2\n", "d/g": "x\n"}])
    git(repo, "branch", "topic", shas[0])
    git(repo, "tag", "-a", "v1", "-m", "release", shas[0])
    tree = git(repo, "rev-parse", "HEAD^{tree}").stdout.strip()
    unreachable = git(repo, "commit-tree", tree, "-p", shas[1], "-m", "phantom merge").stdout.strip()
    blob = git(repo, "rev-parse", "HEAD:f").stdout.strip()
    tag_object = git(repo, "rev-parse", "v1").stdout.strip()

    # Short prefixes shared by two objects: two blobs (ambiguous, no commit among them), and a
    # blob with an unreachable commit (a commit lookup prefers the commit). Found by hashing
    # here, so the objects are the same on every run.
    blob_bodies = [f"blob {i}\n".encode() for i in range(300)]
    blob_prefixes = {}
    for body in blob_bodies:
        blob_prefixes.setdefault(_object_sha("blob", body)[:4], []).append(body)
    twin_blobs = next(bodies for bodies in blob_prefixes.values() if len(bodies) == 2)
    commit_body = _with_shared_prefix(
        "commit", lambda i: f"tree {tree}\nauthor {IDENT}\ncommitter {IDENT}\n\nloose {i}\n".encode(),
        set(blob_prefixes))
    loose_commit = _write_object(repo, "commit", commit_body)
    written = [_write_object(repo, "blob", body) for body in twin_blobs]
    written.append(_write_object(repo, "blob", blob_prefixes[loose_commit[:4]][0]))
    objects = [*shas, unreachable, tree, blob, tag_object, loose_commit, *written]
    return {
        "repo": repo, "commits": shas, "unreachable": unreachable, "tree": tree, "blob": blob,
        "tag_object": tag_object, "loose_commit": loose_commit, "prefix_blobs": written, "objects": objects,
    }


class TestAnswers:
    def test_each_kind_of_name_through_one_process(self, world, monkeypatch):
        started = _record_git(monkeypatch)
        repo = world["repo"]
        expected = {
            world["commits"][0]: True,
            world["commits"][1]: True,
            world["unreachable"]: True,
            world["tag_object"]: True,
            world["loose_commit"]: True,
            world["tree"]: False,
            world["blob"]: False,
            "0" * 40: False,
            **dict.fromkeys(world["prefix_blobs"], False),
        }
        names = [*expected, *expected]  # each sent once all the same
        assert known_commits(repo, names) == {name for name, found in expected.items() if found}
        assert [p.args[-1] for p in started] == ["--batch-check=%(objecttype)"]
        assert {name: commit_exists(repo, name) for name in expected} == expected

    def test_missing_clone_raises(self, tmp_path):
        repo = tmp_path / "repo"
        sha = make_repo(repo, [{"f": "1\n"}])[0]
        assert known_commits(repo, [sha]) == {sha}
        repo.rename(tmp_path / "moved")
        command = f"git -C {repo} cat-file '--batch-check=%(objecttype)'"
        with pytest.raises(ConnectorError, match=re.escape(f"{command} exited with 128: fatal: cannot change to")):
            known_commits(repo, [sha])

    @pytest.mark.parametrize("name", ["HEAD", "master", "v1", "abc1234", "0" * 39, "0" * 41, "A" * 40,
                                      "0" * 39 + "\n", " " + "0" * 40, "0" * 40 + "^{commit}"])
    def test_a_name_that_is_no_sha_raises_before_any_process(self, world, monkeypatch, name):
        started = _record_git(monkeypatch)
        with pytest.raises(ValueError, match="not a 40-hex sha"):
            known_commits(world["repo"], [world["commits"][0], name])
        assert started == []

    def test_no_name_starts_no_process(self, world, monkeypatch):
        started = _record_git(monkeypatch)
        assert known_commits(world["repo"], []) == frozenset()
        assert started == []


@st.composite
def shas(draw, world):
    """A 40-hex name: one of the fixture's objects, or any other."""
    return draw(st.one_of(st.sampled_from(world["objects"]),
                          st.text(st.sampled_from("0123456789abcdef"), min_size=40, max_size=40)))


@pytest.fixture(scope="module")
def one_shot(world):
    """``commit_exists(repo, sha)`` on the world's clone, each name looked up once."""
    answers = {}

    def lookup(sha):
        if sha not in answers:
            answers[sha] = commit_exists(world["repo"], sha)
        return answers[sha]
    return lookup


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_batch_probe_agrees_with_one_shot(world, one_shot, data):
    names = data.draw(st.lists(shas(world), max_size=8))
    names += data.draw(st.lists(st.sampled_from(names), max_size=3)) if names else []  # repeated names
    assert known_commits(world["repo"], names) == {name for name in names if one_shot(name)}


def _record_git(monkeypatch) -> list[subprocess.Popen]:
    """Every git process started from now on."""
    started = []

    class Recording(subprocess.Popen):
        def __init__(self, args, *rest, **kwargs):
            super().__init__(args, *rest, **kwargs)
            if args[0] == "git":
                started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recording)
    return started


class TestMiningLifecycle:
    def test_one_process_per_project_gone_on_return(self, widgets_root, monkeypatch):
        calls = []
        real = miner.commit_exists
        monkeypatch.setattr(miner, "commit_exists", lambda repo, sha: calls.append(sha) or real(repo, sha))
        started = _record_git(monkeypatch)
        pairs = miner.mine("acme/widgets", FixtureConnector(widgets_root), language="java")
        assert len(pairs) == 2
        assert len(calls) > 1
        assert [p.args[-1] for p in started] == ["--batch-check=%(objecttype)"]
        assert started[0].returncode is not None

    def test_process_gone_when_mining_raises(self, widgets_root, monkeypatch):
        real = miner.assign_commits
        seen = []

        def assign_then_fail(build, repo, archive_has):
            seen.append(real(build, repo, archive_has))
            if len(seen) == 2:
                raise RuntimeError("stop")
            return seen[-1]

        monkeypatch.setattr(miner, "assign_commits", assign_then_fail)
        started = _record_git(monkeypatch)
        with pytest.raises(RuntimeError, match="stop"):
            miner.mine("acme/widgets", FixtureConnector(widgets_root), language="java")
        assert len(started) == 1
        assert started[0].returncode is not None

    def test_no_process_for_a_project_without_a_clone(self, tmp_path, monkeypatch):
        cfg = {"language": "python", "script": ["sh run_tests.sh"]}
        shas = fake_sha(0x5A1), fake_sha(0x5A2)
        write_project(tmp_path, "acme/zipped", [
            build_record(1 + k, status, "push", "master", f"2017-01-0{1 + k}T00:00:00Z",
                         [job_record(10 + k, status, cfg)], trigger_sha=sha)
            for k, (status, sha) in enumerate(zip(("failed", "passed"), shas))
        ])
        for sha in shas:
            make_zip(tmp_path / "acme" / "zipped", sha, {"run_tests.sh": "exit 0\n"})
        started = _record_git(monkeypatch)
        (pair,) = miner.mine("acme/zipped", FixtureConnector(tmp_path))
        assert pair.failed_commits.recovery_source is RecoverySource.ARCHIVE
        assert started == []
