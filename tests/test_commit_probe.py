"""The batch commit probe answers exactly as ``git cat-file -e``, and mining leaves no git process behind."""

from __future__ import annotations

import hashlib
import subprocess

import pytest
from hypothesis import given, settings, strategies as st

from failpass import miner
from failpass.connector import CommitProbe, ConnectorError, FixtureConnector, commit_exists
from conftest import git, make_repo

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
        "tag_object": tag_object, "loose_commit": loose_commit, "twin_prefix": written[0][:4],
        "objects": objects, "refs": ["HEAD", "master", "topic", "v1", "refs/heads/topic", "refs/tags/v1"],
    }


def _outcome(lookup, name):
    try:
        return lookup(name)
    except Exception as exc:  # the exception itself must match, not only the answer
        return type(exc), str(exc)


class TestAnswers:
    def test_each_kind_of_name_through_one_process(self, world, monkeypatch):
        started = _record_cat_file(monkeypatch)
        repo = world["repo"]
        expected = {
            world["commits"][0]: True,
            world["commits"][1][:7]: True,
            world["unreachable"]: True,
            world["tag_object"]: True,
            "v1": True,
            world["loose_commit"][:4]: True,
            world["tree"]: False,
            world["blob"]: False,
            "0" * 40: False,
            world["twin_prefix"]: False,
            "no-such-branch": False,
        }
        with CommitProbe(repo) as probe:
            answers = {name: probe.exists(name) for name in expected}
        assert answers == expected
        assert [p.args[-1] for p in started] == ["--batch-check=%(objecttype)"]
        assert {name: commit_exists(repo, name) for name in expected} == expected

    def test_missing_clone_raises(self, tmp_path):
        repo = tmp_path / "repo"
        sha = make_repo(repo, [{"f": "1\n"}])[0]
        with CommitProbe(repo) as probe:
            assert probe.exists(sha)
            repo.rename(tmp_path / "moved")
            with pytest.raises(ConnectorError):
                probe.exists(sha)

    def test_git_dying_on_a_name_does_not_end_the_probe(self, world):
        repo, sha = world["repo"], world["commits"][0]
        with CommitProbe(repo) as probe:
            # master has no upstream: git dies on the name, in batch mode too
            assert probe.exists("@{upstream}") is False
            assert probe.exists(sha) is True


SUFFIXES = ["", "^{}", "^{commit}", "^{tree}", "^", "~1", ":", ":f", "@{0}", "@{-1}", "@{upstream}",
            " ", "\t", "\n", "\r", "\0", "\nHEAD"]
PREFIXES = ["", " ", "-", ":", ":/", "\n", "^", "\ud800"]


@st.composite
def names(draw, world):
    known = world["objects"] + world["refs"]
    base = draw(st.one_of(
        st.sampled_from(known),
        st.builds(lambda sha, n: sha[:n], st.sampled_from(world["objects"]), st.integers(1, 40)),
        st.sampled_from(known).map(str.upper),
        st.text(st.sampled_from("0123456789abcdef ^{}:~@/-\n\r\t\0xHEAD"), max_size=12),
        st.text(max_size=8),
    ))
    return draw(st.sampled_from(PREFIXES)) + base + draw(st.sampled_from(SUFFIXES))


@pytest.fixture(scope="module")
def shared_probe(world):
    with CommitProbe(world["repo"]) as probe:
        yield probe


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_batch_probe_agrees_with_one_shot(world, shared_probe, data):
    name = data.draw(names(world))
    assert _outcome(shared_probe.exists, name) == _outcome(lambda n: commit_exists(world["repo"], n), name)


def _record_cat_file(monkeypatch) -> list[subprocess.Popen]:
    """Every ``git cat-file`` process started from now on, one-shot or batch."""
    started = []

    class Recording(subprocess.Popen):
        def __init__(self, args, *rest, **kwargs):
            super().__init__(args, *rest, **kwargs)
            if "cat-file" in args:
                started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recording)
    return started


class TestMiningLifecycle:
    def test_one_process_per_project_gone_on_return(self, widgets_root, monkeypatch):
        calls = []
        real = miner.commit_exists
        monkeypatch.setattr(miner, "commit_exists", lambda repo, sha: calls.append(sha) or real(repo, sha))
        started = _record_cat_file(monkeypatch)
        pairs = miner.mine("acme/widgets", FixtureConnector(widgets_root), language="java")
        assert len(pairs) == 2
        assert len(calls) > 1
        assert len(started) == 1
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
        started = _record_cat_file(monkeypatch)
        with pytest.raises(RuntimeError, match="stop"):
            miner.mine("acme/widgets", FixtureConnector(widgets_root), language="java")
        assert len(started) == 1
        assert started[0].returncode is not None
