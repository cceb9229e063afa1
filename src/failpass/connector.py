"""Uniform access to CI build histories, job logs, git repositories, and archives.

The one backend reads a local directory tree: one directory per project
with ``builds.json``, ``logs/<job_id>.txt``, ``archive/<sha>.zip`` and a
git repository, bare or not, in ``repo/``. That layout is the interchange
format for data exported from a CI service and a code host. The directory
comes from ``--fixture`` or FAILPASS_FIXTURE_DIR.
"""

from __future__ import annotations

import json
import os
import shlex
import shutil
import subprocess
import zipfile
from pathlib import Path
from typing import Iterable, Optional

from .model import SHA_RE, Build, Event, Job, Status, config_fingerprint, parse_timestamp, replace_file


class ConnectorError(Exception):
    pass


class ProjectNotFound(ConnectorError):
    pass


class CorruptArchiveError(ConnectorError):
    pass


def build_from_record(record: dict) -> Build:
    """Construct a Build from one builds.json record."""
    jobs = tuple(
        Job(
            job_id=j["job_id"],
            status=Status(j["status"]),
            config_key=config_fingerprint(j["config"]),
            log_ref=j.get("log"),
        )
        for j in record.get("jobs", [])
    )
    return Build(
        build_id=record["build_id"],
        status=Status(record["status"]),
        event=Event(record["event"]),
        branch=record.get("branch"),
        pr_number=record.get("pr_number"),
        committed_at=parse_timestamp(record["committed_at"]),
        jobs=jobs,
        raw_trigger_sha=record.get("trigger_sha"),
        merge_message=record.get("merge_message"),
    )


class FixtureConnector:
    """Reads build histories, logs, and archive snapshots from a directory."""

    def __init__(self, root: os.PathLike):
        self.root = Path(root)
        if not self.root.is_dir():
            raise ConnectorError(f"fixture directory not found: {self.root}")
        self._log_index: Optional[dict[int, list[Path]]] = None

    def project_dir(self, slug: str) -> Path:
        d = self.root / slug
        if not d.is_dir():
            raise ProjectNotFound(f"project not found: {slug}")
        return d

    def _read_builds(self, slug: str) -> tuple[list[dict], list[Build]]:
        """``builds.json``'s records and Builds; ConnectorError names a non-array file or a bad record (from 1)."""
        path = self.project_dir(slug) / "builds.json"
        try:
            records = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise ConnectorError(f"{path}: {type(exc).__name__}: {exc}") from None
        if not isinstance(records, list):
            raise ConnectorError(f"{path}: not a JSON array of build records")
        builds = []
        for n, record in enumerate(records, 1):
            try:
                builds.append(build_from_record(record))
            except (ValueError, TypeError, KeyError, AttributeError) as exc:
                raise ConnectorError(f"{path}, record {n}: {type(exc).__name__}: {exc}") from None
        return records, builds

    def fetch_build_history(self, slug: str) -> list[Build]:
        """The project's builds; an unreadable file or record raises ConnectorError naming it."""
        return self._read_builds(slug)[1]

    def fetch_raw_records(self, slug: str) -> list[dict]:
        """The project's build records as ``builds.json`` holds them, each checked as ``fetch_build_history`` does."""
        return self._read_builds(slug)[0]

    def _index_logs(self) -> dict[int, list[Path]]:
        if self._log_index is None:
            self._log_index = {}
            for path in self.root.glob("*/*/logs/*.txt"):
                try:
                    self._log_index.setdefault(int(path.stem), []).append(path)
                except ValueError:
                    continue
        return self._log_index

    def fetch_job_log(self, job_id: int) -> Optional[str]:
        """The job's log, None if no project has one; ConnectorError if there is more than one."""
        paths = self._index_logs().get(job_id, [])
        if len(paths) > 1:
            raise ConnectorError(f"job {job_id} has more than one log: {' and '.join(map(str, sorted(paths)))}")
        return paths[0].read_bytes().decode("utf-8", errors="replace") if paths else None

    def repo_path(self, slug: str) -> Optional[Path]:
        d = self.project_dir(slug) / "repo"
        return d if d.is_dir() else None

    def fetch_archive_snapshot(self, slug: str, sha: str, dest: os.PathLike) -> Optional[Path]:
        """Extract the archive of ``sha`` under ``dest`` and return its content root; None if not archived."""
        zpath = self.project_dir(slug) / "archive" / f"{sha}.zip"
        if not zpath.is_file():
            return None
        return extract_archive(zpath, dest)

    def archive_has(self, slug: str, sha: str) -> bool:
        return (self.project_dir(slug) / "archive" / f"{sha}.zip").is_file()


def extract_archive(zpath: Path, dest: os.PathLike) -> Path:
    """Extract a code-host style zip (single top-level dir) under ``dest``; return that directory."""
    try:
        with zipfile.ZipFile(zpath) as zf:
            names = [n for n in zf.namelist() if n]
            tops = {n.split("/", 1)[0] for n in names}
            if not names or len(tops) != 1 or any("/" not in n for n in names):
                raise CorruptArchiveError(f"corrupt archive: {zpath.name} lacks a single top-level directory")
            zf.extractall(dest)
    except zipfile.BadZipFile as exc:
        raise CorruptArchiveError(f"corrupt archive: {zpath.name}") from exc
    (top,) = tops
    root = Path(dest) / top
    if not root.is_dir() or not any(root.iterdir()):
        raise CorruptArchiveError(f"corrupt archive: {zpath.name} extracted empty")
    return root


# --- git helpers -----------------------------------------------------------


def _run_git(argv: list[str], env: Optional[dict[str, str]] = None,
             input: Optional[str] = None) -> subprocess.CompletedProcess:
    """Run one git command; a failure raises ConnectorError with the command and git's stderr (or stdout)."""
    result = subprocess.run(argv, capture_output=True, text=True, env=env, input=input)
    if result.returncode != 0:
        output = (result.stderr or result.stdout).strip()
        raise ConnectorError(f"{shlex.join(argv)} exited with {result.returncode}: {output}")
    return result


def _git(repo: os.PathLike, *args: str, check: bool = True, env: Optional[dict[str, str]] = None,
         input: Optional[str] = None) -> subprocess.CompletedProcess:
    argv = ["git", "-C", str(repo), *args]
    if check:
        return _run_git(argv, env, input)
    return subprocess.run(argv, capture_output=True, text=True, env=env, input=input)


def commit_exists(repo, sha: str) -> bool:
    """True iff sha resolves to a commit in the local clone.

    ``repo`` is the clone's path, or the ``known_commits`` of it, which
    answers without starting a git process.
    """
    if isinstance(repo, frozenset):
        return sha in repo
    if not Path(repo).exists():
        raise ConnectorError(f"repository clone missing: {repo}")
    result = _git(repo, "cat-file", "-e", f"{sha}^{{commit}}", check=False)
    return result.returncode == 0


def known_commits(repo: os.PathLike, shas: Iterable[str]) -> frozenset[str]:
    """The shas that ``commit_exists`` finds in the local clone, looked up by one ``git cat-file --batch-check``.

    Each distinct sha is sent once as ``<sha>^{commit}``: a commit no ref
    reaches and a tag that peels to a commit count, a tree, a blob and a
    missing object do not. A name that is not a 40-hex sha raises ValueError
    before any process starts, and no sha at all starts none; a failed git
    command raises ConnectorError.
    """
    names = sorted(set(shas))
    for sha in names:
        if not SHA_RE.fullmatch(sha):
            raise ValueError(f"not a 40-hex sha: {sha!r}")
    if not names:
        return frozenset()
    answers = _git(repo, "cat-file", "--batch-check=%(objecttype)",
                   input="".join(f"{sha}^{{commit}}\n" for sha in names)).stdout.splitlines()
    # one answer a line, in order; any other than "commit" ends in " missing"
    return frozenset(sha for sha, answer in zip(names, answers) if answer == "commit")


def clone_at(repo: os.PathLike, sha: str, dest: os.PathLike) -> Path:
    """Make ``dest`` a repository that borrows the source's objects, and check out sha.

    ``dest/.git`` is written here: ``HEAD`` names an unborn branch,
    ``config`` turns off reflogs, which nothing reads, for every git command
    in the tree, ``objects/info/alternates`` holds the absolute path of the
    source's object store (``repo/.git/objects``, or ``repo/objects`` of a
    bare repository) and ``refs/`` is empty. One ``git checkout`` then
    detaches HEAD at sha and writes sha's files and the index, once. No
    object is copied and every object of the source stays reachable, commits
    no ref reaches included; the tree has no branch, tag or remote. A source
    with no object store, a ``dest`` that cannot be made or a failed checkout
    raises ConnectorError, and a failure after ``dest`` was made removes it.
    """
    repo, dest = Path(repo), Path(dest)
    store = next((d for d in (repo / ".git" / "objects", repo / "objects") if d.is_dir()), None)
    if store is None:
        raise ConnectorError(f"no git object store in {repo}")
    try:
        dest.mkdir(parents=True)
    except OSError as exc:
        raise ConnectorError(f"cannot make the tree {dest}: {exc.strerror}") from exc
    git_dir = dest / ".git"
    try:
        (git_dir / "objects" / "info").mkdir(parents=True)
        (git_dir / "refs").mkdir()
        for name, text in (("HEAD", "ref: refs/heads/master\n"),
                           ("config", "[core]\n\trepositoryformatversion = 0\n\tlogAllRefUpdates = false\n"),
                           ("objects/info/alternates", f"{store.resolve()}\n")):
            replace_file(git_dir / name, [text.encode()])
    except OSError as exc:
        shutil.rmtree(dest, ignore_errors=True)
        raise ConnectorError(f"writing {git_dir}: {exc}") from exc
    try:
        _git(dest, "checkout", "--quiet", sha)
    except ConnectorError:
        shutil.rmtree(dest, ignore_errors=True)
        raise
    return dest


def merge_tree(repo: os.PathLike, base_sha: str, trigger_sha: str, dest: os.PathLike) -> Path:
    """Recreate a service-style temporary merge of trigger into base.

    The merge commit's author and committer dates are the trigger's
    committer date, so every build of the same coordinates gives the same
    commit. The merge starts no background maintenance. A failed git
    command, a conflict included, raises ConnectorError and removes ``dest``.
    """
    dest = clone_at(repo, base_sha, dest)
    try:
        date = _git(dest, "show", "-s", "--format=%cd", "--date=raw", f"{trigger_sha}^{{commit}}").stdout.strip()
        _git(dest, "-c", "user.email=failpass@localhost", "-c", "user.name=failpass", "-c", "maintenance.auto=false",
             "merge", "--no-ff", "--no-edit", "-m", f"Merge {trigger_sha} into {base_sha}", trigger_sha,
             env={**os.environ, "GIT_AUTHOR_DATE": date, "GIT_COMMITTER_DATE": date})
    except ConnectorError:
        shutil.rmtree(dest, ignore_errors=True)
        raise
    return dest


def make_connector(fixture_dir: Optional[os.PathLike] = None) -> FixtureConnector:
    """The fixture backend at the explicit directory or FAILPASS_FIXTURE_DIR."""
    fixture_dir = fixture_dir or os.environ.get("FAILPASS_FIXTURE_DIR")
    if fixture_dir:
        return FixtureConnector(fixture_dir)
    raise ConnectorError("no backend configured: pass --fixture or set FAILPASS_FIXTURE_DIR")
