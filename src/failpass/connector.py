"""Uniform access to CI build histories, job logs, git clones, and archives.

The one backend reads a local directory tree: one directory per project
with ``builds.json``, ``logs/<job_id>.txt``, ``archive/<sha>.zip`` and a
git clone in ``repo/``. That layout is the interchange format for data
exported from a CI service and a code host. The directory comes from
``--fixture`` or FAILPASS_FIXTURE_DIR.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import tempfile
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .model import Build, Event, Job, Status, config_fingerprint, parse_timestamp


class ConnectorError(Exception):
    pass


class ProjectNotFound(ConnectorError):
    pass


class CorruptArchiveError(ConnectorError):
    pass


@dataclass(frozen=True)
class SnapshotRef:
    sha: str
    content_root: Path


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
        self._log_index: Optional[dict[int, Path]] = None

    def project_dir(self, slug: str) -> Path:
        d = self.root / slug
        if not d.is_dir():
            raise ProjectNotFound(f"project not found: {slug}")
        return d

    def fetch_build_history(self, slug: str) -> list[Build]:
        path = self.project_dir(slug) / "builds.json"
        if not path.is_file():
            raise ProjectNotFound(f"project not found: {slug}")
        records = json.loads(path.read_text())
        return [build_from_record(r) for r in records]

    def fetch_raw_records(self, slug: str) -> list[dict]:
        return json.loads((self.project_dir(slug) / "builds.json").read_text())

    def _index_logs(self) -> dict[int, Path]:
        if self._log_index is None:
            self._log_index = {}
            for path in self.root.glob("*/*/logs/*.txt"):
                try:
                    self._log_index[int(path.stem)] = path
                except ValueError:
                    continue
        return self._log_index

    def fetch_job_log(self, job_id: int) -> Optional[str]:
        path = self._index_logs().get(job_id)
        if path is None:
            return None
        return path.read_bytes().decode("utf-8", errors="replace")

    def repo_path(self, slug: str) -> Optional[Path]:
        d = self.project_dir(slug) / "repo"
        return d if d.is_dir() else None

    def fetch_archive_snapshot(self, slug: str, sha: str, dest: Optional[os.PathLike] = None) -> Optional[SnapshotRef]:
        zpath = self.project_dir(slug) / "archive" / f"{sha}.zip"
        if not zpath.is_file():
            return None
        return extract_archive(zpath, sha, dest)

    def archive_has(self, slug: str, sha: str) -> bool:
        return (self.project_dir(slug) / "archive" / f"{sha}.zip").is_file()


def extract_archive(zpath: Path, sha: str, dest: Optional[os.PathLike] = None) -> SnapshotRef:
    """Extract a code-host style zip (single top-level dir) to a tree."""
    out = Path(dest) if dest is not None else Path(tempfile.mkdtemp(prefix="failpass-snap-"))
    try:
        with zipfile.ZipFile(zpath) as zf:
            names = [n for n in zf.namelist() if n]
            tops = {n.split("/", 1)[0] for n in names}
            if not names or len(tops) != 1 or any("/" not in n for n in names):
                raise CorruptArchiveError(f"corrupt archive: {zpath.name} lacks a single top-level directory")
            zf.extractall(out)
    except zipfile.BadZipFile as exc:
        raise CorruptArchiveError(f"corrupt archive: {zpath.name}") from exc
    (top,) = tops
    root = out / top
    if not root.is_dir() or not any(root.iterdir()):
        raise CorruptArchiveError(f"corrupt archive: {zpath.name} extracted empty")
    return SnapshotRef(sha=sha, content_root=root)


# --- git helpers -----------------------------------------------------------


def _git(repo: os.PathLike, *args: str, check: bool = True) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", "-C", str(repo), *args],
        capture_output=True,
        text=True,
        check=check,
    )


def commit_exists(repo: os.PathLike, sha: str) -> bool:
    """True iff sha resolves to a commit in the local clone."""
    if not Path(repo).exists():
        raise ConnectorError(f"repository clone missing: {repo}")
    result = _git(repo, "cat-file", "-e", f"{sha}^{{commit}}", check=False)
    return result.returncode == 0


def clone_at(repo: os.PathLike, sha: str, dest: os.PathLike) -> Path:
    """Clone a local repository and hard-reset the tree to sha.

    The empty template leaves out git's inactive sample hooks, which every
    per-attempt copy of the tree would otherwise copy too.
    """
    dest = Path(dest)
    subprocess.run(["git", "clone", "--quiet", "--template=", str(repo), str(dest)],
                   capture_output=True, text=True, check=True)
    _git(dest, "checkout", "--quiet", sha)
    return dest


def merge_tree(repo: os.PathLike, base_sha: str, trigger_sha: str, dest: os.PathLike) -> Path:
    """Recreate a service-style temporary merge of trigger into base."""
    dest = clone_at(repo, base_sha, dest)
    result = _git(
        dest,
        "-c", "user.email=failpass@localhost", "-c", "user.name=failpass",
        "merge", "--no-ff", "--no-edit", "-m", f"Merge {trigger_sha} into {base_sha}",
        trigger_sha,
        check=False,
    )
    if result.returncode != 0:
        shutil.rmtree(dest, ignore_errors=True)
        raise ConnectorError(f"merge conflict recreating merge of {trigger_sha} into {base_sha}")
    return dest


def make_connector(fixture_dir: Optional[os.PathLike] = None) -> FixtureConnector:
    """The fixture backend at the explicit directory or FAILPASS_FIXTURE_DIR."""
    fixture_dir = fixture_dir or os.environ.get("FAILPASS_FIXTURE_DIR")
    if fixture_dir:
        return FixtureConnector(fixture_dir)
    raise ConnectorError("no backend configured: pass --fixture or set FAILPASS_FIXTURE_DIR")
