"""Uniform access to CI build histories, job logs, git clones, and archives.

Two interchangeable backends: a fixture backend reading a local directory
tree (one directory per project with ``builds.json``, ``logs/<job_id>.txt``
and ``archive/<sha>.zip``), and a live backend talking to a CI REST
endpoint with retry/backoff. Setting FAILPASS_FIXTURE_DIR forces the
fixture backend.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import tempfile
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .model import Build, Event, Job, Status, config_fingerprint, parse_timestamp


class ConnectorError(Exception):
    pass


class ProjectNotFound(ConnectorError):
    pass


class RetryableError(ConnectorError):
    """Transient fetch failure; distinct from a genuinely absent resource."""


class CorruptArchiveError(ConnectorError):
    pass


@dataclass(frozen=True)
class SnapshotRef:
    sha: str
    source: str  # "git_history" | "archive"
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
        raw_base_sha=record.get("base_sha"),
        merge_message=record.get("merge_message"),
    )


def raw_job_config(record: dict, job_id: int) -> Optional[dict]:
    for j in record.get("jobs", []):
        if j["job_id"] == job_id:
            return j["config"]
    return None


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
    return SnapshotRef(sha=sha, source="archive", content_root=root)


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


# --- live backend ----------------------------------------------------------


class LiveConnector:
    """Talks to a CI REST endpoint; paginates build history with backoff.

    The transport is injectable for testing: any callable
    ``(path, params) -> (status_code, parsed_json)``.
    """

    MAX_ATTEMPTS = 5

    def __init__(self, base_url: str, token: Optional[str] = None, transport=None, sleep=time.sleep):
        self.base_url = base_url.rstrip("/")
        self.token = token or os.environ.get("CI_API_TOKEN")
        self._transport = transport or self._http_get
        self._sleep = sleep

    def _http_get(self, path: str, params: dict):
        import urllib.parse
        import urllib.request

        url = f"{self.base_url}{path}"
        if params:
            url += "?" + urllib.parse.urlencode(params)
        req = urllib.request.Request(url)
        if self.token:
            req.add_header("Authorization", f"token {self.token}")
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, json.loads(resp.read().decode())
        except Exception as exc:  # network errors are retryable
            raise RetryableError(str(exc)) from exc

    def _get(self, path: str, params: dict):
        delay = 1.0
        for attempt in range(self.MAX_ATTEMPTS):
            try:
                status, body = self._transport(path, params)
            except RetryableError:
                if attempt == self.MAX_ATTEMPTS - 1:
                    raise
                self._sleep(delay)
                delay *= 2
                continue
            if status == 404:
                raise ProjectNotFound(path)
            if status == 429 or status >= 500:
                if attempt == self.MAX_ATTEMPTS - 1:
                    raise RetryableError(f"HTTP {status} for {path}")
                self._sleep(delay)
                delay *= 2
                continue
            return body
        raise RetryableError(f"exhausted retries for {path}")

    def fetch_build_history(self, slug: str) -> list[Build]:
        builds: list[Build] = []
        cursor = None
        while True:
            params = {"cursor": cursor} if cursor else {}
            page = self._get(f"/repos/{slug}/builds", params)
            builds.extend(build_from_record(r) for r in page.get("builds", []))
            cursor = page.get("cursor")
            if not cursor:
                return builds

    def fetch_job_log(self, job_id: int) -> Optional[str]:
        try:
            body = self._get(f"/jobs/{job_id}/log", {})
        except ProjectNotFound:
            return None
        return body.get("content")


def make_connector(fixture_dir: Optional[os.PathLike] = None, base_url: Optional[str] = None):
    """Pick a backend: explicit fixture dir, FAILPASS_FIXTURE_DIR, or live."""
    fixture_dir = fixture_dir or os.environ.get("FAILPASS_FIXTURE_DIR")
    if fixture_dir:
        return FixtureConnector(fixture_dir)
    if base_url:
        return LiveConnector(base_url)
    raise ConnectorError("no backend configured: pass --fixture or set FAILPASS_FIXTURE_DIR")
