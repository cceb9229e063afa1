"""Re-execution of filtered pairs and stability classification.

For each pair that survived filtering, both sides are rebuilt in a
matched environment from a generated job script, the reproduced logs are
parsed and compared (attribute-level, never raw diffs) against the
originals, and the repeated-run protocol labels the pair reproducible,
flaky, or unreproducible.
"""

from __future__ import annotations

import hashlib
import os
import re
import shlex
import shutil
import stat
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import analyzer
from .connector import ConnectorError, clone_at, merge_tree
from .model import Availability, CommitCoordinates, JobPair, RecoverySource, json_record
from .pairfilter import FilterVerdict
from .runtime import SCRATCH_ENV, ExecResult

DEFAULT_TIMEOUT_S = 1800.0
DEFAULT_REPEATS = 5

SUPPORTED_CONFIG_KEYS = {"language", "jdk", "python", "env", "install", "script"}
MAX_SCRIPT_BYTES = 131071  # the kernel's MAX_ARG_STRLEN for one argv string, less its NUL

REASONS = (
    "dependency_install_failed",
    "stale_url_or_network",
    "ci_command_issue",
    "project_specific",
    "did_not_finish",
    "permission_issue",
)


class ReproductionError(Exception):
    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class WorkTree:
    root: Path
    construction: str  # clone_reset | phantom_merge | archive_zip


@json_record
@dataclass
class ReproductionRecord:
    pair_id: str
    attempts: list[tuple[bool, bool]]
    stability: str  # reproducible | flaky | unreproducible
    category: Optional[str] = None
    unreproducibility_reason: Optional[str] = None

    def __post_init__(self):
        if (self.category is not None) != (self.stability != "unreproducible"):
            raise ValueError("category present exactly when the pair reproduced")


def _as_commands(value) -> list[str]:
    if isinstance(value, str):
        return [value]
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return list(value)
    raise ReproductionError(f"ci command issue: bad phase value {value!r}", "ci_command_issue")


def generate_job_script(config: dict) -> str:
    """Build a deterministic shell script for one job configuration.

    Supports env vars, a language version selector, and install/script
    phase command lists; anything else is a CI command issue. Install
    failures are terminal and marked as errored (phase marker), script
    failures as failed. The script runs on the tree as it is and never
    moves HEAD, so a PR job runs on its recreated merge commit. The script
    is passed to the shell as one argument, so a script too long for that,
    or one holding a NUL byte, is a CI command issue as well.
    """
    unsupported = set(config) - SUPPORTED_CONFIG_KEYS
    if unsupported:
        raise ReproductionError(
            f"ci command issue: unsupported config keys {sorted(unsupported)}",
            "ci_command_issue",
        )
    lines = ["#!/bin/sh", "set -u"]
    for selector in ("language", "jdk", "python"):
        if selector in config:
            lines.append(f"echo {shlex.quote(f'Using {selector}: {config[selector]}')}")
    env = config.get("env", [])
    for entry in _as_commands(env) if env else []:
        name, sep, value = entry.partition("=")
        if not sep or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise ReproductionError(f"ci command issue: bad env entry {entry!r}", "ci_command_issue")
        lines.append(f"export {name}={shlex.quote(value)}")
    for cmd in _as_commands(config.get("install", []) or []):
        q = shlex.quote(cmd)
        marker = shlex.quote(f'The command "{cmd}" failed and exited with ')
        lines += [
            f"echo {shlex.quote('$ ' + cmd)}",
            cmd,
            "rc=$?",
            "if [ $rc -ne 0 ]; then",
            f"  echo {marker}\"$rc\"' during install.'",
            "  echo 'Done. Your build exited with '\"$rc\"'.'",
            "  exit $rc",
            "fi",
        ]
    for cmd in _as_commands(config.get("script", []) or []):
        marker = shlex.quote(f'The command "{cmd}" exited with ')
        lines += [
            f"echo {shlex.quote('$ ' + cmd)}",
            cmd,
            "rc=$?",
            f"echo {marker}\"$rc\"'.'",
            "if [ $rc -ne 0 ]; then",
            "  echo 'Done. Your build exited with '\"$rc\"'.'",
            "  exit $rc",
            "fi",
        ]
    lines += ["echo 'Done. Your build exited with 0.'", "exit 0", ""]
    script = "\n".join(lines)
    if "\0" in script or len(os.fsencode(script)) > MAX_SCRIPT_BYTES:
        raise ReproductionError("ci command issue: the job script cannot be passed to the shell as one argument",
                                "ci_command_issue")
    return script


def revert_project(coords: CommitCoordinates, repo: Optional[Path], archive_fetch, dest: Path) -> WorkTree:
    """Materialize the tree the CI job saw.

    Push builds clone and reset to the trigger; PR builds recreate the
    phantom merge when both parents are in history; otherwise the
    code-host zip archive is extracted. ``archive_fetch(sha, dest)``
    returns the extracted content root or None; that root is renamed to
    ``dest``, which must not exist yet. A git-built tree borrows ``repo``'s
    objects (see ``clone_at``). A git command that fails, or an archive that
    cannot be read, raises ConnectorError.
    """
    if coords.availability is not Availability.AVAILABLE:
        raise ReproductionError("state unrecoverable", "project_specific")
    dest = Path(dest)
    if coords.recovery_source is RecoverySource.GIT_HISTORY:
        if repo is None:
            raise ReproductionError("repository clone missing", "project_specific")
        if coords.base_sha is None:
            clone_at(repo, coords.trigger_sha, dest)
            return WorkTree(root=dest, construction="clone_reset")
        merge_tree(repo, coords.base_sha, coords.trigger_sha, dest)
        return WorkTree(root=dest, construction="phantom_merge")
    content_root = archive_fetch(coords.merge_sha or coords.trigger_sha, dest.parent / (dest.name + "-zip"))
    if content_root is None:
        raise ReproductionError("state unrecoverable", "project_specific")
    content_root.rename(dest)
    return WorkTree(root=dest, construction="archive_zip")


def run_job(script: str, image: str, worktree: WorkTree, timeout_s: float,
            runtime, env: Optional[dict[str, str]] = None) -> ExecResult:
    """Execute the job script inside the matched environment; nothing is written into the tree."""
    return runtime.run_script(image, worktree.root, script, timeout_s, env=env)


def classify_reproduced(fail_attrs: analyzer.LogAttributes) -> str:
    """Reproduced-pair category from the fail side's attributes."""
    if fail_attrs.status == "errored":
        return "error_pass"
    if fail_attrs.status == "failed":
        return "with_failed_test" if fail_attrs.num_tests_failed >= 1 else "with_failed_job"
    raise ValueError("not a fail side: status is passed")


_NETWORK_RE = re.compile(
    r"Could not resolve host|Connection (?:refused|timed out|reset)|"
    r"Name or service not known|Network is unreachable|404 Not Found|SSL certificate problem"
)
_DEPENDENCY_RE = re.compile(r"during install\.|Could not resolve dependencies|No matching distribution found")
_PERMISSION_RE = re.compile(r"Permission denied|EACCES|Operation not permitted")


def classify_unreproducible(log_text: str, timed_out: bool = False) -> str:
    """Ordered rule list mapping a failed reproduction to a reason label."""
    if _DEPENDENCY_RE.search(log_text):
        return "dependency_install_failed"
    if _NETWORK_RE.search(log_text):
        return "stale_url_or_network"
    if timed_out:
        return "did_not_finish"
    if _PERMISSION_RE.search(log_text):
        return "permission_issue"
    return "project_specific"


@dataclass
class ReproductionContext:
    """Everything an attempt needs: connector-backed data plus execution."""

    connector: object
    runtime: object
    language: str
    raw_configs: dict[int, dict]  # job_id -> raw .travis-style config
    scratch_dir: Optional[Path] = None
    timeout_s: float = DEFAULT_TIMEOUT_S
    log_sink: Optional[object] = None  # callable(pair_id, attempt, side, text)
    trees_edited: bool = False  # a job has changed its tree (here or in an earlier pair): sides run in copies

    def original_attributes(self, job_id: int) -> Optional[analyzer.LogAttributes]:
        text = self.connector.fetch_job_log(job_id)
        if text is None:
            return None
        return analyzer.analyze(text, self.language)


def _digest(path: str) -> bytes:
    """BLAKE2b of a file's bytes."""
    fd = os.open(path, os.O_RDONLY)
    try:
        digest = hashlib.blake2b()
        while chunk := os.read(fd, 1 << 16):
            digest.update(chunk)
        return digest.digest()
    finally:
        os.close(fd)


def _walk(root: Path):
    """(key, path, lstat) of ``root``, keyed ``.``, then of each path under it, keyed by its path in the tree.

    Nothing is followed through a symlink.
    """
    st = os.lstat(root)
    yield ".", os.fspath(root), st
    pending = [(os.fspath(root), "")] if stat.S_ISDIR(st.st_mode) else []  # (path, its key's prefix)
    while pending:
        path, prefix = pending.pop()
        with os.scandir(path) as it:
            for entry in it:
                st = entry.stat(follow_symlinks=False)
                if stat.S_ISDIR(st.st_mode):
                    pending.append((entry.path, prefix + entry.name + "/"))
                yield prefix + entry.name, entry.path, st


def _stat_part(st: os.stat_result) -> tuple:
    return st.st_mode, st.st_uid, st.st_gid, st.st_mtime_ns, st.st_nlink


def _content_part(path: str, st: os.stat_result):
    if stat.S_ISLNK(st.st_mode):
        return os.readlink(path)
    return _digest(path) if stat.S_ISREG(st.st_mode) else None


def tree_fingerprint(root: Path) -> dict[str, tuple]:
    """One entry per path under ``root``, keyed by its path in the tree, the root's own (``.``) included.

    An entry holds the type and permission bits, the owner, the mtime and
    the link count, and the target of a symlink or a BLAKE2 digest of a
    regular file's bytes: size and mtime alone would miss an edit of the
    same size within one timestamp tick, and a link count above one shows a
    file that shares its inode with one outside the tree. Nothing is
    followed through a symlink and nothing is written. Raises OSError when
    an entry cannot be read.
    """
    return {key: (*_stat_part(st), _content_part(path, st)) for key, path, st in _walk(root)}


def tree_unchanged(root: Path, fingerprint: dict[str, tuple]) -> bool:
    """Whether ``tree_fingerprint(root) == fingerprint``, read only up to the first entry that differs.

    A file is read only when its stat part matches. Raises OSError when an
    entry that is read cannot be.
    """
    seen = 0
    for key, path, st in _walk(root):
        want = fingerprint.get(key)
        if want is None or want[:5] != _stat_part(st) or want[5] != _content_part(path, st):
            return False
        seen += 1
    return seen == len(fingerprint)


class _Side:
    """One side of a pair, decided once per pair: what its attempts run with, or why every one fails.

    The side gets its original log's attributes, its job script and its
    tree under ``pair_dir``, in that order, or else its ``reason``: original
    log absent, job configuration missing, the script's or the tree's
    ``ReproductionError`` reason, or the message of a ``ConnectorError``
    raised while its original log is read or its tree is built. Nothing is
    built after that reason. Jobs run in the tree as built. Its fingerprint
    is taken right after the build, and before each later attempt the tree
    is checked against it: a tree that differs, or cannot be read, is
    removed, so a job that edits its tree cannot affect a later attempt. The
    first time that happens the tree is built once more, as a reserve no job
    runs in, and from then on each such attempt runs in a fresh copy of the
    reserve. A reserve that cannot be built gives the side its reason from
    then on. Once any job of the command has changed its tree
    (``ctx.trees_edited``), a side that has not run yet keeps its build as
    the reserve and runs every attempt in a copy, so a command whose jobs
    edit their trees builds one more tree only for the first side that does.
    """

    def __init__(self, pair: JobPair, name: str, ctx: ReproductionContext, pair_dir: Path):
        job, self.coords = ((pair.failed_job, pair.failed_commits) if name == "fail"
                            else (pair.passed_job, pair.passed_commits))
        self.name, self._job_id, self._slug = name, job.job_id, pair.project.slug
        self._ctx, self._pair_dir = ctx, pair_dir
        self.reason: Optional[str] = None  # why every attempt of the side fails; None while it can run
        self.script: Optional[str] = None
        self.tree: Optional[WorkTree] = None
        self.fingerprint: Optional[dict] = None  # None when the tree could not be read
        self.reserve: Optional[WorkTree] = None  # a tree no job runs in; each attempt after it is made runs in a copy
        self.ran = False  # a job has run in ``tree``
        self._copies = 0
        try:
            self.original: Optional[analyzer.LogAttributes] = ctx.original_attributes(job.job_id)
        except ConnectorError as exc:
            self.original, self.reason = None, str(exc)

    def prepare(self) -> None:
        """Generate the job script and build the tree, unless reading the original log gave the side its reason."""
        if self.reason is not None:
            return
        config = self._ctx.raw_configs.get(self._job_id)
        if self.original is None:
            self.reason = "original log absent"
        elif config is None:
            self.reason = "job configuration missing"
        else:
            try:
                self.script = generate_job_script(config)
            except ReproductionError as exc:
                self.reason = exc.reason
            else:
                self._build(self._pair_dir)

    def _build(self, parent: Path) -> bool:
        """Build the tree as ``parent / name`` and take its fingerprint; False when that gave the side its reason."""
        ctx = self._ctx
        archive_fetch = lambda sha, d: ctx.connector.fetch_archive_snapshot(self._slug, sha, d)
        try:
            self.tree = revert_project(self.coords, ctx.connector.repo_path(self._slug), archive_fetch,
                                       parent / self.name)
        except ReproductionError as exc:
            self.reason = exc.reason
            return False
        except ConnectorError as exc:
            self.reason = str(exc)
            return False
        try:
            self.fingerprint = tree_fingerprint(self.tree.root)
        except OSError:
            self.fingerprint = None
        return True

    def _next_tree(self) -> Optional[WorkTree]:
        """The tree for the next job: once a job ran in it, replaced unless it still has its fingerprint.

        None when the reserve could not be built and gave the side its reason.
        """
        if self.ran:
            try:
                same = self.fingerprint is not None and tree_unchanged(self.tree.root, self.fingerprint)
            except OSError:
                same = False
            if not same:
                self._ctx.trees_edited = True
                # a new directory: an abandoned tree may hold files that cannot be removed
                shutil.rmtree(self.tree.root, ignore_errors=True)
                if self.reserve is None:
                    if not self._build(self._pair_dir / "reserve"):
                        return None
                    self.reserve = self.tree
                self.tree = self._copy()
        elif self._ctx.trees_edited:  # this command's jobs edit their trees: keep the first build as the reserve
            self.reserve = self.tree
            self.tree = self._copy()
        self.ran = True
        return self.tree

    def _copy(self) -> WorkTree:
        """A fresh copy of the reserve, which has the reserve's fingerprint: copytree keeps modes and mtimes."""
        self._copies += 1
        work = self._pair_dir / f"copy-{self._copies}" / self.name
        shutil.copytree(self.reserve.root, work, symlinks=True)
        return WorkTree(root=work, construction=self.reserve.construction)

    def attempt(self, image: str) -> tuple[bool, Optional[str], Optional[str]]:
        """One attempt: (matched, reason, log text), or unmatched with the side's reason and no log if it cannot run."""
        tree = None if self.reason is not None else self._next_tree()
        if tree is None:
            return False, self.reason, None
        ctx = self._ctx
        env = {SCRATCH_ENV: str(ctx.scratch_dir)} if ctx.scratch_dir else None
        outcome = run_job(self.script, image, tree, ctx.timeout_s, ctx.runtime, env=env)
        reproduced = analyzer.analyze(outcome.log_text, ctx.language)
        matched = analyzer.compare(self.original, reproduced) and not outcome.timed_out
        reason = None if matched else classify_unreproducible(outcome.log_text, timed_out=outcome.timed_out)
        return matched, reason, outcome.log_text


def pair_id(pair: JobPair) -> str:
    return f"{pair.project.slug.replace('/', '-')}-{pair.failed_job.job_id}"


def stability_from_attempts(attempts: list[tuple[bool, bool]]) -> str:
    """Repeated-run truth table: all matched / none matched / mixed.

    An attempt counts as matched only when both sides matched.
    """
    matched = [f and p for f, p in attempts]
    if all(matched):
        return "reproducible"
    if not any(matched):
        return "unreproducible"
    return "flaky"


def unreproducible_reason(reasons: list[Optional[str]]) -> str:
    """The most common reason among sides that did not match; ties go to the earlier label in ``REASONS``.

    A reason outside ``REASONS`` (say, an absent original log) counts as ``project_specific``.
    """
    counts = Counter(r if r in REASONS else "project_specific" for r in reasons)
    return min(counts, key=lambda r: (-counts[r], REASONS.index(r)))


def stability_protocol(pair: JobPair, verdict: FilterVerdict, ctx: ReproductionContext,
                       n: int = DEFAULT_REPEATS) -> ReproductionRecord:
    """Repeat the reproduction n times, fail side before pass side, and classify the pair."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ref = verdict.image_ref
    if ref is None:
        raise ValueError("pair did not reach the with_image stage")
    image = f"{ref.registry}/{ref.name}:{ref.tag}"
    pid = pair_id(pair)
    runs: list[list[tuple[bool, Optional[str]]]] = []  # (matched, reason) of each side, per attempt
    # files a job leaves may not be removable (say, root-owned ones from a container); they stay, the run goes on
    with tempfile.TemporaryDirectory(prefix="failpass-pair-", ignore_cleanup_errors=True) as pair_dir:
        sides = [_Side(pair, name, ctx, Path(pair_dir)) for name in ("fail", "pass")]
        for side in sides:
            side.prepare()
        for k in range(n):
            runs.append([])
            for side in sides:
                matched, reason, log_text = side.attempt(image)
                if log_text is not None and ctx.log_sink is not None:
                    ctx.log_sink(pid, k, side.name, log_text)
                log_text = None  # the next job runs with no earlier log held
                runs[k].append((matched, reason))
    # a side blocked after some of its attempts ran matches in none of them, so the pair cannot read as flaky
    attempts: list[tuple[bool, bool]] = []
    mismatch_reasons: list[Optional[str]] = []
    for outcomes in runs:
        matched = [m and side.reason is None for side, (m, _) in zip(sides, outcomes)]
        attempts.append(tuple(matched))
        mismatch_reasons += [r or side.reason for side, (_, r), ok in zip(sides, outcomes, matched) if not ok]
    stability = stability_from_attempts(attempts)
    category = None
    reason = None
    if stability != "unreproducible":
        category = classify_reproduced(sides[0].original)
    else:
        reason = unreproducible_reason(mismatch_reasons)
    return ReproductionRecord(
        pair_id=pid,
        attempts=attempts,
        stability=stability,
        category=category,
        unreproducibility_reason=reason,
    )
