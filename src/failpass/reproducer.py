"""Re-execution of filtered pairs and stability classification.

For each pair that survived filtering, both sides are rebuilt in a
matched environment from a generated job script, the reproduced logs are
parsed and compared (attribute-level, never raw diffs) against the
originals, and the repeated-run protocol labels the pair reproducible,
flaky, or unreproducible.
"""

from __future__ import annotations

import os
import re
import shlex
import shutil
import stat
import tempfile
from collections import Counter
from dataclasses import dataclass, replace
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
    ``dest``, which must not exist yet.
    """
    if coords.availability is not Availability.AVAILABLE:
        raise ReproductionError("state unrecoverable", "project_specific")
    dest = Path(dest)
    if coords.recovery_source is RecoverySource.GIT_HISTORY:
        if coords.base_sha is None:
            clone_at(repo, coords.trigger_sha, dest)
            return WorkTree(root=dest, construction="clone_reset")
        try:
            merge_tree(repo, coords.base_sha, coords.trigger_sha, dest)
        except ConnectorError as exc:
            raise ReproductionError(str(exc), "project_specific") from exc
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
class SideResult:
    matched: bool
    outcome: Optional[ExecResult] = None
    reason: Optional[str] = None


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

    def original_attributes(self, job_id: int) -> Optional[analyzer.LogAttributes]:
        text = self.connector.fetch_job_log(job_id)
        if text is None:
            return None
        return analyzer.analyze(text, self.language)


_COMPARE_CHUNK = 1 << 16


def _same_bytes(a: str, b: str) -> bool:
    fa = os.open(a, os.O_RDONLY)
    try:
        fb = os.open(b, os.O_RDONLY)
        try:
            while True:
                chunk = os.read(fa, _COMPARE_CHUNK)
                if chunk != os.read(fb, _COMPARE_CHUNK):
                    return False
                if not chunk:
                    return True
        finally:
            os.close(fb)
    finally:
        os.close(fa)


def _listing(path: str, listings: dict[str, list]) -> list[tuple[str, str, os.stat_result]]:
    """(name, path, lstat) of each entry of a pristine directory, read on the first call only."""
    entries = listings.get(path)
    if entries is None:
        with os.scandir(path) as it:
            entries = listings[path] = [(e.name, e.path, e.stat(follow_symlinks=False)) for e in it]
    return entries


def _same_tree(pristine: Path, work: Path, listings: dict[str, list]) -> bool:
    """True exactly when ``work`` holds what ``copytree(pristine, symlinks=True)`` would make.

    Entry names, types, permission bits, mtimes and link targets must be
    equal, the root's own included, and every regular file must have one
    link and the same bytes, compared in full: size and mtime alone would miss
    an edit of the same size within one timestamp tick, and a hard-linked file
    may share its inode with a file outside the tree. Nothing is followed
    through a symlink and nothing is written; the walk stops at the first
    difference. Raises OSError when ``work`` cannot be read.

    ``listings`` keeps the pristine tree's directory listings from one call
    to the next; it is valid only while nothing changes the pristine tree.
    """
    src, dst = os.fspath(pristine), os.fspath(work)
    pending = [(src, os.lstat(src), dst, os.lstat(dst))]
    while pending:
        src, src_st, dst, dst_st = pending.pop()
        if src_st.st_mode != dst_st.st_mode or src_st.st_mtime_ns != dst_st.st_mtime_ns:
            return False
        if stat.S_ISDIR(src_st.st_mode):
            entries = _listing(src, listings)
            with os.scandir(dst) as it:
                have = {e.name: e for e in it}
            if len(have) != len(entries) or any(name not in have for name, _, _ in entries):
                return False
            pending += [(path, st, have[name].path, have[name].stat(follow_symlinks=False))
                        for name, path, st in entries]
        elif stat.S_ISLNK(src_st.st_mode):
            if os.readlink(src) != os.readlink(dst):
                return False
        elif not (stat.S_ISREG(src_st.st_mode) and dst_st.st_nlink == 1 and dst_st.st_size == src_st.st_size
                  and _same_bytes(src, dst)):
            return False
    return True


class PairInputs:
    """What every attempt of one pair needs, decided once per pair.

    Each side gets its original log's attributes, its job script and its
    pristine tree under ``pair_dir``, in that order, or else the one reason
    every attempt of the side fails without a run (original log absent,
    job configuration missing, or the script's or the tree's
    ``ReproductionError`` reason); nothing is built after that reason. No
    job runs in a pristine tree. Jobs run in a working copy per side
    (``.git`` included, no hardlinks), made on the side's first attempt.
    Before each later one, ``_same_tree`` compares it with the pristine
    tree: an unchanged copy is reused, and any other is removed and replaced
    by a fresh one, so a job that edits its tree cannot affect a later attempt.
    """

    def __init__(self, pair: JobPair, ctx: ReproductionContext, pair_dir: Path):
        self._ctx = ctx
        self._pair_dir = Path(pair_dir)
        jobs = {"fail": (pair.failed_job, pair.failed_commits), "pass": (pair.passed_job, pair.passed_commits)}
        self.originals = {side: ctx.original_attributes(job.job_id) for side, (job, _) in jobs.items()}
        slug = pair.project.slug
        archive_fetch = lambda sha, d: ctx.connector.fetch_archive_snapshot(slug, sha, d)
        # side -> (script, pristine tree), or the reason every attempt of the side fails
        self._sides: dict[str, tuple[str, WorkTree] | str] = {}
        for side, (job, coords) in jobs.items():
            config = ctx.raw_configs.get(job.job_id)
            if self.originals[side] is None:
                self._sides[side] = "original log absent"
            elif config is None:
                self._sides[side] = "job configuration missing"
            else:
                try:
                    self._sides[side] = (generate_job_script(config), revert_project(
                        coords, ctx.connector.repo_path(slug), archive_fetch, self._pair_dir / side))
                except ReproductionError as exc:
                    self._sides[side] = exc.reason
        self._work: dict[str, Path] = {}
        self._listings: dict[str, list] = {}  # pristine directory listings; no job runs in a pristine tree
        self._copies = 0

    def _working_copy(self, side: str, tree: WorkTree) -> WorkTree:
        """The side's working copy, equal to its pristine tree."""
        work = self._work.get(side)
        if work is not None:
            try:
                if _same_tree(tree.root, work, self._listings):
                    return replace(tree, root=work)
            except OSError:
                pass
            shutil.rmtree(work, ignore_errors=True)
        # a new directory each time: an abandoned copy may hold files that cannot be removed
        self._copies += 1
        work = self._pair_dir / f"work-{self._copies}" / side
        shutil.copytree(tree.root, work, symlinks=True)
        self._work[side] = work
        return replace(tree, root=work)

    def attempt(self, side: str, image: str) -> SideResult:
        """One attempt of one side: unmatched with its reason if blocked, else run, analyze and compare."""
        prepared = self._sides[side]
        if isinstance(prepared, str):
            return SideResult(matched=False, reason=prepared)
        script, tree = prepared
        ctx = self._ctx
        env = {SCRATCH_ENV: str(ctx.scratch_dir)} if ctx.scratch_dir else None
        outcome = run_job(script, image, self._working_copy(side, tree), ctx.timeout_s, ctx.runtime, env=env)
        reproduced = analyzer.analyze(outcome.log_text, ctx.language)
        matched = analyzer.compare(self.originals[side], reproduced) and not outcome.timed_out
        reason = None if matched else classify_unreproducible(outcome.log_text, timed_out=outcome.timed_out)
        return SideResult(matched=matched, outcome=outcome, reason=reason)


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
    attempts: list[tuple[bool, bool]] = []
    mismatch_reasons: list[Optional[str]] = []
    # files a job leaves may not be removable (say, root-owned ones from a container); they stay, the run goes on
    with tempfile.TemporaryDirectory(prefix="failpass-pair-", ignore_cleanup_errors=True) as pair_dir:
        inputs = PairInputs(pair, ctx, Path(pair_dir))
        for k in range(n):
            results = {side: inputs.attempt(side, image) for side in ("fail", "pass")}
            if ctx.log_sink is not None:
                for side, res in results.items():
                    if res.outcome is not None:
                        ctx.log_sink(pair_id(pair), k, side, res.outcome.log_text)
            attempts.append((results["fail"].matched, results["pass"].matched))
            mismatch_reasons += [r.reason for r in results.values() if not r.matched]
    stability = stability_from_attempts(attempts)
    category = None
    reason = None
    if stability != "unreproducible":
        category = classify_reproduced(inputs.originals["fail"])
    else:
        reason = unreproducible_reason(mismatch_reasons)
    return ReproductionRecord(
        pair_id=pair_id(pair),
        attempts=attempts,
        stability=stability,
        category=category,
        unreproducibility_reason=reason,
    )
