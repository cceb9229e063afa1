"""Re-execution of filtered pairs and stability classification.

For each pair that survived filtering, both sides are rebuilt in a
matched environment from a generated job script, the reproduced logs are
parsed and compared (attribute-level, never raw diffs) against the
originals, and the repeated-run protocol labels the pair reproducible,
flaky, or unreproducible.
"""

from __future__ import annotations

import re
import shlex
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from . import analyzer
from .connector import ConnectorError, clone_at, merge_tree
from .model import Availability, CommitCoordinates, JobPair, RecoverySource, json_record
from .pairfilter import FilterVerdict
from .runtime import KILLED_EXIT_STATUS, SCRIPT_REL_PATH, ExecResult

DEFAULT_TIMEOUT_S = 1800.0
DEFAULT_REPEATS = 5

SUPPORTED_CONFIG_KEYS = {"language", "jdk", "python", "env", "install", "script"}

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
class JobScript:
    side: str  # "fail" | "pass"
    script_text: str
    pinned_sha: str


@dataclass(frozen=True)
class WorkTree:
    root: Path
    sha: str
    construction: str  # clone_reset | phantom_merge | archive_zip


@dataclass(frozen=True)
class RunOutcome:
    side: str
    exit_status: int
    log_text: str
    wall_time: float
    timed_out: bool

    def __post_init__(self):
        if self.timed_out and self.exit_status != KILLED_EXIT_STATUS:
            raise ValueError("timed-out runs must carry the killed exit status")


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


def generate_job_script(config: dict, pinned_sha: str, side: str = "fail") -> JobScript:
    """Build a deterministic shell script for one job configuration.

    Supports env vars, a language version selector, and install/script
    phase command lists; anything else is a CI command issue. Install
    failures are terminal and marked as errored (phase marker), script
    failures as failed.
    """
    unsupported = set(config) - SUPPORTED_CONFIG_KEYS
    if unsupported:
        raise ReproductionError(
            f"ci command issue: unsupported config keys {sorted(unsupported)}",
            "ci_command_issue",
        )
    lines = [
        "#!/bin/sh",
        f"# job script pinned to {pinned_sha}",
        "set -u",
        "if [ -d .git ]; then",
        f"  git checkout --quiet {pinned_sha} || {{ echo 'Done. Your build exited with 1.'; exit 1; }}",
        "fi",
        f"echo 'Checked out {pinned_sha}'",
    ]
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
    return JobScript(side=side, script_text="\n".join(lines), pinned_sha=pinned_sha)


def revert_project(coords: CommitCoordinates, repo: Optional[Path], archive_fetch, dest: Path) -> WorkTree:
    """Materialize the tree the CI job saw.

    Push builds clone and reset to the trigger; PR builds recreate the
    phantom merge when both parents are in history; otherwise the
    code-host zip archive is extracted. ``archive_fetch(sha, dest)``
    returns a SnapshotRef or None.
    """
    if coords.availability is not Availability.AVAILABLE:
        raise ReproductionError("state unrecoverable", "project_specific")
    dest = Path(dest)
    if coords.recovery_source is RecoverySource.GIT_HISTORY:
        if coords.base_sha is None:
            clone_at(repo, coords.trigger_sha, dest)
            return WorkTree(root=dest, sha=coords.trigger_sha, construction="clone_reset")
        try:
            merge_tree(repo, coords.base_sha, coords.trigger_sha, dest)
        except ConnectorError as exc:
            raise ReproductionError(str(exc), "project_specific") from exc
        return WorkTree(root=dest, sha=coords.trigger_sha, construction="phantom_merge")
    sha = coords.merge_sha or coords.trigger_sha
    snap = archive_fetch(sha, dest.parent / (dest.name + "-zip"))
    if snap is None:
        raise ReproductionError("state unrecoverable", "project_specific")
    dest.mkdir(parents=True, exist_ok=True)
    for child in snap.content_root.iterdir():
        shutil.move(str(child), dest / child.name)
    return WorkTree(root=dest, sha=sha, construction="archive_zip")


def run_job(script: JobScript, image: str, worktree: WorkTree, timeout_s: float,
            runtime, env: Optional[dict[str, str]] = None) -> RunOutcome:
    """Execute the job script inside the matched environment."""
    script_path = worktree.root / SCRIPT_REL_PATH
    script_path.parent.mkdir(parents=True, exist_ok=True)
    script_path.write_text(script.script_text)
    result: ExecResult = runtime.run_script(image, worktree.root, timeout_s, env=env)
    return RunOutcome(
        side=script.side,
        exit_status=result.exit_status,
        log_text=result.log_text,
        wall_time=result.wall_time,
        timed_out=result.timed_out,
    )


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


def classify_unreproducible(log_text: str, timed_out: bool = False,
                            generation_failed: bool = False) -> str:
    """Ordered rule list mapping a failed reproduction to a reason label."""
    if _DEPENDENCY_RE.search(log_text):
        return "dependency_install_failed"
    if _NETWORK_RE.search(log_text):
        return "stale_url_or_network"
    if generation_failed:
        return "ci_command_issue"
    if timed_out:
        return "did_not_finish"
    if _PERMISSION_RE.search(log_text):
        return "permission_issue"
    return "project_specific"


@dataclass
class SideResult:
    matched: bool
    outcome: Optional[RunOutcome] = None
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


class PairInputs:
    """What every attempt of one pair shares, prepared once per pair.

    The original logs are parsed up front. Each side's pristine tree is built
    under ``pair_dir`` on the first attempt that needs it and copied in full
    (``.git`` included, no hardlinks) into every attempt, so a job that edits
    its tree cannot affect a later attempt. A tree that cannot be built fails
    the same way every time, so its ``ReproductionError`` is kept as well.
    """

    def __init__(self, pair: JobPair, ctx: ReproductionContext, pair_dir: Path):
        self.originals = {
            "fail": ctx.original_attributes(pair.failed_job.job_id),
            "pass": ctx.original_attributes(pair.passed_job.job_id),
        }
        self._pair = pair
        self._connector = ctx.connector
        self._pair_dir = Path(pair_dir)
        self._trees: dict[str, WorkTree | ReproductionError] = {}

    def worktree(self, side: str, dest: Path) -> WorkTree:
        """A fresh copy of the side's tree at ``dest``; raises ReproductionError if it cannot be built."""
        if side not in self._trees:
            coords = self._pair.failed_commits if side == "fail" else self._pair.passed_commits
            slug = self._pair.project.slug
            archive_fetch = lambda sha, d: self._connector.fetch_archive_snapshot(slug, sha, d)
            try:
                self._trees[side] = revert_project(coords, self._connector.repo_path(slug), archive_fetch,
                                                   self._pair_dir / side)
            except ReproductionError as exc:
                self._trees[side] = exc
        tree = self._trees[side]
        if isinstance(tree, ReproductionError):
            raise ReproductionError(str(tree), tree.reason)
        shutil.copytree(tree.root, dest, symlinks=True)
        return replace(tree, root=dest)


@contextmanager
def pair_inputs(pair: JobPair, ctx: ReproductionContext):
    """PairInputs whose trees live in a temporary directory removed on exit."""
    with tempfile.TemporaryDirectory(prefix="failpass-pair-") as pair_dir:
        yield PairInputs(pair, ctx, Path(pair_dir))


def _attempt_side(pair: JobPair, side: str, ctx: ReproductionContext, image: str,
                  workdir: Path, inputs: PairInputs) -> SideResult:
    job = pair.failed_job if side == "fail" else pair.passed_job
    coords = pair.failed_commits if side == "fail" else pair.passed_commits
    original = inputs.originals[side]
    if original is None:
        return SideResult(matched=False, reason="original log absent")
    config = ctx.raw_configs.get(job.job_id)
    if config is None:
        return SideResult(matched=False, reason="job configuration missing")
    try:
        script = generate_job_script(config, coords.trigger_sha or coords.merge_sha, side=side)
    except ReproductionError as exc:
        return SideResult(matched=False, reason=exc.reason)
    try:
        worktree = inputs.worktree(side, workdir / side)
    except ReproductionError as exc:
        return SideResult(matched=False, reason=exc.reason)
    env = {"FAILPASS_SCRATCH": str(ctx.scratch_dir)} if ctx.scratch_dir else None
    outcome = run_job(script, image, worktree, ctx.timeout_s, ctx.runtime, env=env)
    reproduced = analyzer.analyze(outcome.log_text, ctx.language)
    matched = analyzer.compare(original, reproduced) and not outcome.timed_out
    reason = None
    if not matched:
        reason = classify_unreproducible(outcome.log_text, timed_out=outcome.timed_out)
    return SideResult(matched=matched, outcome=outcome, reason=reason)


def attempt_pair(pair: JobPair, verdict: FilterVerdict, ctx: ReproductionContext,
                 attempt_index: int = 0, inputs: Optional[PairInputs] = None) -> tuple[SideResult, SideResult]:
    """One reproduction attempt: both sides in fresh worktrees.

    Without ``inputs`` the attempt prepares its own and removes them afterwards.
    """
    if verdict.image_ref is None:
        raise ValueError("pair did not reach the with_image stage")
    if inputs is None:
        with pair_inputs(pair, ctx) as own:
            return attempt_pair(pair, verdict, ctx, attempt_index, own)
    image = f"{verdict.image_ref.registry}/{verdict.image_ref.name}:{verdict.image_ref.tag}"
    # files a job leaves may not be removable (say, root-owned ones from a container); they stay, the run goes on
    with tempfile.TemporaryDirectory(prefix="failpass-attempt-", ignore_cleanup_errors=True) as workdir:
        fail_result = _attempt_side(pair, "fail", ctx, image, Path(workdir), inputs)
        pass_result = _attempt_side(pair, "pass", ctx, image, Path(workdir), inputs)
    if ctx.log_sink is not None:
        for side, res in (("fail", fail_result), ("pass", pass_result)):
            if res.outcome is not None:
                ctx.log_sink(pair_id(pair), attempt_index, side, res.outcome.log_text)
    return fail_result, pass_result


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


def stability_protocol(pair: JobPair, verdict: FilterVerdict, ctx: ReproductionContext,
                       n: int = DEFAULT_REPEATS) -> ReproductionRecord:
    """Repeat the reproduction n times and classify the pair."""
    if n < 1:
        raise ValueError("n must be >= 1")
    attempts: list[tuple[bool, bool]] = []
    last_fail: Optional[SideResult] = None
    with pair_inputs(pair, ctx) as inputs:
        for k in range(n):
            fail_result, pass_result = attempt_pair(pair, verdict, ctx, attempt_index=k, inputs=inputs)
            attempts.append((fail_result.matched, pass_result.matched))
            last_fail = fail_result
    stability = stability_from_attempts(attempts)
    category = None
    reason = None
    if stability != "unreproducible":
        category = classify_reproduced(inputs.originals["fail"])
    else:
        log_text = last_fail.outcome.log_text if last_fail and last_fail.outcome else ""
        timed_out = bool(last_fail and last_fail.outcome and last_fail.outcome.timed_out)
        generation_failed = bool(last_fail and last_fail.reason == "ci_command_issue")
        reason = classify_unreproducible(log_text, timed_out=timed_out, generation_failed=generation_failed)
    return ReproductionRecord(
        pair_id=pair_id(pair),
        attempts=attempts,
        stability=stability,
        category=category,
        unreproducibility_reason=reason,
    )
