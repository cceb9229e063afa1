"""Fail-pass pair mining.

Delinearizes a project's build history into branch/PR groups, finds
consecutive fail->pass builds per group, recovers commit coordinates for
both sides, and emits configuration-matched job pairs.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Optional

from .connector import FixtureConnector, commit_exists, known_commits
from .model import (
    Availability,
    Build,
    CommitCoordinates,
    Event,
    JobPair,
    Outcome,
    Project,
    RecoverySource,
    Status,
    outcome_class,
)

log = logging.getLogger(__name__)

QUARANTINE_KEY = ("__quarantine__", None)

# phantom-merge commit message, e.g. "Merge 0a1b... into 9f8e..."
MERGE_MESSAGE_RE = re.compile(r"Merge\s+([0-9a-f]{40})\s+into\s+([0-9a-f]{40})")


@dataclass(frozen=True)
class BuildGroup:
    group_key: tuple
    builds: tuple[Build, ...]


def group_builds(history: list[Build]) -> list[BuildGroup]:
    """Partition a build history by branch (push) or PR number.

    PR builds group on their PR number regardless of the temporary branch
    the service ran them on. Builds with neither a branch nor a PR number
    go to a quarantine group and are never paired.
    """
    buckets: dict[tuple, list[Build]] = {}
    for b in history:
        key = b.group_key
        if key == (None, None):  # a push build without a branch
            key = QUARANTINE_KEY
            log.warning("build %s has neither branch nor pr_number; quarantined", b.build_id)
        buckets.setdefault(key, []).append(b)
    groups = []
    for key in sorted(buckets, key=repr):
        ordered = tuple(sorted(buckets[key], key=lambda b: b.sort_key))
        groups.append(BuildGroup(group_key=key, builds=ordered))
    return groups


def extract_fail_pass_build_pairs(group: BuildGroup) -> list[tuple[Build, Build]]:
    """Adjacent (fail, pass) build pairs after dropping excluded builds."""
    if group.group_key == QUARANTINE_KEY:
        return []
    seq = [b for b in group.builds if outcome_class(b.status) is not Outcome.EXCLUDED]
    return [
        (a, b)
        for a, b in zip(seq, seq[1:])
        if outcome_class(a.status) is Outcome.FAIL and outcome_class(b.status) is Outcome.PASS
    ]


def _named_commits(build: Build) -> tuple[str, ...]:
    """The commits git history must hold to rebuild the build, empty when it records none.

    A push build names its trigger; a PR build names the trigger and base
    of its phantom-merge message, in that order.
    """
    if build.event is Event.PUSH:
        return () if build.raw_trigger_sha is None else (build.raw_trigger_sha,)
    match = MERGE_MESSAGE_RE.search(build.merge_message or "")
    return () if match is None else match.groups()


def assign_commits(build: Build, repo, archive_has) -> CommitCoordinates:
    """Recover commit coordinates and decide availability for one build.

    ``repo`` is the clone's path, its ``known_commits``, or None.
    ``archive_has(sha) -> bool`` probes the code-host zip archive. For PR
    builds the service-reported sha is the phantom merge; the trigger and
    base shas live in the stored merge commit message. Availability holds
    when the state can be rebuilt from git history (preferred) or fetched
    from the archive.
    """
    shas = _named_commits(build)
    in_git = repo is not None and bool(shas) and all(commit_exists(repo, sha) for sha in shas)
    if build.event is Event.PUSH:
        if not shas:
            return CommitCoordinates(trigger_sha=None, reason="no trigger sha recorded")
        (t,) = shas
        if in_git:
            return CommitCoordinates(
                trigger_sha=t,
                availability=Availability.AVAILABLE,
                recovery_source=RecoverySource.GIT_HISTORY,
            )
        if archive_has(t):
            return CommitCoordinates(
                trigger_sha=t,
                availability=Availability.AVAILABLE,
                recovery_source=RecoverySource.ARCHIVE,
            )
        return CommitCoordinates(trigger_sha=t, reason="trigger commit not recoverable")

    # pull request: recover trigger t and base b from the phantom-merge message
    m = build.raw_trigger_sha
    if not shas:
        return CommitCoordinates(trigger_sha=None, merge_sha=m, reason="merge message unparsed")
    t, b = shas
    if in_git:
        return CommitCoordinates(
            trigger_sha=t,
            base_sha=b,
            merge_sha=m,
            availability=Availability.AVAILABLE,
            recovery_source=RecoverySource.GIT_HISTORY,
        )
    if m is not None and archive_has(m):
        return CommitCoordinates(
            trigger_sha=t,
            base_sha=b,
            merge_sha=m,
            availability=Availability.AVAILABLE,
            recovery_source=RecoverySource.ARCHIVE,
        )
    return CommitCoordinates(trigger_sha=t, base_sha=b, merge_sha=m, reason="commits not recoverable")


def extract_job_pairs(
    project: Project,
    fail_build: Build,
    pass_build: Build,
    failed_commits: CommitCoordinates,
    passed_commits: CommitCoordinates,
) -> list[JobPair]:
    """Match failed/errored jobs against passed jobs with equal config keys.

    Each job matches at most once; duplicates within a build are paired
    greedily by ascending job_id with a warning.
    """
    fail_jobs = sorted(
        (j for j in fail_build.jobs if outcome_class(j.status) is Outcome.FAIL),
        key=lambda j: j.job_id,
    )
    pass_jobs = sorted(
        (j for j in pass_build.jobs if j.status is Status.PASSED),
        key=lambda j: j.job_id,
    )
    for side, jobs in (("fail", fail_jobs), ("pass", pass_jobs)):
        keys = [j.config_key for j in jobs]
        if len(keys) != len(set(keys)):
            log.warning(
                "duplicate config keys on %s side of builds (%s, %s); pairing greedily by job_id",
                side, fail_build.build_id, pass_build.build_id,
            )
    pairs = []
    used: set[int] = set()
    for j_f in fail_jobs:
        for j_p in pass_jobs:
            if j_p.job_id in used or j_p.config_key != j_f.config_key:
                continue
            used.add(j_p.job_id)
            pairs.append(
                JobPair(
                    project=project,
                    failed_build_id=fail_build.build_id,
                    passed_build_id=pass_build.build_id,
                    failed_job=j_f,
                    passed_job=j_p,
                    failed_commits=failed_commits,
                    passed_commits=passed_commits,
                    group_key=fail_build.group_key,
                )
            )
            break
    return pairs


def mine_history(project: Project, history: list[Build], assign) -> list[JobPair]:
    """Core pipeline over an in-memory history.

    ``assign(build) -> CommitCoordinates`` recovers commit coordinates;
    the connector-free entry point exists so the miner can be checked
    against brute-force oracles without I/O.
    """
    out: list[JobPair] = []
    for group in group_builds(history):
        for fail_build, pass_build in extract_fail_pass_build_pairs(group):
            out.extend(
                extract_job_pairs(project, fail_build, pass_build, assign(fail_build), assign(pass_build))
            )
    return out


def mine(slug: str, connector: FixtureConnector, language: Optional[str] = None) -> list[JobPair]:
    """Run the full mining pipeline for one project.

    Every commit the history names is looked up in one ``known_commits`` call.
    """
    history = connector.fetch_build_history(slug)
    repo = connector.repo_path(slug)
    known = None if repo is None else known_commits(repo, (sha for b in history for sha in _named_commits(b)))
    archive_has = lambda sha: connector.archive_has(slug, sha)
    project = Project(slug=slug, primary_language=language or _guess_language(history) or "other")
    return mine_history(project, history, lambda b: assign_commits(b, known, archive_has))


def _guess_language(history: list[Build]) -> Optional[str]:
    for b in history:
        for j in b.jobs:
            for lang in ("java", "python"):
                if f'"language":"{lang}"' in j.config_key:
                    return lang.capitalize()
    return None
