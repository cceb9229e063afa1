"""Filtering of mined pairs down to those worth attempting to reproduce.

A pair survives when its project state is recoverable, the original log
still exists, the job ran in the container era, and a matching base image
can be located in the local image catalog.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from .model import (
    Availability,
    JobPair,
    PipelineStageCount,
    Stage,
    json_record,
    parse_timestamp,
)

DEFAULT_DOCKER_CUTOFF = datetime(2014, 12, 1, tzinfo=timezone.utc)  # Travis CI's container cutover
CONTAINER_WORKER_RE = re.compile(r"worker-[A-Za-z0-9._-]+")

_INSTANCE_RE = re.compile(r"^Using worker:\s*(\S+?)(?::\S+)?\s*$", re.MULTILINE)
_PROVISION_RE = re.compile(
    r"^Build image provisioning date and time:\s*(\S+)\s*$", re.MULTILINE
)


@dataclass(frozen=True)
class RuntimeMarkers:
    timestamp: datetime
    instance_name: str


@dataclass(frozen=True)
class ImageRef:
    registry: str
    name: str
    tag: str
    built_at: datetime
    instance_name: str


@json_record
@dataclass(frozen=True)
class FilterVerdict:
    pair: JobPair
    stage_reached: Stage
    image_ref: Optional[ImageRef] = None
    reject_reason: Optional[str] = None

    def __post_init__(self):
        if (self.image_ref is not None) != (self.stage_reached is Stage.WITH_IMAGE):
            raise ValueError("image_ref present exactly when stage_reached is with_image")


def check_availability(pair: JobPair) -> bool:
    """Both sides' project state must be recoverable."""
    return (
        pair.failed_commits.availability is Availability.AVAILABLE
        and pair.passed_commits.availability is Availability.AVAILABLE
    )


def extract_runtime_markers(log_text: str) -> Optional[RuntimeMarkers]:
    """Parse the worker-identification header out of a job log.

    Returns None unless both the instance name and a well-formed
    provisioning timestamp are present (strict parse).
    """
    inst = _INSTANCE_RE.search(log_text)
    ts = _PROVISION_RE.search(log_text)
    if inst is None or ts is None:
        return None
    try:
        stamp = parse_timestamp(ts.group(1))
    except ValueError:
        return None
    return RuntimeMarkers(timestamp=stamp, instance_name=inst.group(1))


def is_docker_era(markers: RuntimeMarkers) -> bool:
    """Did the job run on a container worker after the container cutover?"""
    return (markers.timestamp >= DEFAULT_DOCKER_CUTOFF
            and CONTAINER_WORKER_RE.fullmatch(markers.instance_name) is not None)


class CatalogError(Exception):
    pass


def load_catalog(path) -> list[dict]:
    """The image catalog, a JSON array of objects; CatalogError names the file and any bad entry (from 1)."""
    try:
        entries = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise CatalogError(f"catalog unreadable: {path}: {exc}") from exc
    if not isinstance(entries, list):
        raise CatalogError(f"catalog unreadable: {path}: not a JSON array of objects")
    for n, e in enumerate(entries, 1):
        try:
            e["built_at"] = parse_timestamp(e["built_at"])
            e["instance_re"] = re.compile(e["instance_pattern"])
            if not all(isinstance(e[k], str) for k in ("registry", "name", "tag", "language")):
                raise TypeError("registry, name, tag and language must be strings")
        except (KeyError, TypeError, AttributeError, ValueError, re.error) as exc:
            raise CatalogError(f"catalog unreadable: {path}, entry {n}: {type(exc).__name__}: {exc}") from None
    return entries


def locate_base_image(markers: RuntimeMarkers, language: str, catalog: list[dict]) -> Optional[ImageRef]:
    """Latest catalog image not newer than the log, matching language + worker name."""
    candidates = [
        e
        for e in catalog
        if e["language"].lower() == language.lower()
        and e["built_at"] <= markers.timestamp
        and e["instance_re"].fullmatch(markers.instance_name)
    ]
    if not candidates:
        return None
    best = max(candidates, key=lambda e: (e["built_at"], e["name"], e["tag"]))
    return ImageRef(
        registry=best["registry"],
        name=best["name"],
        tag=best["tag"],
        built_at=best["built_at"],
        instance_name=markers.instance_name,
    )


def filter_pairs(pairs: list[JobPair], fetch_log,
                 catalog: list[dict]) -> tuple[list[FilterVerdict], list[PipelineStageCount]]:
    """Run the funnel and report per-stage survivor counts.

    ``fetch_log(job_id) -> str | None`` supplies original fail-side logs;
    logs are fetched lazily, only for pairs that reach that stage.
    """
    verdicts = []
    counts = {s: 0 for s in Stage}
    for pair in pairs:
        counts[Stage.ALL_PAIRS] += 1
        if not check_availability(pair):
            verdicts.append(FilterVerdict(pair, Stage.ALL_PAIRS, reject_reason="state unrecoverable"))
            continue
        counts[Stage.AVAILABLE] += 1
        log_text = fetch_log(pair.failed_job.job_id)
        if log_text is None:
            verdicts.append(FilterVerdict(pair, Stage.AVAILABLE, reject_reason="original log absent"))
            continue
        counts[Stage.LOG_PRESENT] += 1
        markers = extract_runtime_markers(log_text)
        if markers is None or not is_docker_era(markers):
            verdicts.append(FilterVerdict(pair, Stage.LOG_PRESENT, reject_reason="pre-container era or no worker header"))
            continue
        counts[Stage.DOCKER_ERA] += 1
        image = locate_base_image(markers, pair.project.primary_language, catalog)
        if image is None:
            verdicts.append(FilterVerdict(pair, Stage.DOCKER_ERA, reject_reason="no base image located"))
            continue
        counts[Stage.WITH_IMAGE] += 1
        verdicts.append(FilterVerdict(pair, Stage.WITH_IMAGE, image_ref=image))
    stage_counts = [PipelineStageCount(s, counts[s]) for s in counts]
    return verdicts, stage_counts
