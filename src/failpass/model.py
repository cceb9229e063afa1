"""Shared domain types and pass/fail classification rules.

Every pipeline stage works in terms of these value objects. They are
immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import dataclasses
import errno
import functools
import json
import operator
import os
import re
import types
import typing
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional

SHA_RE = re.compile(r"^[0-9a-f]{40}$")


class Status(str, Enum):
    """Terminal state of a CI build or job."""

    PASSED = "passed"
    FAILED = "failed"
    ERRORED = "errored"
    CANCELED = "canceled"


class Event(str, Enum):
    PUSH = "push"
    PULL_REQUEST = "pull_request"


class Outcome(str, Enum):
    FAIL = "fail"
    PASS = "pass"
    EXCLUDED = "excluded"


class Availability(str, Enum):
    AVAILABLE = "available"
    UNAVAILABLE = "unavailable"


class RecoverySource(str, Enum):
    GIT_HISTORY = "git_history"
    ARCHIVE = "archive"
    NONE = "none"


class Stage(str, Enum):
    """Funnel stages reported by the pipeline, in order."""

    ALL_PAIRS = "all_pairs"
    AVAILABLE = "available"
    LOG_PRESENT = "log_present"
    DOCKER_ERA = "docker_era"
    WITH_IMAGE = "with_image"


def outcome_class(status: Status) -> Outcome:
    """Classify a build/job status for pair mining.

    Errored runs count as fail-side candidates (an errored fail side is
    what makes an error-pass pair); canceled runs carry no signal and
    are excluded from adjacency entirely.
    """
    status = Status(status)
    if status is Status.PASSED:
        return Outcome.PASS
    if status in (Status.FAILED, Status.ERRORED):
        return Outcome.FAIL
    return Outcome.EXCLUDED


class ConfigError(ValueError):
    """Raised for a job configuration that cannot be fingerprinted."""


def _normalize(value):
    if isinstance(value, dict):
        return {str(k): _normalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalize(v) for v in value]  # list order is meaningful
    if isinstance(value, str):
        return " ".join(value.split())
    if isinstance(value, (int, float, bool)) or value is None:
        return value
    raise ConfigError(f"unparseable configuration: unsupported value {value!r}")


def config_fingerprint(raw_config) -> str:
    """Canonical text fingerprint of a job configuration.

    Keys are sorted and whitespace inside scalar strings collapsed, so
    equal raw configs always yield equal keys; list order is preserved
    (build matrices are order-sensitive).
    """
    if not isinstance(raw_config, dict):
        raise ConfigError("unparseable configuration: expected a mapping")
    return json.dumps(_normalize(raw_config), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Project:
    slug: str
    primary_language: str
    repo_url: str = ""

    def __post_init__(self):
        if self.slug.count("/") != 1:
            raise ValueError(f"slug must be owner/name: {self.slug!r}")
        if not self.primary_language:
            raise ValueError("primary_language must be non-empty")


@dataclass(frozen=True)
class Job:
    job_id: int
    status: Status
    config_key: str
    log_ref: Optional[str] = None


@dataclass(frozen=True)
class CommitCoordinates:
    trigger_sha: Optional[str]
    base_sha: Optional[str] = None
    merge_sha: Optional[str] = None
    availability: Availability = Availability.UNAVAILABLE
    recovery_source: RecoverySource = RecoverySource.NONE
    reason: Optional[str] = None

    def __post_init__(self):
        for name in ("trigger_sha", "base_sha", "merge_sha"):
            sha = getattr(self, name)
            if sha is not None and not SHA_RE.fullmatch(sha):
                raise ValueError(f"{name} is not a 40-hex sha: {sha!r}")
        if self.availability is Availability.AVAILABLE and self.recovery_source is RecoverySource.NONE:
            raise ValueError("available coordinates need a recovery source")


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 timestamp to an aware UTC datetime, second precision."""
    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc).replace(microsecond=0)


# --- JSON codec ------------------------------------------------------------
#
# Pairs, verdicts, reproduction records and store lines are dataclasses
# written as JSON objects keyed by field name, in field order. Enums are
# written as their values, tuples and lists as arrays, datetimes as
# ISO-8601 and nested dataclasses as objects; None passes through.


@functools.cache
def _value_codec(tp) -> tuple:
    """(encode, decode) for values of one resolved type; None where JSON holds the value as is."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # Optional[X]
        (inner,) = [a for a in args if a is not type(None)]
        enc, dec = _value_codec(inner)
        return (enc and (lambda v: None if v is None else enc(v)),
                dec and (lambda v: None if v is None else dec(v)))
    if tp in (tuple, list) or origin in (tuple, list):
        item_codecs = {_value_codec(a) for a in args if a is not Ellipsis}
        if len(item_codecs) > 1:
            raise TypeError(f"the items of {tp} need different codecs")
        enc, dec = item_codecs.pop() if item_codecs else (None, None)
        seq = origin or tp
        return (list if enc is None else (lambda v: list(map(enc, v))),
                seq if dec is None else (lambda v: seq(map(dec, v))))
    if dataclasses.is_dataclass(tp):
        return _class_codec(tp)
    if isinstance(tp, type) and issubclass(tp, Enum):
        return operator.attrgetter("value"), tp
    if tp is datetime:
        return datetime.isoformat, parse_timestamp
    return None, None


@functools.cache
def _class_codec(cls) -> tuple:
    """(encode, decode) for one dataclass, converting only the fields whose type needs it."""
    hints = typing.get_type_hints(cls)
    codecs = [(f.name, _value_codec(hints[f.name])) for f in dataclasses.fields(cls)]
    encoders = tuple((name, enc) for name, (enc, _) in codecs if enc is not None)
    decoders = tuple((name, dec) for name, (_, dec) in codecs if dec is not None)

    def encode(obj) -> dict:
        d = obj.__dict__.copy()
        for name, enc in encoders:
            d[name] = enc(d[name])
        return d

    def decode(d: dict):
        # an absent key takes the field's default; construction runs __post_init__
        kw = dict(d)
        for name, dec in decoders:
            if name in kw:
                kw[name] = dec(kw[name])
        return cls(**kw)

    return encode, decode


def _to_dict(self) -> dict:
    return _class_codec(type(self))[0](self)


def _from_dict(cls, d: dict):
    return _class_codec(cls)[1](d)


def _open_temp(path: Path):
    """``(tmp, file)``: ``.<name>.<pid>.tmp`` beside ``path``, open for writing; an OSError names ``path``."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        if path.is_dir():  # refused before anything is written: os.replace could not put a file over it
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        return tmp, open(tmp, "wb")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None


def replace_file(path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` over ``path`` via ``.<name>.<pid>.tmp`` and ``os.replace``; any error removes the temp file."""
    path = Path(path)
    tmp, fh = _open_temp(path)
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def check_writable(path) -> None:
    """Raise the OSError ``replace_file(path, ...)`` would raise for a temp file it cannot make; leave nothing."""
    tmp, fh = _open_temp(Path(path))
    fh.close()
    tmp.unlink()


def json_record(cls):
    """Give a dataclass ``to_dict`` and classmethod ``from_dict`` through the JSON codec.

    Both are set on the class itself rather than inherited, so a tracer that
    wraps ``cls.__dict__[name]`` (bench/spans.py) finds them on every record type.
    """
    cls.to_dict = _to_dict
    cls.from_dict = classmethod(_from_dict)
    return cls


@dataclass(frozen=True)
class Build:
    build_id: int
    status: Status
    event: Event
    branch: Optional[str]
    committed_at: datetime
    jobs: tuple[Job, ...]
    pr_number: Optional[int] = None
    raw_trigger_sha: Optional[str] = None
    merge_message: Optional[str] = None

    def __post_init__(self):
        if (self.event is Event.PULL_REQUEST) != (self.pr_number is not None):
            raise ValueError("pr_number must be present exactly for pull_request events")
        if self.status is Status.PASSED and any(j.status is not Status.PASSED for j in self.jobs):
            raise ValueError("a passed build cannot contain non-passed jobs")
        if self.raw_trigger_sha is not None and not SHA_RE.fullmatch(self.raw_trigger_sha):
            raise ValueError(f"trigger_sha is not a 40-hex sha: {self.raw_trigger_sha!r}")

    @property
    def group_key(self) -> tuple:
        if self.event is Event.PULL_REQUEST:
            return (None, self.pr_number)
        return (self.branch, None)

    @property
    def sort_key(self) -> tuple:
        # chronological, ties broken by build_id
        return (self.committed_at, self.build_id)


@json_record
@dataclass(frozen=True)
class JobPair:
    project: Project
    failed_build_id: int
    passed_build_id: int
    failed_job: Job
    passed_job: Job
    failed_commits: CommitCoordinates
    passed_commits: CommitCoordinates
    group_key: tuple

    def __post_init__(self):
        if self.failed_job.config_key != self.passed_job.config_key:
            raise ValueError("paired jobs must share a config_key")


@dataclass(frozen=True)
class PipelineStageCount:
    stage: Stage
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be non-negative")
