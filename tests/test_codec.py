"""The JSON codec of the record dataclasses: on-disk layouts, round trips, defaults and decode-time checks."""

import json
import string
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

from failpass.analyzer import LogAttributes
from failpass.model import (
    Availability,
    CommitCoordinates,
    Job,
    JobPair,
    Project,
    RecoverySource,
    Stage,
    Status,
)
from failpass.pairfilter import FilterVerdict, ImageRef
from failpass.reproducer import ReproductionRecord
from failpass.store import ArtifactMetadata, SideInfo

A, B, C, D = "a" * 40, "b" * 40, "c" * 40, "d" * 40
PROJECT = Project("acme/widgets", "java", "https://example.invalid/acme/widgets.git")
PUSH_PAIR = JobPair(
    PROJECT, 101, 102,
    Job(1011, Status.FAILED, '{"jdk":"8"}', "logs/1011.txt"),
    Job(1021, Status.PASSED, '{"jdk":"8"}'),
    CommitCoordinates(A, availability=Availability.AVAILABLE, recovery_source=RecoverySource.GIT_HISTORY),
    CommitCoordinates(B, availability=Availability.AVAILABLE, recovery_source=RecoverySource.ARCHIVE),
    ("master", None),
)
MERGE_PAIR = JobPair(
    PROJECT, 201, 202,
    Job(2011, Status.ERRORED, "{}"),
    Job(2021, Status.PASSED, "{}"),
    CommitCoordinates(A, base_sha=C, merge_sha=D, availability=Availability.AVAILABLE,
                      recovery_source=RecoverySource.GIT_HISTORY),
    CommitCoordinates(None, merge_sha=B, reason="merge message unparsed"),
    (None, 7),
)
IMAGE = ImageRef("registry.example", "java-jdk8", "2015-01",
                 datetime(2015, 1, 2, 3, 4, 5, tzinfo=timezone.utc), "worker-linux-3")
META = ArtifactMetadata(
    "acme-widgets-1011", "acme/widgets", "java", "Maven", "JUnit", 5, 3, "3/5", "with_failed_test",
    SideInfo(101, 1011, 12, 2, ("t.A.x", "t.B.y"), A, "master"),
    SideInfo(102, 1021, 12, 0, (), B, "master"),
    num_changes=14, num_files_changed=3, merge_timestamp="2017-01-01T00:00:00+00:00", branch="master",
    error_tags=(("AssertionError", 2), ("NullPointerException", 1)),
)

# json.dumps(record.to_dict()) as the hand-written encoders wrote it before the codec replaced them
GOLDEN = {
    "push_pair": (
        PUSH_PAIR,
        r'{"project": {"slug": "acme/widgets", "primary_language": "java", '
        r'"repo_url": "https://example.invalid/acme/widgets.git"}, "failed_build_id": 101, '
        r'"passed_build_id": 102, "failed_job": {"job_id": 1011, "status": "failed", '
        r'"config_key": "{\"jdk\":\"8\"}", "log_ref": "logs/1011.txt"}, "passed_job": {"job_id": 1021, '
        r'"status": "passed", "config_key": "{\"jdk\":\"8\"}", "log_ref": null}, '
        r'"failed_commits": {"trigger_sha": "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", "base_sha": null, '
        r'"merge_sha": null, "availability": "available", "recovery_source": "git_history", '
        r'"reason": null}, "passed_commits": {"trigger_sha": "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb", '
        r'"base_sha": null, "merge_sha": null, "availability": "available", "recovery_source": "archive", '
        r'"reason": null}, "group_key": ["master", null]}',
    ),
    "phantom_merge_pair": (
        MERGE_PAIR,
        r'{"project": {"slug": "acme/widgets", "primary_language": "java", '
        r'"repo_url": "https://example.invalid/acme/widgets.git"}, "failed_build_id": 201, '
        r'"passed_build_id": 202, "failed_job": {"job_id": 2011, "status": "errored", "config_key": "{}", '
        r'"log_ref": null}, "passed_job": {"job_id": 2021, "status": "passed", "config_key": "{}", '
        r'"log_ref": null}, "failed_commits": {"trigger_sha": "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", '
        r'"base_sha": "cccccccccccccccccccccccccccccccccccccccc", '
        r'"merge_sha": "dddddddddddddddddddddddddddddddddddddddd", "availability": "available", '
        r'"recovery_source": "git_history", "reason": null}, "passed_commits": {"trigger_sha": null, '
        r'"base_sha": null, "merge_sha": "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb", '
        r'"availability": "unavailable", "recovery_source": "none", "reason": "merge message unparsed"}, '
        r'"group_key": [null, 7]}',
    ),
    "verdict_with_image": (
        FilterVerdict(PUSH_PAIR, Stage.WITH_IMAGE, image_ref=IMAGE),
        r'{"pair": {"project": {"slug": "acme/widgets", "primary_language": "java", '
        r'"repo_url": "https://example.invalid/acme/widgets.git"}, "failed_build_id": 101, '
        r'"passed_build_id": 102, "failed_job": {"job_id": 1011, "status": "failed", '
        r'"config_key": "{\"jdk\":\"8\"}", "log_ref": "logs/1011.txt"}, "passed_job": {"job_id": 1021, '
        r'"status": "passed", "config_key": "{\"jdk\":\"8\"}", "log_ref": null}, '
        r'"failed_commits": {"trigger_sha": "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", "base_sha": null, '
        r'"merge_sha": null, "availability": "available", "recovery_source": "git_history", '
        r'"reason": null}, "passed_commits": {"trigger_sha": "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb", '
        r'"base_sha": null, "merge_sha": null, "availability": "available", "recovery_source": "archive", '
        r'"reason": null}, "group_key": ["master", null]}, "stage_reached": "with_image", '
        r'"image_ref": {"registry": "registry.example", "name": "java-jdk8", "tag": "2015-01", '
        r'"built_at": "2015-01-02T03:04:05+00:00", "instance_name": "worker-linux-3"}, '
        r'"reject_reason": null}',
    ),
    "verdict_rejected": (
        FilterVerdict(MERGE_PAIR, Stage.AVAILABLE, reject_reason="original log absent"),
        r'{"pair": {"project": {"slug": "acme/widgets", "primary_language": "java", '
        r'"repo_url": "https://example.invalid/acme/widgets.git"}, "failed_build_id": 201, '
        r'"passed_build_id": 202, "failed_job": {"job_id": 2011, "status": "errored", "config_key": "{}", '
        r'"log_ref": null}, "passed_job": {"job_id": 2021, "status": "passed", "config_key": "{}", '
        r'"log_ref": null}, "failed_commits": {"trigger_sha": "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", '
        r'"base_sha": "cccccccccccccccccccccccccccccccccccccccc", '
        r'"merge_sha": "dddddddddddddddddddddddddddddddddddddddd", "availability": "available", '
        r'"recovery_source": "git_history", "reason": null}, "passed_commits": {"trigger_sha": null, '
        r'"base_sha": null, "merge_sha": "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb", '
        r'"availability": "unavailable", "recovery_source": "none", "reason": "merge message unparsed"}, '
        r'"group_key": [null, 7]}, "stage_reached": "available", "image_ref": null, '
        r'"reject_reason": "original log absent"}',
    ),
    "reproduction_record": (
        ReproductionRecord("acme-widgets-1011", [(True, True), (False, True)], "flaky", category="with_failed_test"),
        r'{"pair_id": "acme-widgets-1011", "attempts": [[true, true], [false, true]], '
        r'"stability": "flaky", "category": "with_failed_test", "unreproducibility_reason": null}',
    ),
    "unreproducible_record": (
        ReproductionRecord("acme-widgets-2011", [(False, True)], "unreproducible",
                           unreproducibility_reason="project_specific"),
        r'{"pair_id": "acme-widgets-2011", "attempts": [[false, true]], "stability": "unreproducible", '
        r'"category": null, "unreproducibility_reason": "project_specific"}',
    ),
    "artifact_metadata": (
        META,
        r'{"image_tag": "acme-widgets-1011", "slug": "acme/widgets", "primary_language": "java", '
        r'"build_system": "Maven", "test_framework": "JUnit", "attempts": 5, "successes": 3, '
        r'"stability": "3/5", "category": "with_failed_test", "failed": {"build_id": 101, "job_id": 1011, '
        r'"num_tests_run": 12, "num_tests_failed": 2, "failed_test_names": ["t.A.x", "t.B.y"], '
        r'"trigger_sha": "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", "branch": "master"}, '
        r'"passed": {"build_id": 102, "job_id": 1021, "num_tests_run": 12, "num_tests_failed": 0, '
        r'"failed_test_names": [], "trigger_sha": "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb", '
        r'"branch": "master"}, "num_changes": 14, "num_files_changed": 3, "pr_number": null, '
        r'"merge_timestamp": "2017-01-01T00:00:00+00:00", "branch": "master", '
        r'"error_tags": [["AssertionError", 2], ["NullPointerException", 1]]}',
    ),
    "log_attributes": (
        LogAttributes("failed", "Ubuntu 14.04", "Maven", "JUnit", 10, 2, 1, ("t.A.x", "t.B.y")),
        r'{"status": "failed", "os": "Ubuntu 14.04", "build_system": "Maven", "test_framework": "JUnit", '
        r'"num_tests_run": 10, "num_tests_failed": 2, "num_tests_skipped": 1, '
        r'"failed_test_names": ["t.A.x", "t.B.y"]}',
    ),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_layout_is_byte_identical_and_old_lines_load(name):
    record, line = GOLDEN[name]
    assert json.dumps(record.to_dict()) == line
    assert record.to_dict() == json.loads(line)  # plain lists, never tuples
    assert type(record).from_dict(json.loads(line)) == record


# --- round trips -----------------------------------------------------------

_names = st.text(string.ascii_letters + string.digits + "-_.", min_size=1, max_size=12)
_shas = st.none() | st.text("0123456789abcdef", min_size=40, max_size=40)
_ids = st.integers(1, 2**31)
_coords = st.builds(
    lambda shas, state, reason: CommitCoordinates(*shas, *state, reason),
    st.tuples(_shas, _shas, _shas),
    st.tuples(st.sampled_from(Availability), st.sampled_from(RecoverySource)).filter(
        lambda s: s != (Availability.AVAILABLE, RecoverySource.NONE)),
    st.none() | st.text(),
)


@st.composite
def _pairs(draw):
    config_key = draw(st.text())
    job = lambda: Job(draw(_ids), draw(st.sampled_from(Status)), config_key, draw(st.none() | st.text()))
    project = Project(f"{draw(_names)}/{draw(_names)}", draw(st.sampled_from(["java", "python"])), draw(st.text()))
    group_key = draw(st.tuples(st.text(), st.none()) | st.tuples(st.none(), _ids))
    return JobPair(project, draw(_ids), draw(_ids), job(), job(), draw(_coords), draw(_coords), group_key)


@st.composite
def _verdicts(draw):
    stage = draw(st.sampled_from(Stage))
    image = None
    if stage is Stage.WITH_IMAGE:
        built_at = draw(st.datetimes(min_value=datetime(2000, 1, 1), max_value=datetime(2100, 1, 1),
                                     timezones=st.just(timezone.utc))).replace(microsecond=0)
        image = ImageRef(draw(_names), draw(_names), draw(_names), built_at, draw(_names))
    return FilterVerdict(draw(_pairs()), stage, image_ref=image, reject_reason=draw(st.none() | st.text()))


@st.composite
def _metadata(draw):
    side = lambda: SideInfo(draw(_ids), draw(_ids), draw(st.integers(0, 500)), draw(st.integers(0, 500)),
                            tuple(draw(st.lists(st.text(), max_size=4))), draw(_shas), draw(st.none() | _names))
    attempts = draw(st.integers(0, 10))
    tags = draw(st.lists(st.tuples(_names, st.integers(1, 99)), max_size=4))
    return ArtifactMetadata(
        draw(_names), f"{draw(_names)}/{draw(_names)}", draw(_names), draw(_names), draw(_names), attempts,
        draw(st.integers(0, attempts)), draw(_names), draw(st.none() | _names), side(), side(),
        num_changes=draw(st.integers(0, 10**5)), num_files_changed=draw(st.integers(0, 500)),
        pr_number=draw(st.none() | _ids), merge_timestamp=draw(st.none() | st.text()),
        branch=draw(st.none() | _names), error_tags=tuple(tags))


@pytest.mark.parametrize("strategy", [_pairs(), _verdicts(), _metadata()],
                         ids=["JobPair", "FilterVerdict", "ArtifactMetadata"])
def test_round_trip_through_json(strategy):
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(strategy)
    def check(record):
        assert type(record).from_dict(json.loads(json.dumps(record.to_dict()))) == record

    check()


# --- decoding --------------------------------------------------------------


def _meta_line() -> dict:
    return json.loads(GOLDEN["artifact_metadata"][1])


def test_absent_keys_take_the_field_defaults():
    d = _meta_line()
    del d["error_tags"]
    del d["failed"]["failed_test_names"]
    record = ArtifactMetadata.from_dict(d)
    assert record.error_tags == ()
    assert record.failed.failed_test_names == ()
    assert record.passed == META.passed


def test_decode_leaves_its_input_unchanged():
    d = _meta_line()
    ArtifactMetadata.from_dict(d)
    assert d == _meta_line()


def test_store_line_with_more_successes_than_attempts_is_rejected():
    d = _meta_line()
    d["successes"] = d["attempts"] + 1
    with pytest.raises(ValueError, match="successes cannot exceed attempts"):
        ArtifactMetadata.from_dict(d)


def test_verdict_with_image_below_with_image_stage_is_rejected():
    d = json.loads(GOLDEN["verdict_with_image"][1])
    d["stage_reached"] = Stage.DOCKER_ERA.value
    with pytest.raises(ValueError, match="image_ref present exactly"):
        FilterVerdict.from_dict(d)
