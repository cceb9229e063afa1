from datetime import datetime, timezone

import pytest

from failpass.model import (
    Availability,
    CommitCoordinates,
    Job,
    JobPair,
    Project,
    RecoverySource,
    Stage,
    Status,
    parse_timestamp,
)
from failpass.pairfilter import (
    CatalogError,
    DEFAULT_DOCKER_CUTOFF,
    RuntimeMarkers,
    check_availability,
    extract_runtime_markers,
    filter_pairs,
    is_docker_era,
    load_catalog,
    locate_base_image,
)
from conftest import LOG_TS, WORKER, log_header

PROJECT = Project(slug="t/p", primary_language="Java")
AVAIL = CommitCoordinates(trigger_sha="a" * 40, availability=Availability.AVAILABLE,
                          recovery_source=RecoverySource.GIT_HISTORY)
UNAVAIL = CommitCoordinates(trigger_sha="b" * 40, reason="gone")


def mk_pair(n, f_avail=True, p_avail=True, language="Java"):
    proj = Project(slug="t/p", primary_language=language)
    return JobPair(
        project=proj,
        failed_build_id=n,
        passed_build_id=n + 1,
        failed_job=Job(job_id=n * 10, status=Status.FAILED, config_key="cfg"),
        passed_job=Job(job_id=n * 10 + 1, status=Status.PASSED, config_key="cfg"),
        failed_commits=AVAIL if f_avail else UNAVAIL,
        passed_commits=AVAIL if p_avail else UNAVAIL,
        group_key=("master", None),
    )


class TestAvailability:
    def test_both_sides_required(self):
        assert check_availability(mk_pair(1))
        assert not check_availability(mk_pair(1, f_avail=False))
        assert not check_availability(mk_pair(1, p_avail=False))
        assert not check_availability(mk_pair(1, f_avail=False, p_avail=False))


class TestRuntimeMarkers:
    def test_full_header_parses(self):
        m = extract_runtime_markers(log_header())
        assert m == RuntimeMarkers(timestamp=parse_timestamp(LOG_TS), instance_name=WORKER)

    def test_instance_suffix_is_stripped(self):
        text = f"Using worker: {WORKER}:instance-9\nBuild image provisioning date and time: {LOG_TS}\n"
        m = extract_runtime_markers(text)
        assert m.instance_name == WORKER

    def test_missing_either_line_yields_none(self):
        assert extract_runtime_markers(f"Using worker: {WORKER}\n") is None
        assert extract_runtime_markers(f"Build image provisioning date and time: {LOG_TS}\n") is None
        assert extract_runtime_markers("") is None

    def test_malformed_timestamp_yields_none(self):
        text = f"Using worker: {WORKER}\nBuild image provisioning date and time: yesterday\n"
        assert extract_runtime_markers(text) is None

    def test_marker_lines_must_be_anchored(self):
        text = f"echo Using worker: {WORKER} extra\nBuild image provisioning date and time: {LOG_TS}\n"
        assert extract_runtime_markers(text) is None


class TestDockerEra:
    def _m(self, ts, name=WORKER):
        return RuntimeMarkers(timestamp=parse_timestamp(ts), instance_name=name)

    def test_cutoff_is_inclusive(self):
        assert is_docker_era(self._m("2014-12-01T00:00:00Z"))
        assert not is_docker_era(self._m("2014-11-30T23:59:59Z"))

    def test_non_container_worker_rejected(self):
        assert not is_docker_era(self._m(LOG_TS, name="vm-legacy-01"))

    def test_default_cutoff_value(self):
        assert DEFAULT_DOCKER_CUTOFF == datetime(2014, 12, 1, tzinfo=timezone.utc)


class TestCatalog:
    def test_load_and_locate(self, catalog_path):
        catalog = load_catalog(catalog_path)
        m = RuntimeMarkers(timestamp=parse_timestamp(LOG_TS), instance_name=WORKER)
        ref = locate_base_image(m, "Java", catalog)
        assert ref is not None
        # two java images predate the log; the later build wins
        assert ref.built_at == max(
            e["built_at"] for e in catalog
            if e["language"].lower() == "java" and e["built_at"] <= m.timestamp
        )

    def test_language_is_case_insensitive(self, catalog_path):
        catalog = load_catalog(catalog_path)
        m = RuntimeMarkers(timestamp=parse_timestamp(LOG_TS), instance_name=WORKER)
        assert locate_base_image(m, "java", catalog) == locate_base_image(m, "JAVA", catalog)

    def test_no_image_before_catalog_starts(self, catalog_path):
        catalog = load_catalog(catalog_path)
        m = RuntimeMarkers(timestamp=parse_timestamp("2014-12-02T00:00:00Z"), instance_name=WORKER)
        assert locate_base_image(m, "Java", catalog) is None

    def test_instance_pattern_must_match(self, catalog_path):
        catalog = load_catalog(catalog_path)
        m = RuntimeMarkers(timestamp=parse_timestamp(LOG_TS), instance_name="vm-legacy-01")
        assert locate_base_image(m, "Java", catalog) is None

    def test_unreadable_catalog_raises(self, tmp_path):
        bad = tmp_path / "cat.json"
        bad.write_text("{not json")
        with pytest.raises(CatalogError):
            load_catalog(bad)
        with pytest.raises(CatalogError):
            load_catalog(tmp_path / "missing.json")


class TestFilterPairs:
    def test_funnel_counts_and_stages(self, catalog_path):
        catalog = load_catalog(catalog_path)
        pairs = [
            mk_pair(1),                      # full pass -> with_image
            mk_pair(2, f_avail=False),       # stops at all_pairs
            mk_pair(3),                      # no log
            mk_pair(4),                      # pre-docker header
            mk_pair(5, language="Ruby"),     # docker era but no catalog image
        ]
        logs = {
            10: log_header(),
            40: log_header(ts="2013-05-01T00:00:00Z"),
            50: log_header(),
        }
        verdicts, counts = filter_pairs(pairs, lambda j: logs.get(j), catalog)
        by_id = {v.pair.failed_build_id: v for v in verdicts}
        assert by_id[1].stage_reached is Stage.WITH_IMAGE and by_id[1].image_ref is not None
        assert by_id[2].stage_reached is Stage.ALL_PAIRS
        assert by_id[3].stage_reached is Stage.AVAILABLE
        assert by_id[4].stage_reached is Stage.LOG_PRESENT
        assert by_id[5].stage_reached is Stage.DOCKER_ERA
        got = {c.stage.value: c.count for c in counts}
        assert got == {"all_pairs": 5, "available": 4, "log_present": 3, "docker_era": 2, "with_image": 1}

    def test_monotone_funnel_counts(self, catalog_path):
        import random

        catalog = load_catalog(catalog_path)
        rng = random.Random(7)
        for _ in range(50):
            pairs = [mk_pair(i, f_avail=rng.random() < 0.7) for i in range(1, rng.randrange(2, 10))]
            logs = {p.failed_job.job_id: log_header() for p in pairs if rng.random() < 0.7}
            _, counts = filter_pairs(pairs, lambda j: logs.get(j), catalog)
            seq = [c.count for c in counts]
            assert seq == sorted(seq, reverse=True)
            assert seq[0] == len(pairs)

    def test_logs_fetched_lazily(self, catalog_path):
        catalog = load_catalog(catalog_path)
        fetched = []

        def fetch(job_id):
            fetched.append(job_id)
            return log_header()

        filter_pairs([mk_pair(1, f_avail=False), mk_pair(2)], fetch, catalog)
        assert fetched == [20]
