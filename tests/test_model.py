import ast
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import failpass
from failpass.model import (
    Availability,
    Build,
    CommitCoordinates,
    ConfigError,
    Event,
    Job,
    Outcome,
    PipelineStageCount,
    Project,
    RecoverySource,
    Status,
    config_fingerprint,
    outcome_class,
    parse_timestamp,
)


class TestOutcomeClass:
    def test_passed_is_pass(self):
        assert outcome_class(Status.PASSED) is Outcome.PASS

    def test_canceled_is_excluded(self):
        assert outcome_class(Status.CANCELED) is Outcome.EXCLUDED

    def test_errored_is_fail(self):
        # required so error-pass pairs can exist at all
        assert outcome_class(Status.ERRORED) is Outcome.FAIL

    def test_failed_is_fail(self):
        assert outcome_class(Status.FAILED) is Outcome.FAIL

    def test_total_and_never_pass_for_fail_side(self):
        for status in Status:
            out = outcome_class(status)
            assert out in Outcome
            if status in (Status.FAILED, Status.ERRORED):
                assert out is not Outcome.PASS


class TestConfigFingerprint:
    def test_key_order_irrelevant(self):
        assert config_fingerprint({"env": "A=1", "jdk": "8"}) == config_fingerprint({"jdk": "8", "env": "A=1"})

    def test_values_distinguish(self):
        assert config_fingerprint({"env": "A=1"}) != config_fingerprint({"env": "A=2"})

    def test_list_order_preserved(self):
        assert config_fingerprint({"s": ["a", "b"]}) != config_fingerprint({"s": ["b", "a"]})

    def test_whitespace_normalized(self):
        assert config_fingerprint({"script": "mvn   test"}) == config_fingerprint({"script": "mvn test"})

    def test_malformed_config_raises(self):
        with pytest.raises(ConfigError):
            config_fingerprint(["not", "a", "mapping"])
        with pytest.raises(ConfigError):
            config_fingerprint({"x": object()})

    def test_deterministic_across_reparses(self, widgets_root):
        raw = json.loads((widgets_root / "acme/widgets/builds.json").read_text())
        cfg = raw[0]["jobs"][0]["config"]
        again = json.loads(json.dumps(cfg))
        assert config_fingerprint(cfg) == config_fingerprint(again)

    def test_permutation_invariance_1000(self):
        base = {f"k{i}": f"v {i}" for i in range(8)}
        keys = set()
        rng = random.Random(7)
        for _ in range(1000):
            items = list(base.items())
            rng.shuffle(items)
            keys.add(config_fingerprint(dict(items)))
        assert len(keys) == 1

    @given(st.dictionaries(st.text(min_size=1, max_size=5),
                           st.one_of(st.text(max_size=8), st.integers(), st.booleans()),
                           max_size=6))
    def test_pure_function(self, cfg):
        assert config_fingerprint(cfg) == config_fingerprint(dict(reversed(list(cfg.items()))))


class TestBuildInvariants:
    def _job(self, status=Status.PASSED):
        return Job(job_id=1, status=status, config_key="k")

    def test_pull_request_requires_pr_number(self):
        with pytest.raises(ValueError):
            Build(build_id=1, status=Status.PASSED, event=Event.PULL_REQUEST, branch="x",
                  committed_at=parse_timestamp("2017-01-01T00:00:00Z"), jobs=(self._job(),))

    def test_push_forbids_pr_number(self):
        with pytest.raises(ValueError):
            Build(build_id=1, status=Status.PASSED, event=Event.PUSH, branch="x", pr_number=5,
                  committed_at=parse_timestamp("2017-01-01T00:00:00Z"), jobs=(self._job(),))

    def test_passed_build_requires_all_jobs_passed(self):
        with pytest.raises(ValueError):
            Build(build_id=1, status=Status.PASSED, event=Event.PUSH, branch="x",
                  committed_at=parse_timestamp("2017-01-01T00:00:00Z"),
                  jobs=(self._job(), self._job(Status.FAILED)))

    def test_fixture_builds_satisfy_pass_invariant(self, widgets_root):
        from failpass.connector import FixtureConnector

        for build in FixtureConnector(widgets_root).fetch_build_history("acme/widgets"):
            if build.status is Status.PASSED:
                assert all(j.status is Status.PASSED for j in build.jobs)

    def test_pr_pushes_have_expected_pr_numbers(self, widgets_root):
        from failpass.connector import FixtureConnector

        for build in FixtureConnector(widgets_root).fetch_build_history("acme/widgets"):
            assert (build.event is Event.PULL_REQUEST) == (build.pr_number is not None)


class TestCommitCoordinates:
    def test_available_needs_source(self):
        with pytest.raises(ValueError):
            CommitCoordinates(trigger_sha="a" * 40, availability=Availability.AVAILABLE,
                              recovery_source=RecoverySource.NONE)

    def test_bad_sha_rejected(self):
        with pytest.raises(ValueError):
            CommitCoordinates(trigger_sha="xyz")


def test_stage_count_non_negative():
    from failpass.model import Stage

    with pytest.raises(ValueError):
        PipelineStageCount(Stage.ALL_PAIRS, -1)


def test_project_slug_validation():
    with pytest.raises(ValueError):
        Project(slug="nodash", primary_language="Java")
    with pytest.raises(ValueError):
        Project(slug="a/b", primary_language="")


def src_nodes():
    """(file name, name of the enclosing function or None, node) of every AST node in src."""
    for path in sorted(Path(failpass.__file__).parent.rglob("*.py")):
        module = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(module) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(module):
            scope = node
            while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                scope = parents[scope]
            yield path.name, getattr(scope, "name", None), node


def test_whole_file_writes_go_through_replace_file():
    """In src, ``os.replace`` is called only inside ``model.replace_file``, and no module calls
    ``write_text`` or ``write_bytes``, so every whole-file write is atomic and removes its temp file."""
    os_replace, path_writes = [], []
    for name, scope, node in src_nodes():
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr in ("write_text", "write_bytes"):
            path_writes.append(f"{name}:{node.lineno}")
        elif node.attr == "replace" and isinstance(node.value, ast.Name) and node.value.id == "os":
            os_replace.append((name, scope))
    assert os_replace == [("model.py", "replace_file")]
    assert path_writes == []


def test_timed_waits_go_through_run_with_timeout():
    """Outside ``runtime._run_with_timeout``, no call in src passes ``timeout=`` and no
    ``communicate`` or ``wait`` call takes a timeout: those waits poll with sleeps once the
    output has ended, where ``_run_with_timeout`` wakes on the process's exit."""
    timed = []
    for name, scope, node in src_nodes():
        if not isinstance(node, ast.Call) or (name, scope) == ("runtime.py", "_run_with_timeout"):
            continue
        # a positional timeout: wait(timeout) or communicate(input, timeout)
        positional = {"wait": 1, "communicate": 2}.get(getattr(node.func, "attr", None))
        if (positional and len(node.args) >= positional) or any(kw.arg == "timeout" for kw in node.keywords):
            timed.append(f"{name}:{node.lineno}")
    assert timed == []


def test_processes_that_outlive_a_call_start_only_in_run_with_timeout():
    """In src, ``subprocess.Popen`` appears only inside ``runtime._run_with_timeout``: every other
    process is a ``subprocess.run`` that has ended when the call returns, so no process outlives it."""
    popens = [(name, scope) for name, scope, node in src_nodes()
              if isinstance(node, ast.Attribute) and node.attr == "Popen"
              or isinstance(node, ast.Name) and node.id == "Popen"
              or isinstance(node, ast.alias) and node.name == "Popen"]
    assert popens == [("runtime.py", "_run_with_timeout")]
