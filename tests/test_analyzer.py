import json
import random
import string
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from failpass.analyzer import (
    ErrorTag,
    LogAttributes,
    NONE_DETECTED,
    analyze,
    clean_log,
    compare,
    extract_error_tags,
    extract_status,
)

LOG_DIR = Path(__file__).parent / "fixtures" / "logs"
EXPECTED_DIR = Path(__file__).parent / "fixtures" / "expected"

CORPUS = sorted(p.stem for p in LOG_DIR.glob("*.txt"))


def corpus_language(name: str) -> str:
    return "python" if any(k in name for k in ("pytest", "unittest", "nose", "python", "truncated")) else "java"


class TestGoldenCorpus:
    def test_corpus_is_large_enough(self):
        assert len(CORPUS) >= 20

    @pytest.mark.parametrize("name", CORPUS)
    def test_matches_expected_attributes(self, name):
        log = (LOG_DIR / f"{name}.txt").read_text()
        expected = LogAttributes.from_dict(json.loads((EXPECTED_DIR / f"{name}.json").read_text()))
        got = analyze(log, corpus_language(name))
        assert got == expected

    @pytest.mark.parametrize("name", CORPUS)
    def test_self_comparison_holds(self, name):
        log = (LOG_DIR / f"{name}.txt").read_text()
        attrs = analyze(log, corpus_language(name))
        assert compare(attrs, attrs)


class TestCleanLog:
    def test_strips_ansi_sequences(self):
        assert clean_log("\x1b[31mFAILED\x1b[0m test\n") == "FAILED test\n"

    def test_carriage_return_keeps_final_overwrite(self):
        assert clean_log("Downloading 10%\rDownloading 100%\ndone\n") == "Downloading 100%\ndone\n"

    def test_plain_text_unchanged(self):
        text = "Tests run: 3, Failures: 0\n"
        assert clean_log(text) == text


class TestDetection:
    def test_earliest_build_system_marker_wins(self):
        log = (LOG_DIR / "java_composite_gradle_first.txt").read_text()
        assert analyze(log, "java").build_system == "Gradle"

    def test_no_marker_yields_none_detected(self):
        attrs = analyze("hello world\n", "java")
        assert (attrs.build_system, attrs.test_framework) == (NONE_DETECTED, NONE_DETECTED)

    def test_framework_restricted_by_language(self):
        java_log = "[INFO] Scanning for projects...\nTests run: 3, Failures: 0, Errors: 0, Skipped: 0\n"
        assert analyze(java_log, "java").test_framework == "JUnit"
        assert analyze(java_log, "python").test_framework == NONE_DETECTED
        py_log = "Ran 4 tests in 0.1s\n\nOK\n"
        assert analyze(py_log, "python").test_framework == "unittest"
        assert analyze(py_log, "java").test_framework == NONE_DETECTED


class TestExtractStatus:
    def test_exit_zero_is_passed(self):
        assert extract_status("Done. Your build exited with 0.\n") == "passed"

    def test_nonzero_exit_is_failed(self):
        assert extract_status("Done. Your build exited with 1.\n") == "failed"

    def test_errored_marker_wins(self):
        log = ('The command "pip install -r r.txt" failed and exited with 1 during install.\n'
               "Done. Your build exited with 1.\n")
        assert extract_status(log) == "errored"

    def test_no_marker_is_errored(self):
        assert extract_status("") == "errored"
        assert extract_status("some output but no terminal line\n") == "errored"


class TestAnalyze:
    def test_unsupported_language_rejected(self):
        with pytest.raises(ValueError):
            analyze("x", "ruby")

    def test_degenerate_log(self):
        attrs = analyze("", "java")
        assert attrs.status == "errored"
        assert attrs.build_system == NONE_DETECTED
        assert attrs.num_tests_run == 0
        assert attrs.failed_test_names == ()

    def test_multimodule_totals_summed(self):
        log = (LOG_DIR / "maven_junit_multimodule.txt").read_text()
        expected = json.loads((EXPECTED_DIR / "maven_junit_multimodule.json").read_text())
        attrs = analyze(log, "java")
        assert attrs.num_tests_run == expected["num_tests_run"]

    def test_per_class_surefire_lines_not_double_counted(self):
        log = ("[INFO] Scanning for projects...\n"
               " T E S T S\n"
               "Tests run: 3, Failures: 0, Errors: 0, Skipped: 0 - in com.x.FooTest\n"
               "Tests run: 3, Failures: 0, Errors: 0, Skipped: 0\n"
               "Done. Your build exited with 0.\n")
        assert analyze(log, "java").num_tests_run == 3


class TestCompare:
    def _attrs(self, **kw):
        base = dict(status="failed", os="Ubuntu", build_system="Maven", test_framework="JUnit",
                    num_tests_run=5, num_tests_failed=2, num_tests_skipped=0,
                    failed_test_names=("A.a", "B.b"))
        base.update(kw)
        return LogAttributes(**base)

    def test_name_order_is_irrelevant(self):
        assert compare(self._attrs(), self._attrs(failed_test_names=("B.b", "A.a")))

    def test_os_field_is_ignored(self):
        assert compare(self._attrs(os="Ubuntu"), self._attrs(os="Debian"))

    def test_count_mismatch_detected(self):
        assert not compare(self._attrs(), self._attrs(num_tests_run=6))

    def test_different_names_detected(self):
        assert not compare(self._attrs(), self._attrs(failed_test_names=("A.a", "C.c")))

    @given(st.builds(
        LogAttributes,
        status=st.sampled_from(["passed", "failed", "errored"]),
        num_tests_run=st.integers(0, 50),
        num_tests_failed=st.just(0),
        num_tests_skipped=st.just(0),
    ))
    def test_reflexive(self, attrs):
        assert compare(attrs, attrs)


class TestErrorTags:
    def test_java_qualified_names_collapse(self):
        log = ("java.lang.NullPointerException at Foo\n"
               "Caused by: java.io.IOException\n"
               "NullPointerException again\n")
        tags = extract_error_tags(log, "java")
        assert tags[0] == ErrorTag(name="NullPointerException", count=2)
        assert ErrorTag(name="IOException", count=1) in tags

    def test_python_errors_found(self):
        log = "ValueError: bad input\nrequests.exceptions.ConnectionError: boom\n"
        names = {t.name for t in extract_error_tags(log, "python")}
        assert names == {"ValueError", "ConnectionError"}

    def test_ordering_count_desc_then_name(self):
        log = "AError\nBError\nBError\nCError\nAError\n"
        tags = extract_error_tags(log, "java")
        assert [(t.name, t.count) for t in tags] == [("AError", 2), ("BError", 2), ("CError", 1)]


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=string.printable + "\x1b", max_size=2000),
           st.sampled_from(["java", "python"]))
    def test_analyze_total_on_arbitrary_text(self, text, language):
        attrs = analyze(text, language)
        assert attrs.status in ("passed", "failed", "errored")
        assert 0 <= attrs.num_tests_failed <= attrs.num_tests_run
        assert 0 <= attrs.num_tests_skipped <= attrs.num_tests_run

    def test_mutated_corpus_never_raises(self):
        rng = random.Random(23)
        for name in CORPUS:
            text = (LOG_DIR / f"{name}.txt").read_text()
            for _ in range(5):
                chars = list(text)
                for _ in range(rng.randrange(1, 20)):
                    pos = rng.randrange(len(chars))
                    op = rng.random()
                    if op < 0.4:
                        del chars[pos]
                    elif op < 0.8:
                        chars[pos] = rng.choice(string.printable)
                    else:
                        chars.insert(pos, rng.choice(string.printable))
                mutated = "".join(chars)
                attrs = analyze(mutated, corpus_language(name))
                assert attrs.num_tests_failed <= attrs.num_tests_run
