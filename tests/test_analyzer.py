import json
import random
import re
import string
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
from failpass.analyzer import core

LOG_DIR = Path(__file__).parent / "fixtures" / "logs"
EXPECTED_DIR = Path(__file__).parent / "fixtures" / "expected"

CORPUS = sorted(p.stem for p in LOG_DIR.glob("*.txt"))


def corpus_language(name: str) -> str:
    return "python" if any(k in name for k in ("pytest", "unittest", "nose", "python", "truncated")) else "java"


def read_log(name: str) -> str:
    """A fixture log as the CLI reads it: bytes decoded, carriage returns kept."""
    return (LOG_DIR / f"{name}.txt").read_bytes().decode("utf-8")


class TestGoldenCorpus:
    def test_corpus_is_large_enough(self):
        assert len(CORPUS) >= 20

    @pytest.mark.parametrize("name", CORPUS)
    def test_matches_expected_attributes(self, name):
        log = read_log(name)
        expected = LogAttributes.from_dict(json.loads((EXPECTED_DIR / f"{name}.json").read_text()))
        got = analyze(log, corpus_language(name))
        assert got == expected

    @pytest.mark.parametrize("name", CORPUS)
    def test_self_comparison_holds(self, name):
        log = read_log(name)
        attrs = analyze(log, corpus_language(name))
        assert compare(attrs, attrs)

    def test_crlf_copy_parses_like_lf(self):
        crlf = read_log("maven_junit_fail_crlf")
        assert crlf.count("\r\n") == crlf.count("\n") > 0
        assert crlf.replace("\r\n", "\n") == read_log("maven_junit_fail")
        assert analyze(crlf, "java") == analyze(read_log("maven_junit_fail"), "java")


class TestCleanLog:
    def test_strips_ansi_sequences(self):
        assert clean_log("\x1b[31mFAILED\x1b[0m test\n") == "FAILED test\n"

    def test_carriage_return_keeps_final_overwrite(self):
        assert clean_log("Downloading 10%\rDownloading 100%\ndone\n") == "Downloading 100%\ndone\n"

    def test_plain_text_unchanged(self):
        text = "Tests run: 3, Failures: 0\n"
        assert clean_log(text) == text

    def test_line_final_carriage_returns_are_dropped(self):
        assert clean_log("a\r\nb 10%\rb 100%\r\r\n\r\nc") == "a\nb 100%\n\nc"

    def test_osc_ends_at_string_terminator_and_never_crosses_a_line(self):
        text = "\x1b]0;title\x1b\\\nTests run: 3, Failures: 0\nDone. Your build exited with 0.\n\x07bell\n"
        assert clean_log(text) == "\nTests run: 3, Failures: 0\nDone. Your build exited with 0.\n\x07bell\n"

    def test_osc_ends_at_bel(self):
        assert clean_log("\x1b]0;title\x07Tests run: 3\n") == "Tests run: 3\n"

    def test_unterminated_osc_is_kept(self):
        text = "\x1b]0;title\nTests run: 3\x07\n"
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

    def test_os_comes_from_the_description_line_only(self):
        header = "Build system information\nDescription:{}\nBuild image provisioning date and time: x\n"
        assert analyze(header.format("\t"), "java").os == "unknown"
        assert analyze(header.format(""), "java").os == "unknown"
        assert analyze(header.format("\t Ubuntu 14.04.5 LTS \t"), "java").os == "Ubuntu 14.04.5 LTS"
        assert analyze("Description:\nDescription: Ubuntu\n", "python").os == "Ubuntu"

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


# --- reference: the regex path before literal gating --------------------------
# A copy of the analyzer before its scans were anchored on literals: each regex
# scans the whole cleaned log with search/finditer/findall. The one deliberate
# difference is _REF_OS_RE, which no longer lets an empty value take the next line.

JAVA_FRAMEWORKS = ("JUnit", "testng")
PYTHON_FRAMEWORKS = ("pytest", "nose", "unittest2", "unittest")


_REF_DONE_RE = re.compile(r"Done\. Your build exited with (\d+)\.")
_REF_ERRORED_RE = re.compile(r"failed and exited with \d+ during")
_REF_OS_RE = re.compile(r"^Description:[^\S\n]*(\S.*?)[^\S\n]*$", re.MULTILINE)
_REF_ERROR_NAME_RE = re.compile(r"\b(?:[a-zA-Z_][\w]*\.)*([A-Z][A-Za-z0-9_]*(?:Exception|Error))\b")


_REF_BUILD_SYSTEM_MARKERS = [
    ("Maven", re.compile(r"\[INFO\] Scanning for projects\.\.\.|Apache Maven \d")),
    ("Gradle", re.compile(r"Welcome to Gradle|Starting a Gradle Daemon|^> Task :|^:\w+[\w:]*\n", re.MULTILINE)),
    ("Ant", re.compile(r"^Buildfile: ", re.MULTILINE)),
]


_REF_FRAMEWORK_MARKERS = [
    ("pytest", re.compile(r"=+ test session starts =+")),
    ("nose", re.compile(r"\bnosetests\b")),
    ("unittest2", re.compile(r"\bunittest2\b")),
    ("testng", re.compile(r"^Total tests run: ", re.MULTILINE)),
    ("JUnit", re.compile(r"^ T E S T S\s*$|^Tests run: |\[junit\] |^OK \(\d+ tests?\)|^\d+ tests? completed, ", re.MULTILINE)),
    ("unittest", re.compile(r"^Ran \d+ tests? in ", re.MULTILINE)),
]


def _ref_earliest(markers, log: str, allowed=None) -> str:
    hits = []
    for idx, (name, pattern) in enumerate(markers):
        if allowed is not None and name not in allowed:
            continue
        m = pattern.search(log)
        if m:
            hits.append((m.start(), idx, name))
    return min(hits)[2] if hits else NONE_DETECTED


_REF_SUREFIRE_TOTAL_RE = re.compile(
    r"^Tests run: (\d+), Failures: (\d+), Errors: (\d+)(?:, Skipped: (\d+))?\s*$",
    re.MULTILINE,
)
_REF_MAVEN_FAILED_BLOCK_RE = re.compile(
    r"^(?:Failed tests:|Tests in error:)(.*(?:\n[ \t]+\S.*)*)", re.MULTILINE
)
_REF_MAVEN_NAME_RE = re.compile(r"^\s*((?:[\w$]+\.)+[\w$]+)", re.MULTILINE)


def ref_parse_maven_junit(log: str) -> dict:
    run = failed = skipped = 0
    for m in _REF_SUREFIRE_TOTAL_RE.finditer(log):
        run += int(m.group(1))
        failed += int(m.group(2)) + int(m.group(3))
        skipped += int(m.group(4) or 0)
    names = []
    for block in _REF_MAVEN_FAILED_BLOCK_RE.finditer(log):
        for nm in _REF_MAVEN_NAME_RE.finditer(block.group(1)):
            names.append(nm.group(1).rstrip("."))
    return {"run": run, "failed": failed, "skipped": skipped, "names": names}


_REF_GRADLE_TOTAL_RE = re.compile(
    r"^(\d+) tests? completed, (\d+) failed(?:, (\d+) skipped)?", re.MULTILINE
)
_REF_GRADLE_FAILED_RE = re.compile(r"^([\w$.]+) > ([\w$ .\[\]]+?) FAILED\s*$", re.MULTILINE)


def ref_parse_gradle_junit(log: str) -> dict:
    run = failed = skipped = 0
    for m in _REF_GRADLE_TOTAL_RE.finditer(log):
        run += int(m.group(1))
        failed += int(m.group(2))
        skipped += int(m.group(3) or 0)
    names = [f"{m.group(1)}.{m.group(2)}" for m in _REF_GRADLE_FAILED_RE.finditer(log)]
    return {"run": run, "failed": failed, "skipped": skipped, "names": names}


_REF_ANT_TOTAL_RE = re.compile(
    r"\[junit\] Tests run: (\d+), Failures: (\d+), Errors: (\d+)(?:, Skipped: (\d+))?",
)
_REF_ANT_FAILED_RE = re.compile(
    r"\[junit\] Testcase: ([\w$]+)\(([\w$.]+)\):\s+(?:FAILED|Caused an ERROR)"
)


def ref_parse_ant_junit(log: str) -> dict:
    run = failed = skipped = 0
    for m in _REF_ANT_TOTAL_RE.finditer(log):
        run += int(m.group(1))
        failed += int(m.group(2)) + int(m.group(3))
        skipped += int(m.group(4) or 0)
    names = [f"{m.group(2)}.{m.group(1)}" for m in _REF_ANT_FAILED_RE.finditer(log)]
    return {"run": run, "failed": failed, "skipped": skipped, "names": names}


_REF_TESTNG_TOTAL_RE = re.compile(
    r"^Total tests run: (\d+), Failures: (\d+), Skips: (\d+)", re.MULTILINE
)
_REF_TESTNG_FAILED_RE = re.compile(r"^FAILED: ([\w$.]+)", re.MULTILINE)


def ref_parse_testng(log: str) -> dict:
    run = failed = skipped = 0
    for m in _REF_TESTNG_TOTAL_RE.finditer(log):
        run += int(m.group(1))
        failed += int(m.group(2))
        skipped += int(m.group(3))
    names = [m.group(1) for m in _REF_TESTNG_FAILED_RE.finditer(log)]
    return {"run": run, "failed": failed, "skipped": skipped, "names": names}


_REF_PYTEST_SUMMARY_RE = re.compile(r"=+ (.*?) in [\d.]+s(?:econds)? =*")
_REF_PYTEST_COUNT_RE = re.compile(r"(\d+) (failed|passed|skipped|error(?:s)?)")
_REF_PYTEST_FAILED_RE = re.compile(r"^FAILED (\S+)", re.MULTILINE)


def ref_parse_pytest(log: str) -> dict:
    failed = passed = skipped = errors = 0
    # a log can contain several sessions; totals aggregate across them
    summaries = _REF_PYTEST_SUMMARY_RE.findall(log)
    for summary in summaries:
        for m in _REF_PYTEST_COUNT_RE.finditer(summary):
            n, kind = int(m.group(1)), m.group(2)
            if kind == "failed":
                failed += n
            elif kind == "passed":
                passed += n
            elif kind == "skipped":
                skipped += n
            else:
                errors += n
    names = [m.group(1).rstrip(",") for m in _REF_PYTEST_FAILED_RE.finditer(log)]
    return {
        "run": failed + passed + skipped + errors,
        "failed": failed + errors,
        "skipped": skipped,
        "names": names,
    }


_REF_RAN_RE = re.compile(r"^Ran (\d+) tests? in ", re.MULTILINE)
_REF_RESULT_RE = re.compile(r"^(?:FAILED|OK) \(([^)]*)\)", re.MULTILINE)
_REF_RESULT_COUNT_RE = re.compile(r"(failures|errors|skipped)=(\d+)")
_REF_FAILED_CASE_RE = re.compile(r"^(?:FAIL|ERROR): ([\w.]+)(?: \(([\w.]+)\))?", re.MULTILINE)


def ref_parse_unittest_style(log: str) -> dict:
    run = failed = skipped = 0
    for m in _REF_RAN_RE.finditer(log):
        run += int(m.group(1))
    for m in _REF_RESULT_RE.finditer(log):
        for cm in _REF_RESULT_COUNT_RE.finditer(m.group(1)):
            if cm.group(1) == "skipped":
                skipped += int(cm.group(2))
            else:
                failed += int(cm.group(2))
    names = []
    for m in _REF_FAILED_CASE_RE.finditer(log):
        names.append(f"{m.group(2)}.{m.group(1)}" if m.group(2) else m.group(1))
    return {"run": run, "failed": failed, "skipped": skipped, "names": names}


_REF_PARSERS = {
    ("Maven", "JUnit"): ref_parse_maven_junit,
    ("Gradle", "JUnit"): ref_parse_gradle_junit,
    ("Ant", "JUnit"): ref_parse_ant_junit,
    ("*", "testng"): ref_parse_testng,
    ("*", "pytest"): ref_parse_pytest,
    ("*", "unittest"): ref_parse_unittest_style,
    ("*", "unittest2"): ref_parse_unittest_style,
    ("*", "nose"): ref_parse_unittest_style,
}


def ref_extract_status(log: str) -> str:
    if _REF_ERRORED_RE.search(log):
        return "errored"
    done = None
    for m in _REF_DONE_RE.finditer(log):
        done = m
    if done is None:
        return "errored"
    return "passed" if done.group(1) == "0" else "failed"


def reference_analyze(log: str, language: str) -> LogAttributes:
    """analyze() on an already cleaned log, every regex scanning the whole text."""
    lang = language.lower()
    if lang not in ("java", "python"):
        raise ValueError(f"unsupported language: {language}")
    status = ref_extract_status(log)
    os_match = _REF_OS_RE.search(log)
    os_name = os_match.group(1) if os_match else "unknown"
    build_system = _ref_earliest(_REF_BUILD_SYSTEM_MARKERS, log)
    framework = _ref_earliest(_REF_FRAMEWORK_MARKERS, log, JAVA_FRAMEWORKS if lang == "java" else PYTHON_FRAMEWORKS)
    run = failed = skipped = 0
    names: tuple[str, ...] = ()
    parser = _REF_PARSERS.get((build_system, framework)) or _REF_PARSERS.get(("*", framework))
    if parser is not None:
        result = parser(log)
        run = max(0, int(result.get("run", 0)))
        failed = max(0, int(result.get("failed", 0)))
        skipped = max(0, int(result.get("skipped", 0)))
        names = tuple(result.get("names", ()))
        if names and len(names) != failed:
            # counts are authoritative; inconsistent names are dropped
            names = ()
        run = max(run, failed, skipped)
    return LogAttributes(
        status=status,
        os=os_name,
        build_system=build_system,
        test_framework=framework,
        num_tests_run=run,
        num_tests_failed=failed,
        num_tests_skipped=skipped,
        failed_test_names=names,
    )


def reference_error_tags(log: str) -> list[ErrorTag]:
    counts = Counter(m.group(1) for m in _REF_ERROR_NAME_RE.finditer(log))
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [ErrorTag(name=n, count=c) for n, c in ordered]


# --- generated logs for the differential test ---------------------------------

# every literal the marker tables and parsers anchor on, without the line-start "\n"
_LITERALS = sorted({lit.lstrip("\n") for table in (core._BUILD_SYSTEM_MARKERS, core._FRAMEWORK_MARKERS)
                    for _, _, lits in table for lit in lits}
                   | {"Description:", "Tests run: ", "Failed tests:", "Tests in error:", "[junit] Tests run: ",
                      "[junit] Testcase: ", "Total tests run: ", "FAILED: ", "FAILED ", "Ran ", "FAILED (",
                      "OK (", "FAIL: ", "ERROR: ", " > ", " FAILED", "Done. Your build exited with ",
                      "failed and exited with "})

# whole lines per framework, each with the language that detects it; a log draws
# often from one group so that its parser runs, and from the others as noise
_SCENARIOS = {
    "maven": ("java", [
        "[INFO] Scanning for projects...", "Apache Maven 3.5.0", " T E S T S", " T E S T S   ",
        "Tests run: 3, Failures: 1, Errors: 0, Skipped: 1", "Tests run: 2, Failures: 0, Errors: 1",
        "Tests run: 3, Failures: 0, Errors: 0, Skipped: 0 - in com.x.FooTest", "Failed tests:   testA(com.x.ATest): boom",
        "Failed tests: ", "  testB(com.x.BTest)", "\tcom.y.CTest.testC:12 expected", "Tests in error: ",
        "  com.x.DTest.testD:7 » NullPointer", "   ", "OK (3 tests)", "OK (1 test)",
    ]),
    "gradle": ("java", [
        "Welcome to Gradle 4.4!", "Starting a Gradle Daemon", "> Task :compileJava", ":compileJava", ":app:test", ":jar",
        ":app:test UP-TO-DATE", "3 tests completed, 1 failed, 1 skipped", "1 test completed, 0 failed",
        "٣ tests completed, ١ failed", "com.x.FooTest > testBar FAILED", "com.x.FooTest > shouldWork FAILED",
        "org.Y > test [1] FAILED  ", "Y > a b FAILED",
    ]),
    "ant": ("java", [
        "Buildfile: /b/build.xml", "    [junit] Tests run: 4, Failures: 1, Errors: 1, Skipped: 0",
        "[junit] Tests run: 2, Failures: 0, Errors: 0", "    [junit] Testcase: testFoo(com.x.FooTest):\tFAILED",
        "[junit] Testcase: barTest(BarTest): Caused an ERROR",
    ]),
    "testng": ("java", [
        "Apache Maven 3.5.0", "Total tests run: 5, Failures: 1, Skips: 1", "Total tests run: 2, Failures: 0, Skips: 0",
        "FAILED: com.x.NgTest.testNg", "FAILED: org.y.T.t",
    ]),
    "pytest": ("python", [
        "============================= test session starts ==============================",
        "========== 1 failed, 2 passed, 1 skipped, 1 error in 0.12 seconds ==========", "= 3 passed in 1.5s =",
        "==== 2 failed, 1 errors in 3s", "= 1 failed in 0.5s =", "FAILED tests/test_a.py::test_x,",
        "FAILED test_b.py::test_y",
    ]),
    "unittest": ("python", [
        "nosetests -v", "$ nosetests", "python -m unittest2 discover", "import unittest2", "Ran 4 tests in 0.1s",
        "Ran 1 test in 0.0s",
        "FAILED (failures=1, errors=2, skipped=1)", "OK (skipped=2)", "OK", "FAIL: test_x (mod.Cls)", "ERROR: test_y",
    ]),
}
_ANY_LINES = [line for _, lines in _SCENARIOS.values() for line in lines] + [
    "Done. Your build exited with 0.", "Done. Your build exited with 1.", "Done. Your build exited with 2",
    "Description:\tUbuntu 14.04.5 LTS", "Description:", "Description: \t ",
    'The command "pip install x" failed and exited with 1 during install.',
]
_ERROR_NAMES = [
    "java.lang.NullPointerException", "ValueError: bad", "requests.exceptions.ConnectionError", "éValueError",
    "ÄbcException", "xValueError", "Error", "Exception", "MyError2", "a.b.CError", "_x.IOError_", "ß.KeyError",
    "FooErrorBar", "java.io.IOException:", "AssertionErroré", "Errors", "SomeException.", "9.AError",
]
_FRAGMENTS = st.one_of(
    st.sampled_from(_LITERALS),
    st.sampled_from(_LITERALS).map(lambda lit: lit[:-1]),  # a near miss: the literal without its end
    st.sampled_from(_ANY_LINES),
    st.sampled_from(_ERROR_NAMES),
    st.integers(1, 40).map(lambda n: "=" * n),
    st.sampled_from(["\x1b[31m", "\x1b[0m", "\x1b]0;title\x07", "\r", "\t", " ", ":", "=", "\n"]),
    st.text(alphabet="aZ09 :=.,()[]>\t\r\x1béß٣_$-", max_size=12),
)


@st.composite
def _logs(draw):
    """(log text, language): lines from one scenario, any marker line, or 0-4 joined fragments."""
    language, own = _SCENARIOS[draw(st.sampled_from(sorted(_SCENARIOS)))]
    line = st.one_of(st.sampled_from(own), st.sampled_from(_ANY_LINES), st.lists(_FRAGMENTS, max_size=4).map("".join))
    lines = draw(st.lists(line, max_size=30))
    if draw(st.integers(0, 4)) == 0:
        language = "python" if language == "java" else "java"
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines), language


class TestLiteralGates:
    @settings(max_examples=600, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_logs())
    def test_same_answers_as_full_regex_scans(self, log_and_language):
        text, language = log_and_language
        cleaned = clean_log(text)
        assert analyze(text, language) == reference_analyze(cleaned, language)
        assert extract_error_tags(text, language) == reference_error_tags(cleaned)
        # every parser, detected or not, so that names a count mismatch would drop are compared too
        for key, parser in core._PARSERS.items():
            assert parser(cleaned) == _REF_PARSERS[key](cleaned)

    def test_golden_logs_match_the_reference(self):
        for name in CORPUS:
            text = read_log(name)
            assert analyze(text, corpus_language(name)) == reference_analyze(clean_log(text), corpus_language(name))
            assert extract_error_tags(text, "java") == reference_error_tags(clean_log(text))

    def test_markers_do_not_run_on_a_log_without_their_literals(self, monkeypatch):
        calls = Counter()

        class Counting:
            def __init__(self, name, pattern):
                self.name, self.pattern = name, pattern

            def __getattr__(self, attr):
                calls[self.name] += 1
                return getattr(self.pattern, attr)

        for table in ("_BUILD_SYSTEM_MARKERS", "_FRAMEWORK_MARKERS"):
            counted = [(name, Counting(name, pattern), lits) for name, pattern, lits in getattr(core, table)]
            monkeypatch.setattr(core, table, counted)
        rng = random.Random(12)
        lines = ["Using worker: worker-garnet-1512502259:travis-linux-9", "Description:\tUbuntu 14.04.5 LTS",
                 "$ sh run_tests.sh"]
        while sum(map(len, lines)) < 256 * 1024:
            lines.append(rng.choice([
                f"2017-03-01 12:00:{rng.randrange(60):02d}.{rng.randrange(1000):03d} INFO  [worker-{rng.randrange(8)}] "
                f"com.acme.svc.Handler{rng.randrange(50)} - handled request {rng.randrange(10**5)} in {rng.randrange(300)} ms",
                f"2017-03-01 12:00:07.047 WARN  [worker-1] com.acme.svc.Retry - com.acme.errors.IOException: said {rng.randrange(500)}",
                f"    at com.acme.svc.Handler{rng.randrange(50)}.call(Handler.java:{rng.randrange(400)})",
                "tests run fine; Gradle, Maven and nose are not mentioned as markers", "Running out of retries",
            ]))
        lines.append("Done. Your build exited with 1.")
        log = "\n".join(lines)
        attrs = analyze(log, "java")
        assert (attrs.status, attrs.build_system, attrs.test_framework) == ("failed", NONE_DETECTED, NONE_DETECTED)
        analyze(log, "python")
        assert calls == Counter()
        # the wrappers do count: a log with a marker runs its pattern
        analyze("[INFO] Scanning for projects...\nTests run: 1, Failures: 0, Errors: 0\n", "java")
        assert calls["Maven"] > 0 and calls["JUnit"] > 0
