"""Top-level log analysis: cleanup, status/OS extraction, dispatch, comparison.

The top-level analyzer extracts language-agnostic items (status, operating
system) and delegates test-result parsing to a registered parser for the
detected (build system, test framework) combination. Adding support for a
new framework means registering one parser function.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

from ..model import json_record

ANSI_RE = re.compile(r"\x1b\[[0-9;]*[A-Za-z]|\x1b\][^\x07]*\x07")

# terminal status markers written by the CI job lifecycle
_DONE_RE = re.compile(r"Done\. Your build exited with (\d+)\.")
_ERRORED_RE = re.compile(r"failed and exited with \d+ during")
_OS_RE = re.compile(r"^Description:\s*(.+?)\s*$", re.MULTILINE)

NONE_DETECTED = "none_detected"

JAVA_FRAMEWORKS = ("JUnit", "testng")
PYTHON_FRAMEWORKS = ("pytest", "nose", "unittest2", "unittest")


@json_record
@dataclass(frozen=True)
class LogAttributes:
    status: str  # passed | failed | errored
    os: str = "unknown"
    build_system: str = NONE_DETECTED
    test_framework: str = NONE_DETECTED
    num_tests_run: int = 0
    num_tests_failed: int = 0
    num_tests_skipped: int = 0
    failed_test_names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.num_tests_failed > self.num_tests_run or self.num_tests_skipped > self.num_tests_run:
            raise ValueError("test counts out of range")
        if self.failed_test_names and len(self.failed_test_names) != self.num_tests_failed:
            raise ValueError("reported names must match num_tests_failed")


@dataclass(frozen=True)
class ErrorTag:
    name: str
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be positive")


def clean_log(text: str) -> str:
    """Strip ANSI escapes and resolve carriage-return progress overwrites."""
    text = ANSI_RE.sub("", text)
    lines = []
    for line in text.split("\n"):
        lines.append(line.split("\r")[-1] if "\r" in line else line)
    return "\n".join(lines)


# --- detection -------------------------------------------------------------

_BUILD_SYSTEM_MARKERS = [
    ("Maven", re.compile(r"\[INFO\] Scanning for projects\.\.\.|Apache Maven \d")),
    ("Gradle", re.compile(r"Welcome to Gradle|Starting a Gradle Daemon|^> Task :|^:\w+[\w:]*\n", re.MULTILINE)),
    ("Ant", re.compile(r"^Buildfile: ", re.MULTILINE)),
]

_FRAMEWORK_MARKERS = [
    ("pytest", re.compile(r"=+ test session starts =+")),
    ("nose", re.compile(r"\bnosetests\b")),
    ("unittest2", re.compile(r"\bunittest2\b")),
    ("testng", re.compile(r"^Total tests run: ", re.MULTILINE)),
    ("JUnit", re.compile(r"^ T E S T S\s*$|^Tests run: |\[junit\] |^OK \(\d+ tests?\)|^\d+ tests? completed, ", re.MULTILINE)),
    ("unittest", re.compile(r"^Ran \d+ tests? in ", re.MULTILINE)),
]


def _earliest(markers, log: str, allowed=None) -> str:
    hits = []
    for idx, (name, pattern) in enumerate(markers):
        if allowed is not None and name not in allowed:
            continue
        m = pattern.search(log)
        if m:
            hits.append((m.start(), idx, name))
    return min(hits)[2] if hits else NONE_DETECTED


def detect_build_system(log: str) -> str:
    """First build-system banner in the log wins."""
    return _earliest(_BUILD_SYSTEM_MARKERS, clean_log(log))


def detect_test_framework(log: str, language: str | None = None) -> str:
    allowed = None
    if language is not None:
        lang = language.lower()
        allowed = JAVA_FRAMEWORKS if lang == "java" else PYTHON_FRAMEWORKS
    return _earliest(_FRAMEWORK_MARKERS, clean_log(log), allowed)


# --- parser registry -------------------------------------------------------

_PARSERS: dict[tuple[str, str], object] = {}


def register_parser(build_system: str, framework: str):
    """Register a test-section parser for (build_system, framework).

    Use "*" as the build system for framework parsers that do not depend
    on it. Parsers take cleaned log text and return a dict with keys
    run, failed, skipped, names.
    """

    def deco(fn):
        _PARSERS[(build_system, framework)] = fn
        return fn

    return deco


def _lookup_parser(build_system: str, framework: str):
    return _PARSERS.get((build_system, framework)) or _PARSERS.get(("*", framework))


def extract_status(log: str) -> str:
    """passed/failed/errored from the terminal lifecycle markers.

    A markerless (e.g. truncated or empty) log is errored: the run never
    reached a terminal state we can trust.
    """
    if _ERRORED_RE.search(log):
        return "errored"
    done = None
    for m in _DONE_RE.finditer(log):
        done = m
    if done is None:
        return "errored"
    return "passed" if done.group(1) == "0" else "failed"


def analyze(log_text: str, language: str) -> LogAttributes:
    """Parse one CI log into structured attributes.

    Never raises on arbitrary log bytes; an unparseable test section
    degrades to zero counts with framework none_detected.
    """
    lang = language.lower()
    if lang not in ("java", "python"):
        raise ValueError(f"unsupported language: {language}")
    log = clean_log(log_text)
    status = extract_status(log)
    os_match = _OS_RE.search(log)
    os_name = os_match.group(1) if os_match else "unknown"
    build_system = _earliest(_BUILD_SYSTEM_MARKERS, log)
    framework = detect_test_framework(log, lang)
    run = failed = skipped = 0
    names: tuple[str, ...] = ()
    parser = _lookup_parser(build_system, framework) if framework != NONE_DETECTED else None
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


def compare(original: LogAttributes, reproduced: LogAttributes) -> bool:
    """Attribute-level equality; failed test names compared as multisets."""
    return (
        original.status == reproduced.status
        and original.build_system == reproduced.build_system
        and original.test_framework == reproduced.test_framework
        and original.num_tests_run == reproduced.num_tests_run
        and original.num_tests_failed == reproduced.num_tests_failed
        and original.num_tests_skipped == reproduced.num_tests_skipped
        and Counter(original.failed_test_names) == Counter(reproduced.failed_test_names)
    )


_ERROR_NAME_RE = re.compile(r"\b(?:[a-zA-Z_][\w]*\.)*([A-Z][A-Za-z0-9_]*(?:Exception|Error))\b")


def extract_error_tags(log_text: str, language: str) -> list[ErrorTag]:
    """Count exception/error identifiers by simple name.

    Qualified Java names collapse to their simple name; ordering is by
    descending count, then name.
    """
    if language.lower() not in ("java", "python"):
        raise ValueError(f"unsupported language: {language}")
    counts = Counter(m.group(1) for m in _ERROR_NAME_RE.finditer(clean_log(log_text)))
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [ErrorTag(name=n, count=c) for n, c in ordered]
