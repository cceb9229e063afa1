"""Top-level log analysis: cleanup, status/OS extraction, dispatch, comparison.

The top-level analyzer extracts language-agnostic items (status, operating
system) and delegates test-result parsing to the parser that ``_PARSERS``
names for the detected (build system, test framework) combination. Adding
support for a new framework means adding one parser function to that table.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter
from dataclasses import dataclass

from ..model import json_record


# --- literal-anchored scans --------------------------------------------------
# A regex is reached through str.find on literals each of its matches must
# contain, so a log without them costs one C-level search, not a regex attempt
# at every position. A literal "\nX" stands for X at a line start.


def _occurrences(log: str, literal: str):
    """Ascending positions where ``literal`` occurs; a "\nX" literal gives the position of X."""
    skip = 0
    if literal.startswith("\n"):
        skip = 1
        if log.startswith(literal[1:]):
            yield 0
    i = log.find(literal)
    while i >= 0:
        yield i + skip
        i = log.find(literal, i + 1)


def literal_search(pattern: re.Pattern, log: str, literals: tuple[str, ...]):
    """``pattern.search(log)`` for a pattern whose every match holds one of ``literals`` on its first line.

    No literal, no regex run. Otherwise the search starts at the line of the
    first literal: a match holds a literal no earlier than its own start and on
    the same line, so no match starts before that line. ``^`` and ``\b`` still
    look at the character before the start position.
    """
    starts = [i for i in (next(_occurrences(log, lit), -1) for lit in literals) if i >= 0]
    return pattern.search(log, log.rfind("\n", 0, min(starts)) + 1) if starts else None


def literal_matches(pattern: re.Pattern, log: str, literals: tuple[str, ...]):
    """``pattern.finditer(log)`` for a pattern whose every match starts with one of ``literals``.

    ``pattern.match`` is tried only where a literal occurs, in order, skipping
    occurrences inside the last match. A pattern that starts with ``^`` is
    tried at the line start instead, so its literal may lie anywhere on the
    match's first line.
    """
    line_anchored = pattern.pattern.startswith("^")
    end = tried = -1
    for pos in heapq.merge(*(_occurrences(log, lit) for lit in literals)):
        if line_anchored:
            pos = log.rfind("\n", 0, pos) + 1
        if pos < end or pos == tried:
            continue
        tried = pos
        m = pattern.match(log, pos)
        if m:
            yield m
            end = m.end()


# the parsers import the helpers above
from .java import parse_ant_junit, parse_gradle_junit, parse_maven_junit, parse_testng
from .pythonlogs import parse_pytest, parse_unittest_style

# an OSC sequence ends at BEL or at ST (ESC \), never past a line break
ANSI_RE = re.compile(r"\x1b\[[0-9;]*[A-Za-z]|\x1b\][^\x07\x1b\n]*(?:\x07|\x1b\\)")

# terminal status markers written by the CI job lifecycle
_DONE = "Done. Your build exited with "
_DONE_RE = re.compile(r"Done\. Your build exited with (\d+)\.")
_ERRORED_RE = re.compile(r"failed and exited with \d+ during")
# [^\S\n] is whitespace short of a newline: an empty value must not take the next line
_OS_RE = re.compile(r"^Description:[^\S\n]*(\S.*?)[^\S\n]*$", re.MULTILINE)
_OS_LITERALS = ("\nDescription:",)

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
    """Strip ANSI escapes and resolve carriage-return progress overwrites.

    A line keeps what follows its last carriage return; carriage returns that
    end a line (CRLF line endings) are dropped first.
    """
    if "\x1b" in text:
        text = ANSI_RE.sub("", text)
    if "\r" not in text:
        return text
    return "\n".join(line.rstrip("\r").rsplit("\r", 1)[-1] for line in text.split("\n"))


# --- detection -------------------------------------------------------------

# (name, pattern, literals): every match holds one of the literals on its first line
_BUILD_SYSTEM_MARKERS = [
    ("Maven", re.compile(r"\[INFO\] Scanning for projects\.\.\.|Apache Maven \d"),
     ("[INFO] Scanning for projects...", "Apache Maven ")),
    # a line-start ":" only: timestamps hold ":" mid-line
    ("Gradle", re.compile(r"Welcome to Gradle|Starting a Gradle Daemon|^> Task :|^:\w+[\w:]*\n", re.MULTILINE),
     ("Welcome to Gradle", "Starting a Gradle Daemon", "\n> Task :", "\n:")),
    ("Ant", re.compile(r"^Buildfile: ", re.MULTILINE), ("\nBuildfile: ",)),
]

_FRAMEWORK_MARKERS = [
    ("pytest", re.compile(r"=+ test session starts =+"), ("= test session starts =",)),
    ("nose", re.compile(r"\bnosetests\b"), ("nosetests",)),
    ("unittest2", re.compile(r"\bunittest2\b"), ("unittest2",)),
    ("testng", re.compile(r"^Total tests run: ", re.MULTILINE), ("\nTotal tests run: ",)),
    ("JUnit", re.compile(r"^ T E S T S\s*$|^Tests run: |\[junit\] |^OK \(\d+ tests?\)|^\d+ tests? completed, ", re.MULTILINE),
     ("\n T E S T S", "\nTests run: ", "[junit] ", "\nOK (", " completed, ")),
    ("unittest", re.compile(r"^Ran \d+ tests? in ", re.MULTILINE), ("\nRan ",)),
]


def _earliest(markers, log: str, allowed=None) -> str:
    hits = []
    for idx, (name, pattern, literals) in enumerate(markers):
        if allowed is not None and name not in allowed:
            continue
        m = literal_search(pattern, log, literals)
        if m:
            hits.append((m.start(), idx, name))
    return min(hits)[2] if hits else NONE_DETECTED


# (build system, framework) -> test-section parser; "*" is any build system. A parser takes
# cleaned log text and returns a dict with keys run, failed, skipped, names.
_PARSERS = {
    ("Maven", "JUnit"): parse_maven_junit,
    ("Gradle", "JUnit"): parse_gradle_junit,
    ("Ant", "JUnit"): parse_ant_junit,
    ("*", "testng"): parse_testng,
    ("*", "pytest"): parse_pytest,
    ("*", "unittest"): parse_unittest_style,
    ("*", "unittest2"): parse_unittest_style,
    ("*", "nose"): parse_unittest_style,
}


def extract_status(log: str) -> str:
    """passed/failed/errored from the terminal lifecycle markers.

    A markerless (e.g. truncated or empty) log is errored: the run never
    reached a terminal state we can trust.
    """
    if _ERRORED_RE.search(log):
        return "errored"
    # the last terminal line decides; the literal cannot overlap itself, so searching back finds it
    i = len(log)
    while (i := log.rfind(_DONE, 0, i)) >= 0:
        done = _DONE_RE.match(log, i)
        if done:
            return "passed" if done.group(1) == "0" else "failed"
    return "errored"


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
    os_match = literal_search(_OS_RE, log, _OS_LITERALS)
    os_name = os_match.group(1) if os_match else "unknown"
    build_system = _earliest(_BUILD_SYSTEM_MARKERS, log)
    framework = _earliest(_FRAMEWORK_MARKERS, log, JAVA_FRAMEWORKS if lang == "java" else PYTHON_FRAMEWORKS)
    run = failed = skipped = 0
    names: tuple[str, ...] = ()
    parser = _PARSERS.get((build_system, framework)) or _PARSERS.get(("*", framework))
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
    # a match holds "Error" or "Exception" and never crosses a newline, so only those lines are scanned
    lines = "\n".join(ln for ln in clean_log(log_text).split("\n") if "Error" in ln or "Exception" in ln)
    counts = Counter(m.group(1) for m in _ERROR_NAME_RE.finditer(lines))
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [ErrorTag(name=n, count=c) for n, c in ordered]
