"""Test-section parsers for JVM build tools and frameworks."""

from __future__ import annotations

import re

from .core import literal_matches

# Surefire module totals are the bare "Tests run:" lines inside a Results
# block; per-class lines carry a trailing "- in <class>" suffix and must
# not be summed.
_SUREFIRE_TOTAL_RE = re.compile(
    r"^Tests run: (\d+), Failures: (\d+), Errors: (\d+)(?:, Skipped: (\d+))?\s*$",
    re.MULTILINE,
)
_MAVEN_FAILED_BLOCK_RE = re.compile(
    r"^(?:Failed tests:|Tests in error:)(.*(?:\n[ \t]+\S.*)*)", re.MULTILINE
)
_MAVEN_NAME_RE = re.compile(r"^\s*((?:[\w$]+\.)+[\w$]+)", re.MULTILINE)


def parse_maven_junit(log: str) -> dict:
    run = failed = skipped = 0
    for m in literal_matches(_SUREFIRE_TOTAL_RE, log, ("\nTests run: ",)):
        run += int(m.group(1))
        failed += int(m.group(2)) + int(m.group(3))
        skipped += int(m.group(4) or 0)
    names = []
    for block in literal_matches(_MAVEN_FAILED_BLOCK_RE, log, ("\nFailed tests:", "\nTests in error:")):
        for nm in _MAVEN_NAME_RE.finditer(block.group(1)):
            names.append(nm.group(1).rstrip("."))
    return {"run": run, "failed": failed, "skipped": skipped, "names": names}


_GRADLE_TOTAL_RE = re.compile(
    r"^(\d+) tests? completed, (\d+) failed(?:, (\d+) skipped)?", re.MULTILINE
)
_GRADLE_FAILED_RE = re.compile(r"^([\w$.]+) > ([\w$ .\[\]]+?) FAILED\s*$", re.MULTILINE)


def parse_gradle_junit(log: str) -> dict:
    run = failed = skipped = 0
    for m in literal_matches(_GRADLE_TOTAL_RE, log, (" completed, ",)):
        run += int(m.group(1))
        failed += int(m.group(2))
        skipped += int(m.group(3) or 0)
    names = [f"{m.group(1)}.{m.group(2)}" for m in literal_matches(_GRADLE_FAILED_RE, log, (" > ",))]
    return {"run": run, "failed": failed, "skipped": skipped, "names": names}


_ANT_TOTAL_RE = re.compile(
    r"\[junit\] Tests run: (\d+), Failures: (\d+), Errors: (\d+)(?:, Skipped: (\d+))?",
)
_ANT_FAILED_RE = re.compile(
    r"\[junit\] Testcase: ([\w$]+)\(([\w$.]+)\):\s+(?:FAILED|Caused an ERROR)"
)


def parse_ant_junit(log: str) -> dict:
    run = failed = skipped = 0
    for m in _ANT_TOTAL_RE.finditer(log):
        run += int(m.group(1))
        failed += int(m.group(2)) + int(m.group(3))
        skipped += int(m.group(4) or 0)
    names = [f"{m.group(2)}.{m.group(1)}" for m in _ANT_FAILED_RE.finditer(log)]
    return {"run": run, "failed": failed, "skipped": skipped, "names": names}


_TESTNG_TOTAL_RE = re.compile(
    r"^Total tests run: (\d+), Failures: (\d+), Skips: (\d+)", re.MULTILINE
)
_TESTNG_FAILED_RE = re.compile(r"^FAILED: ([\w$.]+)", re.MULTILINE)


def parse_testng(log: str) -> dict:
    run = failed = skipped = 0
    for m in literal_matches(_TESTNG_TOTAL_RE, log, ("\nTotal tests run: ",)):
        run += int(m.group(1))
        failed += int(m.group(2))
        skipped += int(m.group(3))
    names = [m.group(1) for m in literal_matches(_TESTNG_FAILED_RE, log, ("\nFAILED: ",))]
    return {"run": run, "failed": failed, "skipped": skipped, "names": names}
