"""Test-section parsers for Python test frameworks."""

from __future__ import annotations

import re

from .core import literal_matches

_PYTEST_SUMMARY_RE = re.compile(r"=+ (.*?) in [\d.]+s(?:econds)? =*")
_PYTEST_COUNT_RE = re.compile(r"(\d+) (failed|passed|skipped|error(?:s)?)")
_PYTEST_FAILED_RE = re.compile(r"^FAILED (\S+)", re.MULTILINE)


def parse_pytest(log: str) -> dict:
    failed = passed = skipped = errors = 0
    # a log can contain several sessions; totals aggregate across them
    for summary in literal_matches(_PYTEST_SUMMARY_RE, log, ("=",)):
        for m in _PYTEST_COUNT_RE.finditer(summary.group(1)):
            n, kind = int(m.group(1)), m.group(2)
            if kind == "failed":
                failed += n
            elif kind == "passed":
                passed += n
            elif kind == "skipped":
                skipped += n
            else:
                errors += n
    names = [m.group(1).rstrip(",") for m in literal_matches(_PYTEST_FAILED_RE, log, ("\nFAILED ",))]
    return {
        "run": failed + passed + skipped + errors,
        "failed": failed + errors,
        "skipped": skipped,
        "names": names,
    }


_RAN_RE = re.compile(r"^Ran (\d+) tests? in ", re.MULTILINE)
_RESULT_RE = re.compile(r"^(?:FAILED|OK) \(([^)]*)\)", re.MULTILINE)
_RESULT_COUNT_RE = re.compile(r"(failures|errors|skipped)=(\d+)")
_FAILED_CASE_RE = re.compile(r"^(?:FAIL|ERROR): ([\w.]+)(?: \(([\w.]+)\))?", re.MULTILINE)


def parse_unittest_style(log: str) -> dict:
    run = failed = skipped = 0
    for m in literal_matches(_RAN_RE, log, ("\nRan ",)):
        run += int(m.group(1))
    for m in literal_matches(_RESULT_RE, log, ("\nFAILED (", "\nOK (")):
        for cm in _RESULT_COUNT_RE.finditer(m.group(1)):
            if cm.group(1) == "skipped":
                skipped += int(cm.group(2))
            else:
                failed += int(cm.group(2))
    names = []
    for m in literal_matches(_FAILED_CASE_RE, log, ("\nFAIL: ", "\nERROR: ")):
        names.append(f"{m.group(2)}.{m.group(1)}" if m.group(2) else m.group(1))
    return {"run": run, "failed": failed, "skipped": skipped, "names": names}

