"""Artifact metadata persistence, diff metrics, statistics, and user tools.

The store is an append-only JSON-lines file with an advisory write lock;
queries run against an in-memory index built on read. Diff metrics follow
the addition+deletion counting convention (a modified line is one
addition plus one deletion).
"""

from __future__ import annotations

import dataclasses
import fcntl
import json
import operator
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from .model import json_record


@dataclass(frozen=True)
class SideInfo:
    build_id: int
    job_id: int
    num_tests_run: int = 0
    num_tests_failed: int = 0
    failed_test_names: tuple[str, ...] = ()
    trigger_sha: Optional[str] = None
    branch: Optional[str] = None


@json_record
@dataclass(frozen=True)
class ArtifactMetadata:
    image_tag: str
    slug: str
    primary_language: str
    build_system: str
    test_framework: str
    attempts: int
    successes: int
    stability: str
    category: Optional[str]
    failed: SideInfo
    passed: SideInfo
    num_changes: int = 0
    num_files_changed: int = 0
    pr_number: Optional[int] = None
    merge_timestamp: Optional[str] = None
    branch: Optional[str] = None
    error_tags: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.successes > self.attempts:
            raise ValueError("successes cannot exceed attempts")


def make_image_tag(slug: str, failing_job_id: int) -> str:
    """`<owner>-<repo>-<failing_job_id>`; injective for distinct job ids."""
    if slug.count("/") != 1:
        raise ValueError(f"slug must be owner/name: {slug!r}")
    if failing_job_id <= 0:
        raise ValueError("job id must be positive")
    return f"{slug.replace('/', '-')}-{failing_job_id}"


# --- diff metrics ----------------------------------------------------------

_SKIP_DIRS = {".git", ".failpass"}


def _tree_files(root: Path) -> dict[str, Path]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            rel = path.relative_to(root)
            if rel.parts[0] in _SKIP_DIRS:
                continue
            out[str(rel)] = path
    return out


def _edit_distance(a: list[str], b: list[str]) -> int:
    """Fewest line insertions plus deletions turning a into b (Myers 1986).

    The greedy O((N+M)D) search keeps, per diagonal k = x - y, the furthest
    x reachable with d edits, and stops at the first d that reaches (N, M).
    Only D is wanted, so there is no edit script and one V array.
    """
    n, m = len(a), len(b)
    offset = n + m + 1
    v = [0] * (2 * (n + m) + 3)
    for d in range(n + m + 1):
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and v[offset + k - 1] < v[offset + k + 1]):
                x = v[offset + k + 1]
            else:
                x = v[offset + k - 1] + 1
            y = x - k
            while x < n and y < m and a[x] == b[y]:
                x += 1
                y += 1
            v[offset + k] = x
            if x >= n and y >= m:
                return d
    raise AssertionError("unreachable: d = N + M always reaches (N, M)")


def _line_changes(a: list[str], b: list[str]) -> int:
    """Added + deleted lines under an exact minimal line diff.

    additions + deletions = len(a) + len(b) - 2*LCS, so the count is
    well defined regardless of how a particular diff lays out hunks, and
    equals `git diff --minimal --numstat` at every size.
    """
    # common prefix/suffix trimming keeps the search small for typical edits
    lo = 0
    while lo < len(a) and lo < len(b) and a[lo] == b[lo]:
        lo += 1
    hi = 0
    while hi < len(a) - lo and hi < len(b) - lo and a[-1 - hi] == b[-1 - hi]:
        hi += 1
    a = a[lo:len(a) - hi]
    b = b[lo:len(b) - hi]
    # A line that never occurs on the other side is in no common
    # subsequence, so it is a change under every alignment; dropping it
    # keeps the count exact and shrinks the search for rewritten files.
    in_a, in_b = set(a), set(b)
    kept_a = [line for line in a if line in in_b]
    kept_b = [line for line in b if line in in_a]
    dropped = len(a) - len(kept_a) + len(b) - len(kept_b)
    return dropped + _edit_distance(kept_a, kept_b)


def compute_diff_metrics(failing_tree: Path, passing_tree: Path) -> tuple[int, int]:
    """(total added+deleted lines, count of files with any change).

    Binary files that differ count as one changed file and two changes.
    """
    a_files = _tree_files(Path(failing_tree))
    b_files = _tree_files(Path(passing_tree))
    num_changes = 0
    num_files = 0
    for rel in sorted(set(a_files) | set(b_files)):
        a_bytes = a_files[rel].read_bytes() if rel in a_files else None
        b_bytes = b_files[rel].read_bytes() if rel in b_files else None
        if a_bytes == b_bytes:
            continue
        if (a_bytes is not None and b"\0" in a_bytes) or (b_bytes is not None and b"\0" in b_bytes):
            changed = 2
        else:
            a_lines = (a_bytes or b"").decode("utf-8", errors="replace").splitlines()
            b_lines = (b_bytes or b"").decode("utf-8", errors="replace").splitlines()
            changed = _line_changes(a_lines, b_lines)
        num_files += 1
        num_changes += changed
    return num_changes, num_files


# --- store -----------------------------------------------------------------


class StoreError(Exception):
    pass


class DuplicateTagError(StoreError):
    pass


class ArtifactStore:
    def __init__(self, path):
        self.path = Path(path)

    def load(self) -> list[ArtifactMetadata]:
        if not self.path.exists():
            return []
        records = []
        with self.path.open() as fh:
            for line in fh:
                line = line.strip()
                if line:
                    records.append(ArtifactMetadata.from_dict(json.loads(line)))
        return records

    def persist(self, record: ArtifactMetadata) -> None:
        """Append one record atomically; image tags must stay unique."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a+") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                fh.seek(0)
                for line in fh:
                    line = line.strip()
                    if line and json.loads(line)["image_tag"] == record.image_tag:
                        raise DuplicateTagError(f"duplicate image_tag: {record.image_tag}")
                fh.seek(0, 2)
                fh.write(json.dumps(record.to_dict()) + "\n")
                fh.flush()
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)

    def get(self, image_tag: str) -> Optional[ArtifactMetadata]:
        for r in self.load():
            if r.image_tag == image_tag:
                return r
        return None

    def query(self, expression: str) -> list[ArtifactMetadata]:
        predicate = parse_query(expression)
        return [r for r in self.load() if predicate(r)]


# --- query sublanguage -----------------------------------------------------

_TERM_RE = re.compile(r"([A-Za-z_][\w.]*)\s*(<=|>=|!=|<|>|=)\s*(\S+)")

_FIELD_ALIASES = {"language": "primary_language"}


class QueryParseError(StoreError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


_OPERATORS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
              "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _record_value(record: ArtifactMetadata, dotted: str):
    obj = record
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
    return obj


def _queryable_fields() -> dict[str, str]:
    """Dotted field name -> 'num' | 'str'; sequence fields are not queryable."""
    kinds: dict[str, str] = {}

    def classify(type_str: str):
        if "tuple" in type_str or "list" in type_str:
            return None
        return "num" if "int" in type_str or "float" in type_str else "str"

    for f in dataclasses.fields(ArtifactMetadata):
        if f.name in ("failed", "passed"):
            for g in dataclasses.fields(SideInfo):
                kind = classify(str(g.type))
                if kind:
                    kinds[f"{f.name}.{g.name}"] = kind
        else:
            kind = classify(str(f.type))
            if kind:
                kinds[f.name] = kind
    return kinds


def parse_query(expression: str):
    """Conjunction of `field OP value` terms separated by whitespace.

    Field names, operators, and value types are checked up front, so a
    malformed query fails before any record is touched.
    """
    kinds = _queryable_fields()
    terms = []
    pos = 0
    text = expression.strip()
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TERM_RE.match(text, pos)
        if m is None or (m.end() < len(text) and not text[m.end()].isspace()):
            raise QueryParseError("malformed filter term", pos)
        fld = _FIELD_ALIASES.get(m.group(1), m.group(1))
        # default comparison field for test counts is the fail side
        if fld in ("num_tests_run", "num_tests_failed"):
            fld = f"failed.{fld}"
        op, raw = m.group(2), m.group(3)
        kind = kinds.get(fld)
        if kind is None:
            raise QueryParseError(f"unknown field {m.group(1)!r}", pos)
        if kind == "str" and op in ("<", "<=", ">", ">="):
            raise QueryParseError(f"range comparison on non-numeric field {fld!r}", pos)
        if kind == "num":
            try:
                raw = float(raw) if "." in raw else int(raw)
            except ValueError:
                raise QueryParseError(f"expected a number, got {raw!r}", pos)
        else:
            raw = raw.lower()
        terms.append((fld, _OPERATORS[op], raw))
        pos = m.end()

    def predicate(record: ArtifactMetadata) -> bool:
        for fld, compare, rhs in terms:
            value = _record_value(record, fld)
            if value is None:
                return False
            if isinstance(value, str):
                value = value.lower()
            if not compare(value, rhs):
                return False
        return True

    return predicate


# --- statistics ------------------------------------------------------------

# bin lower edges mirror the dataset-characteristics histograms
DEFAULT_BINS = {
    "changes": [(1, 5), (6, 20), (21, 100), (101, 500), (501, 2000), (2001, 5000), (5001, 37363)],
    "files_changed": [(1, 5), (6, 10), (11, 25), (26, 50), (51, 100), (101, 200), (201, 500), (501, 2391)],
    "failing_tests": [(1, 1), (2, 2), (3, 5), (6, 15), (16, 50), (51, 100), (101, 400), (401, 1826)],
}

_METRIC_GETTERS = {
    "changes": lambda r: r.num_changes,
    "files_changed": lambda r: r.num_files_changed,
    "failing_tests": lambda r: r.failed.num_tests_failed,
}


@dataclass(frozen=True)
class HistogramSpec:
    metric: str
    bins: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.metric not in _METRIC_GETTERS:
            raise ValueError(f"unknown metric: {self.metric}")
        bins = self.bins or tuple(DEFAULT_BINS[self.metric])
        object.__setattr__(self, "bins", tuple(bins))
        edges = [b[0] for b in self.bins]
        if edges != sorted(set(edges)) or any(lo > hi for lo, hi in self.bins):
            raise ValueError("bin edges must be strictly ascending")


def stats(records: Iterable[ArtifactMetadata], spec: HistogramSpec) -> dict:
    """Per-bin counts plus a flagged overflow bucket for out-of-range values."""
    get = _METRIC_GETTERS[spec.metric]
    counts = {f"{lo}-{hi}" if lo != hi else str(lo): 0 for lo, hi in spec.bins}
    overflow = 0
    for r in records:
        value = get(r)
        for lo, hi in spec.bins:
            if lo <= value <= hi:
                counts[f"{lo}-{hi}" if lo != hi else str(lo)] += 1
                break
        else:
            overflow += 1
    out = {"metric": spec.metric, "bins": counts}
    if overflow:
        out["overflow"] = overflow
    return out


def error_frequency_report(records: Iterable[ArtifactMetadata], language: str, top_n: int = 10) -> list[tuple[str, int]]:
    """Rank error names by the number of artifacts tagged with them.

    Counting is per-artifact presence: an artifact tagged twice with the
    same name counts once.
    """
    freq: dict[str, int] = {}
    for r in records:
        if r.primary_language.lower() != language.lower():
            continue
        for name in {n for n, _ in r.error_tags}:
            freq[name] = freq.get(name, 0) + 1
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top_n]


# --- artifact user tools ---------------------------------------------------


def artifact_fetch(store: ArtifactStore, image_tag: str, runtime) -> ArtifactMetadata:
    record = store.get(image_tag)
    if record is None:
        raise StoreError(f"artifact not found: {image_tag}")
    runtime.fetch_image(image_tag)
    return record


def artifact_shell(store: ArtifactStore, image_tag: str, runtime) -> int:
    record = store.get(image_tag)
    if record is None:
        raise StoreError(f"artifact not found: {image_tag}")
    return runtime.shell(image_tag, label=image_tag)


def artifact_cleanup(store: ArtifactStore, image_tag: str, runtime, purge: bool = False) -> None:
    if store.get(image_tag) is None:
        raise StoreError(f"artifact not found: {image_tag}")
    runtime.cleanup(image_tag, purge=purge)
