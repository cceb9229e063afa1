"""Artifact metadata persistence, diff metrics, queries and statistics.

The store is an append-only JSON-lines file under an advisory file lock.
Beside it, the sidecar ``<store>.idx`` is a derived key directory: every
queryable scalar of every record, each record's error-tag names, where its
line lies in the store, and whether that line is already the codec's
encoding. Queries and statistics run on the sidecar and parse only the
columns they use; a query reads each hit's line once, with one ``pread``,
and decodes only those lines that are not the codec's encoding. The
sidecar is trusted only while its
stamp, the store's (inode, size, mtime_ns), matches; on any mismatch it is
rebuilt from the store, so deleting it is always safe. A last line without
a newline that does not parse, as a crash mid-append leaves, is skipped by
reads and cut off by the next append. Diff metrics are git's numstat of
two trees (a modified line is one addition plus one deletion).
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import dataclasses
import fcntl
import functools
import itertools
import json
import operator
import os
import re
import subprocess
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from .model import json_record, replace_file


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


def compute_diff_metrics(failing_tree: Path, passing_tree: Path) -> tuple[int, int]:
    """(total added+deleted lines, count of files with any change), as git counts them.

    One ``git diff --no-index --no-renames`` with git's minimal algorithm:
    the final newline, CRLF and a symlink's target all count, a mode change
    is a changed file with no changed line, a moved file is a delete plus an
    add, and a differing binary file (a NUL in its first 8000 bytes) counts
    as two changes. A top-level ``.git`` is skipped.
    """
    trees = [Path(tree).resolve() for tree in (failing_tree, passing_tree)]
    # No user, system or enclosing-repository config or attributes apply; "/" is in no work tree.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GIT_")}
    env |= {"GIT_CONFIG_NOSYSTEM": "1", "GIT_CONFIG_GLOBAL": os.devnull, "GIT_ATTR_NOSYSTEM": "1"}
    # --minimal would leave a configured diff.algorithm in force; --diff-algorithm=minimal pins it
    proc = subprocess.run(
        ["git", "-c", f"core.attributesFile={os.devnull}", "diff", "--no-index", "--no-renames",
         "--diff-algorithm=minimal", "--numstat", "-z", "--", *trees],
        cwd="/", env=env, capture_output=True)
    # git 2.39 reports a path it cannot read with status 1, the status of "trees differ"
    if proc.returncode > 1 or proc.stderr:
        raise StoreError(f"git diff --no-index failed: {os.fsdecode(proc.stderr).strip()}")
    fail_root, pass_root = (os.fsencode(tree) + b"/" for tree in trees)
    num_changes = num_files = 0
    # records are "added\tdeleted\t\0<old>\0<new>\0"; /dev/null names an absent side
    fields = proc.stdout.split(b"\0")
    for stat, old, new in zip(fields[0::3], fields[1::3], fields[2::3]):
        rel = old[len(fail_root):] if old.startswith(fail_root) else new[len(pass_root):]
        if rel.split(b"/", 1)[0] == b".git":
            continue
        added, deleted, _ = stat.split(b"\t")
        num_files += 1
        num_changes += 2 if added == b"-" else int(added) + int(deleted)
    return num_changes, num_files


# --- store -----------------------------------------------------------------

INDEX_VERSION = 2


class StoreError(Exception):
    pass


class DuplicateTagError(StoreError):
    pass


def _stamp(fh) -> list[int]:
    st = os.fstat(fh.fileno())
    return [st.st_ino, st.st_size, st.st_mtime_ns]


@functools.cache
def _queryable() -> dict[str, tuple]:
    """Dotted name -> (outer key or "", key, 'num' | 'str', codec default or MISSING) per queryable field.

    The queryable fields are the scalars of ArtifactMetadata and of its two
    SideInfos, in field order; sequence fields are not queryable. They are
    the sidecar's first columns, so their names and order are its format.
    """
    table = {}
    for f in dataclasses.fields(ArtifactMetadata):
        if f.name in ("failed", "passed"):
            scalars = [(f.name, g) for g in dataclasses.fields(SideInfo)]
        else:
            scalars = [("", f)]
        for outer, g in scalars:
            if "tuple" in g.type or "list" in g.type:
                continue
            kind = "num" if "int" in g.type or "float" in g.type else "str"
            table[f"{outer}.{g.name}" if outer else g.name] = (outer, g.name, kind, g.default)
    return table


def _index_fields() -> list[str]:
    """The sidecar's columns: the queryable fields, then each record's error-tag names and line position."""
    return [*_queryable(), "error_tags", "offset", "length", "verbatim"]


def _line(record: ArtifactMetadata) -> str:
    """The store line of ``record``, newline included: what ``persist`` writes and ``query`` returns."""
    return json.dumps(record.to_dict()) + "\n"


def _verbatim(raw: bytes, d: dict) -> bool:
    """Whether the stored line ``raw`` is byte for byte ``_line`` of the record its object ``d`` decodes to."""
    try:
        return raw == _line(ArtifactMetadata.from_dict(d)).encode()
    except (ValueError, TypeError, KeyError, AttributeError):
        return False


class StoreIndex:
    """A key directory over the store (Bitcask, Sheehy & Smith 2010).

    One column per field, holding a value per record in store order: every
    queryable scalar, under its dotted name and with the codec's default
    where the line lacks the key; ``error_tags``, each record's distinct
    error-tag names; the ``offset`` and ``length`` of its line; and
    ``verbatim``, whether that line, newline included, is already what
    ``_line`` gives for its record, so a query may copy it. ``stamp`` is
    the (st_ino, st_size, st_mtime_ns) of the store it describes and
    ``end`` the bytes it covers; a torn last line lies past ``end``.
    Columns read from a sidecar stay slices of its JSON text until first
    used, so a read parses only the columns it needs.
    """

    def __init__(self, stamp=(), end: int = 0, rows: int = 0, columns: Optional[dict] = None):
        self.stamp = list(stamp)
        self.end = end
        self.rows = rows
        # field -> its values, or the JSON text of that list (bytes or a view of the sidecar) until first use
        self._columns = columns if columns is not None else {name: [] for name in _index_fields()}

    @classmethod
    def of(cls, records: Iterable[ArtifactMetadata]) -> "StoreIndex":
        """An in-memory index over decoded records; its offsets and lengths are unused."""
        index = cls()
        for r in records:
            index.add(r.to_dict(), 0, 0, False)
        return index

    def column(self, name: str) -> list:
        values = self._columns[name]
        if not isinstance(values, list):
            values = self._columns[name] = json.loads(bytes(values))
        return values

    def add(self, d: dict, offset: int, length: int, verbatim: bool) -> None:
        """Append the row of one store line's JSON object; KeyError if it lacks a required field."""
        values = []
        for name, (outer, key, _, default) in _queryable().items():
            value = (d[outer] if outer else d).get(key, default)
            if value is dataclasses.MISSING:
                raise KeyError(name)
            values.append(value)
        values += [list(dict.fromkeys(name for name, _ in d.get("error_tags", ()))), offset, length, verbatim]
        for (name, column), value in zip(self._columns.items(), values):
            if not isinstance(column, list):  # extend the JSON text rather than parse it
                sep = b"," if self.rows else b""
                self._columns[name] = b"".join((column[:-1], sep, json.dumps(value).encode(), b"]"))
            else:
                column.append(value)
        self.rows += 1

    def dump(self) -> list:
        """Sidecar chunks: a JSON header line, one JSON array line per field, then the CRC-32 of all before it."""
        head = {"version": INDEX_VERSION, "stamp": self.stamp, "end": self.end, "rows": self.rows,
                "fields": list(self._columns)}
        chunks = [json.dumps(head).encode() + b"\n"]
        for c in self._columns.values():
            chunks += [c if not isinstance(c, list) else json.dumps(c, separators=(",", ":")).encode(), b"\n"]
        crc = 0
        for chunk in chunks:
            crc = zlib.crc32(chunk, crc)
        return chunks + [b"%d\n" % crc]

    @classmethod
    def parse(cls, data: bytes, stamp: list) -> Optional["StoreIndex"]:
        """The index in sidecar bytes if they are whole, of this version and for ``stamp``; else None.

        Only the line bounds are found here; each column stays a view of ``data`` until ``column`` parses it.
        """
        view = memoryview(data)
        try:
            covered = data.rindex(b"\n", 0, -1) + 1  # where the CRC line starts
            if data[-1:] != b"\n" or int(data[covered:-1]) != zlib.crc32(view[:covered]):
                return None
            start = data.index(b"\n") + 1
            h = json.loads(data[:start - 1])
            fields = _index_fields()
            if h["version"] != INDEX_VERSION or h["stamp"] != stamp or h["fields"] != fields:
                return None
            columns = {}
            for name in fields:
                end = data.index(b"\n", start)
                columns[name] = view[start:end]
                start = end + 1
            if start != covered:  # more lines than the fields
                return None
            return cls(stamp, h["end"], h["rows"], columns)
        except (ValueError, KeyError, TypeError):
            return None


class ArtifactStore:
    """Append-only JSONL store with a derived key-directory sidecar ``<store>.idx``.

    Writers hold ``LOCK_EX`` on the store and readers ``LOCK_SH``. A reader
    uses the sidecar only when its stamp matches the open store, and
    otherwise rebuilds the index from the store and saves it where the
    directory can be written.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.index_path = self.path.with_name(self.path.name + ".idx")

    @contextlib.contextmanager
    def _locked(self, exclusive: bool = False):
        """The store opened binary under flock; None for a reader when there is no store."""
        if exclusive:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fh = self.path.open("a+b")
        else:
            try:
                fh = self.path.open("rb")
            except FileNotFoundError:
                yield None
                return
        with fh:
            fcntl.flock(fh, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
            yield fh

    def _bad_line(self, line_no: int, exc: Exception) -> StoreError:
        return StoreError(f"{self.path}, line {line_no}: {type(exc).__name__}: {exc}")

    def _build(self, fh) -> StoreIndex:
        """The index of the whole store; a bad line raises StoreError, but a torn last line ends the index."""
        stamp = _stamp(fh)
        index = StoreIndex(stamp, end=stamp[1])
        fh.seek(0)
        offset = 0
        for line_no, raw in enumerate(fh, 1):
            start, offset = offset, offset + len(raw)
            if not raw.strip():
                continue
            try:
                d = json.loads(raw.decode())
                if not isinstance(d, dict):
                    raise ValueError("not a JSON object")
            except ValueError as exc:
                if raw.endswith(b"\n"):
                    raise self._bad_line(line_no, exc) from None
                index.end = start
                break
            try:
                index.add(d, start, len(raw), _verbatim(raw, d))
            except (KeyError, TypeError, AttributeError, ValueError) as exc:
                raise self._bad_line(line_no, exc) from None
        return index

    def _index(self, fh, save: bool = True) -> StoreIndex:
        """The sidecar's index when its stamp matches the open store, else a rebuilt one."""
        stamp = _stamp(fh)
        try:
            index = StoreIndex.parse(self.index_path.read_bytes(), stamp)
        except OSError:
            index = None
        if index is None:
            index = self._build(fh)
            if save:
                self._save(index)
        return index

    def _save(self, index: StoreIndex) -> None:
        """Replace the sidecar atomically; where that fails the index stays in memory only."""
        try:
            replace_file(self.index_path, index.dump())
        except OSError:
            pass  # derived data: the next reader rebuilds it

    def _decode(self, fd: int, index: StoreIndex, row: int) -> ArtifactMetadata:
        """The record of one row, its line read with one ``pread`` from the store open as ``fd``."""
        offset = index.column("offset")[row]
        raw = os.pread(fd, index.column("length")[row], offset)
        try:
            return ArtifactMetadata.from_dict(json.loads(raw.decode()))
        except (ValueError, TypeError, KeyError) as exc:
            raise self._bad_line(os.pread(fd, offset, 0).count(b"\n") + 1, exc) from None

    def load(self) -> list[ArtifactMetadata]:
        """Every record in store order, each line found through the index and decoded."""
        with self._locked() as fh:
            if fh is None:
                return []
            index = self._index(fh)
            return [self._decode(fh.fileno(), index, row) for row in range(index.rows)]

    def index(self) -> StoreIndex:
        """The store's index, for the statistics functions; empty when there is no store."""
        with self._locked() as fh:
            return StoreIndex() if fh is None else self._index(fh)

    def persist(self, record: ArtifactMetadata) -> None:
        """Append one record atomically; image tags must stay unique.

        A torn last line is cut off first, and the index grows by one row.
        """
        line = _line(record).encode()
        with self._locked(exclusive=True) as fh:
            index = self._index(fh, save=False)
            if record.image_tag in index.column("image_tag"):
                raise DuplicateTagError(f"duplicate image_tag: {record.image_tag}")
            prefix = b""
            if index.end < index.stamp[1]:
                os.ftruncate(fh.fileno(), index.end)
            elif index.end:
                fh.seek(index.end - 1)
                if fh.read(1) != b"\n":  # a whole last line that another tool wrote without one
                    prefix = b"\n"
            fh.write(prefix + line)
            fh.flush()
            d = json.loads(line)  # the row a rebuild would make from this line
            index.add(d, index.end + len(prefix), len(line), _verbatim(line, d))
            index.stamp = _stamp(fh)
            index.end = index.stamp[1]
            self._save(index)

    def get(self, image_tag: str) -> Optional[ArtifactMetadata]:
        with self._locked() as fh:
            if fh is None:
                return None
            index = self._index(fh)
            try:
                row = index.column("image_tag").index(image_tag)
            except ValueError:
                return None
            return self._decode(fh.fileno(), index, row)

    def query(self, expression: str) -> list[str]:
        """The JSON line of each record matching ``expression``, newline included, in store order.

        The terms run on the index, each over the rows the terms before it
        kept. A hit whose stored line is already the codec's encoding is
        copied as it is, with one ``pread``; any other is decoded and
        encoded again. Decode a line with ``ArtifactMetadata.from_dict(json.loads(line))``.
        """
        terms = _parse_terms(expression)
        with self._locked() as fh:
            if fh is None:
                return []
            index = self._index(fh)
            rows = range(index.rows)
            for term, fld, compare, rhs in terms:
                try:
                    rows = _select(index.column(fld), rows, compare, rhs)
                except TypeError as exc:  # a stored value of another type than the field's, say a str in a number
                    raise StoreError(f"{self.path}: term {term!r}: TypeError: {exc}") from None
            fd = fh.fileno()
            offset, length, verbatim = index.column("offset"), index.column("length"), index.column("verbatim")
            return [os.pread(fd, length[i], offset[i]).decode() if verbatim[i] else _line(self._decode(fd, index, i))
                    for i in rows]


# --- query sublanguage -----------------------------------------------------

_TERM_RE = re.compile(r"([A-Za-z_][\w.]*)\s*(<=|>=|!=|<|>|=)\s*(\S+)")

_FIELD_ALIASES = {"language": "primary_language"}


class QueryParseError(StoreError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


_OPERATORS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
              "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _parse_terms(expression: str) -> list[tuple]:
    """(term text, dotted field, comparison, value) per `field OP value` term, checked up front."""
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
        spec = _queryable().get(fld)
        if spec is None:
            raise QueryParseError(f"unknown field {m.group(1)!r}", pos)
        kind = spec[2]
        if kind == "str" and op in ("<", "<=", ">", ">="):
            raise QueryParseError(f"range comparison on non-numeric field {fld!r}", pos)
        if kind == "num":
            try:
                raw = float(raw) if "." in raw else int(raw)
            except ValueError:
                raise QueryParseError(f"expected a number, got {raw!r}", pos)
        else:
            raw = raw.lower()
        terms.append((m.group(0), fld, _OPERATORS[op], raw))
        pos = m.end()
    return terms


def _select(values: list, rows: Iterable[int], compare, rhs) -> list[int]:
    """The ``rows`` whose value in ``values`` meets one term, in order.

    The rule of every term: None never matches, a str compares lower-cased,
    and any other value compares as it is stored.
    """
    return [i for i in rows
            if (v := values[i]) is not None and compare(v.lower() if isinstance(v, str) else v, rhs)]


# --- statistics ------------------------------------------------------------

# bin lower edges mirror the dataset-characteristics histograms
DEFAULT_BINS = {
    "changes": [(1, 5), (6, 20), (21, 100), (101, 500), (501, 2000), (2001, 5000), (5001, 37363)],
    "files_changed": [(1, 5), (6, 10), (11, 25), (26, 50), (51, 100), (101, 200), (201, 500), (501, 2391)],
    "failing_tests": [(1, 1), (2, 2), (3, 5), (6, 15), (16, 50), (51, 100), (101, 400), (401, 1826)],
}

_METRIC_FIELDS = {
    "changes": "num_changes",
    "files_changed": "num_files_changed",
    "failing_tests": "failed.num_tests_failed",
}


def _as_index(records) -> StoreIndex:
    return records if isinstance(records, StoreIndex) else StoreIndex.of(records)


def stats(records: Iterable[ArtifactMetadata] | StoreIndex, metric: str) -> dict:
    """Per-bin counts over ``DEFAULT_BINS[metric]`` plus a flagged overflow bucket for values in no bin."""
    if metric not in _METRIC_FIELDS:
        raise ValueError(f"unknown metric: {metric}")
    bins = DEFAULT_BINS[metric]
    lows = [lo for lo, _ in bins]
    highs = [hi for _, hi in bins]
    counts = [0] * len(bins)
    overflow = 0
    for value in _as_index(records).column(_METRIC_FIELDS[metric]):
        # the only bin that can hold value is the last one starting at or below it; a non-number has none
        k = bisect.bisect_right(lows, value) - 1 if isinstance(value, (int, float)) else -1
        if k >= 0 and value <= highs[k]:
            counts[k] += 1
        else:
            overflow += 1
    labels = [f"{lo}-{hi}" if lo != hi else str(lo) for lo, hi in bins]
    out = {"metric": metric, "bins": dict(zip(labels, counts))}
    if overflow:
        out["overflow"] = overflow
    return out


def error_frequency_report(records: Iterable[ArtifactMetadata] | StoreIndex, language: str,
                           top_n: int = 10) -> list[tuple[str, int]]:
    """Rank error names by the number of artifacts tagged with them.

    Counting is per-artifact presence: an artifact tagged twice with the
    same name counts once.
    """
    index = _as_index(records)
    # the rows that the query term language=<language> keeps
    rows = _select(index.column("primary_language"), range(index.rows), operator.eq, language.lower())
    freq = collections.Counter(itertools.chain.from_iterable(map(index.column("error_tags").__getitem__, rows)))
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top_n]
