"""Artifact metadata persistence, diff metrics, queries and statistics.

The store is an append-only JSON-lines file under an advisory file lock.
Beside it, the sidecar ``<store>.idx`` is a derived key directory: every
queryable scalar of every record, each record's error-tag names, where its
line lies in the store, and whether that line is already the codec's
encoding. Each column is one line of int64 words, dictionary codes, or a
JSON list; the header holds every dictionary. Queries, statistics and
appends read the sidecar through one path, and check and parse only the
columns they use; a query term runs on a column's encoding, and a query
reads each hit's line once, with one ``pread``, and decodes only those
lines that are not the codec's encoding. The sidecar is trusted only while
its stamp, the store's (inode, size, mtime_ns), matches, its header passes
its CRC-32 and each column a read uses passes its own and holds a value a
record; on any mismatch it is rebuilt from the store, so deleting it is
always safe. A last line without a newline that does not parse, as a crash
mid-append leaves, is skipped by reads and cut off by the next append.
Diff metrics are git's numstat of two trees (a modified line is one
addition plus one deletion).
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
import sys
import zlib
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

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

INDEX_VERSION = 5

_INT64 = range(-2 ** 63, 2 ** 63)
# a dict column holds at most this many distinct values: nearly distinct strings are smaller and scan faster as a
# JSON list, and every read parses every dictionary with the header
_DICT_LIMIT = 64
# the sidecar's first line: the size of the header line and its CRC-32, as 8 hex digits each
_PROLOGUE = len(b"%08x %08x\n" % (0, 0))


class StoreError(Exception):
    pass


class DuplicateTagError(StoreError):
    pass


class SidecarDamaged(StoreError):
    """A sidecar column that fails its check or does not parse; a read under the lock rebuilds the index."""


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


def _kind(values) -> str:
    """The kind chosen for a column of ``values``; ``_Stored.encode`` writes an int past int64 as json."""
    types = set(map(type, values))
    if types <= {int}:
        return "int"
    if types <= {str, bool, type(None)} and len(set(values)) <= _DICT_LIMIT:
        return "dict"
    return "json"


def _json(value) -> bytes:
    return json.dumps(value, separators=(",", ":")).encode()


def _words(typecode: str, values) -> bytes:
    words = array(typecode, values)
    if sys.byteorder == "big":
        words.byteswap()
    return words.tobytes()


def _unwords(typecode: str, data) -> array:
    """The little-endian words of ``data``; ValueError if it is no whole number of them."""
    words = array(typecode)
    words.frombytes(data)
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _closing(kind: str) -> bytes:
    """The bytes that end a column's line; its CRC-32 leaves them out, so an append extends it from its running
    value."""
    return b"]\n" if kind == "json" else b"\n"


class _Coded(NamedTuple):
    """A dict column as parsed: its dictionary and one code, an index into it, a row."""
    entries: list
    codes: array


@dataclass
class _Stored:
    """One column as the sidecar holds it: its kind, its dictionary (None unless ``dict``), its line, newline
    included, and the CRC-32 of that line without its closing bytes."""
    kind: str
    dictionary: Optional[list]
    line: bytes
    crc: int

    @classmethod
    def encode(cls, values: list, kind: Optional[str] = None) -> "_Stored":
        """``values`` as a column of ``kind``, by default the kind chosen from them."""
        kind = kind or _kind(values)
        dictionary = None
        if kind == "int":
            try:
                body = _words("q", values)
            except OverflowError:  # an int past int64
                kind = "json"
        if kind == "dict":
            dictionary = list(dict.fromkeys(values))
            code = dict(zip(dictionary, range(len(dictionary))))
            body = _words("I", map(code.__getitem__, values))
        elif kind == "json":
            body = _json(values)[:-1]
        return cls(kind, dictionary, body + _closing(kind), zlib.crc32(body))

    def extend(self, value) -> bool:
        """Append ``value``, reading nothing; False, and nothing changed, if it does not fit the kind.

        A dict column takes the code of the value's entry in its dictionary,
        adding the entry where it is new unless the dictionary would then
        pass ``_DICT_LIMIT``.
        """
        if self.kind == "int":
            if type(value) is not int or value not in _INT64:
                return False
            item = _words("q", (value,))
        elif self.kind == "json":
            item = (b"," if len(self.line) > 3 else b"") + _json(value)  # a comma unless the list is empty
        elif value is not None and type(value) not in (str, bool):
            return False
        else:
            try:
                code = self.dictionary.index(value)
            except ValueError:  # a new entry
                if len(self.dictionary) >= _DICT_LIMIT:
                    return False
                code = len(self.dictionary)
                self.dictionary.append(value)
            item = _words("I", (code,))
        closing = _closing(self.kind)
        self.line = b"".join((self.line[:len(self.line) - len(closing)], item, closing))
        self.crc = zlib.crc32(item, self.crc)
        return True

    def decode(self, rows: int) -> list | array | _Coded:
        """The column's values: array('q') for int, _Coded for dict, a list for json.

        ValueError if the line fails its check or does not parse, or the
        column does not hold ``rows`` values, or holds a code past its
        dictionary.
        """
        closing = _closing(self.kind)
        body = self.line[:len(self.line) - len(closing)]
        if self.line[len(body):] != closing or zlib.crc32(body) != self.crc:
            raise ValueError("fails its CRC-32 check")
        try:
            if self.kind == "json":
                values = json.loads(self.line)
            else:
                values = _unwords("q" if self.kind == "int" else "I", body)
        except ValueError as exc:
            raise ValueError(f"does not parse: {exc}") from None
        if not isinstance(values, (list, array)) or len(values) != rows:
            raise ValueError(f"does not hold {rows} values")
        if self.kind != "dict":
            return values
        if max(values, default=-1) >= len(self.dictionary):
            raise ValueError(f"holds a code past its {len(self.dictionary)}-entry dictionary")
        return _Coded(self.dictionary, values)


def _at(values, rows) -> Sequence:
    """``values[i]`` for each ``i`` of ``rows``, in order, gathered without Python code per row."""
    if isinstance(rows, range):
        return values[rows.start:rows.stop:rows.step]
    if len(rows) > 1:
        return operator.itemgetter(*rows)(values)
    return [values[i] for i in rows]


def _damaged(name: str, exc: ValueError) -> SidecarDamaged:
    """The error of the sidecar column ``name`` failing its check or its parse with ``exc``."""
    return SidecarDamaged(f"sidecar column {name!r} {exc}")


class _Kept(dict):
    """Dictionary code -> whether a term keeps its entry, the rule run on an entry at its code's first lookup."""

    def __init__(self, entries: list, compare, rhs):
        super().__init__()
        self.entries, self.compare, self.rhs = entries, compare, rhs

    def __missing__(self, code: int) -> bool:
        keep = self[code] = _holds(self.entries[code], self.compare, self.rhs)
        return keep


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

    The sidecar (format 5) is a prologue line holding the size and CRC-32
    of the JSON header line, the header line, then one line a column. A
    column is written as one of three kinds, chosen from the values it
    holds (Abadi, Madden & Ferreira, SIGMOD 2006):

    - ``int``, every value an int (not a bool) within int64: little-endian
      int64 words, which one ``frombytes`` turns into an ``array('q')``;
    - ``dict``, every value a str, None or bool, with at most
      ``_DICT_LIMIT`` distinct values: one little-endian uint32 code a row,
      into the column's dictionary, which the header holds;
    - ``json``, any other column: a compact JSON list.

    The header gives each column's kind, its dictionary (null unless
    ``dict``), and the size of its line and the line's CRC-32 without its
    closing bytes (``]`` and the newline, or the newline alone), so the
    header finds every column without a scan and an append extends a line
    and its CRC from the running value, reading no line. A column read from
    a sidecar is checked just before it is first parsed, against its CRC,
    the header's row count and its dictionary; a query term runs on its
    encoding.
    """

    def __init__(self, stamp=(), end: int = 0, rows: int = 0, stored: Optional[dict] = None):
        self.stamp = list(stamp)
        self.end = end
        self.rows = rows
        # field -> the column as the sidecar holds it, while that is still the column's encoding
        self._stored = {} if stored is None else stored
        # field -> its values, in field order: a list where built from records, else as its sidecar column
        # parses, or None until then
        self._values = {name: [] if stored is None else None for name in _index_fields()}

    @classmethod
    def of(cls, records: Iterable[ArtifactMetadata]) -> "StoreIndex":
        """An in-memory index over decoded records; its offsets and lengths are unused."""
        index = cls()
        for r in records:
            index.add(r.to_dict(), 0, 0, False)
        return index

    def _parsed(self, name: str) -> list | array | _Coded:
        """One field's values as held: parsed from the sidecar at first use; KeyError for a column not read."""
        values = self._values.get(name)
        if values is None:
            try:
                values = self._values[name] = self._stored[name].decode(self.rows)
            except ValueError as exc:
                raise _damaged(name, exc) from None
        return values

    def check(self, *names: str) -> None:
        """Check and parse the columns of ``names``; SidecarDamaged if one fails its check or does not parse."""
        for name in names:
            self._parsed(name)

    def column(self, name: str) -> list | array:
        """The values of one field, an array('q') for an int column; SidecarDamaged as ``check``."""
        values = self._parsed(name)
        return list(map(values.entries.__getitem__, values.codes)) if isinstance(values, _Coded) else values

    def at(self, name: str, rows) -> Sequence:
        """The values of one field at ``rows``, in order."""
        values = self._parsed(name)
        if isinstance(values, _Coded):
            return list(map(values.entries.__getitem__, _at(values.codes, rows)))
        return _at(values, rows)

    def select(self, name: str, rows, compare, rhs) -> list[int]:
        """The ``rows`` whose value of ``name`` meets one term, in order: ``_select`` on the column's encoding.

        On an int column each comparison is made through ``map``. On a dict
        column the rule runs once per dictionary entry, and rows are kept by
        their codes. Where it refuses an entry, it runs only on the entries
        that a row of ``rows`` holds, so a term raises just as ``_select``
        does: when a row it is given holds a value the comparison refuses.
        """
        values = self._parsed(name)
        if isinstance(values, array):
            return list(itertools.compress(rows, map(compare, _at(values, rows), itertools.repeat(rhs))))
        if not isinstance(values, _Coded):
            return _select(values, rows, compare, rhs)
        kept = _Kept(values.entries, compare, rhs)
        return list(itertools.compress(rows, map(kept.__getitem__, _at(values.codes, rows))))

    def add(self, d: dict, offset: int, length: int, verbatim: bool) -> None:
        """Append the row of one store line's JSON object; KeyError if it lacks a required field.

        A column still held as its sidecar line takes a value that fits its
        kind there, unread. A value it does not fit has it parsed and written
        again in the kind chosen for its values; SidecarDamaged if that line
        fails its check.
        """
        values = []
        for name, (outer, key, _, default) in _queryable().items():
            value = (d[outer] if outer else d).get(key, default)
            if value is dataclasses.MISSING:
                raise KeyError(name)
            values.append(value)
        values += [list(dict.fromkeys(name for name, _ in d.get("error_tags", ()))), offset, length, verbatim]
        if not self._stored:  # every column a list, in field order
            for column, value in zip(self._values.values(), values):
                column.append(value)
            self.rows += 1
            return
        for name, value in zip(_index_fields(), values):
            stored, parsed = self._stored.get(name), self._values[name]
            if stored is None:
                parsed.append(value)
            elif stored.extend(value):
                self._values[name] = None  # parsed again, from the line as extended, at its next use
            else:  # parsed as it stands, then held as a list
                parsed = self._values[name] = list(self.column(name))
                del self._stored[name]
                parsed.append(value)
        self.rows += 1

    def dump(self) -> list:
        """Sidecar chunks: the prologue, the JSON header line, then each field's line."""
        columns = [self._stored.get(name) or _Stored.encode(self._values[name]) for name in _index_fields()]
        # the size of each column line in order, and its CRC-32, as the hex of little-endian uint32 words: a
        # JSON list of numbers would take twice as long to parse
        head = {"version": INDEX_VERSION, "stamp": self.stamp, "end": self.end, "rows": self.rows,
                "fields": _index_fields(), "kinds": [c.kind for c in columns],
                "dicts": [c.dictionary for c in columns],
                "sizes": _words("I", (len(c.line) for c in columns)).hex(),
                "crcs": _words("I", (c.crc for c in columns)).hex()}
        line = _json(head) + b"\n"
        return [b"%08x %08x\n" % (len(line), zlib.crc32(line)), line, *(c.line for c in columns)]

    @classmethod
    def read(cls, fd: int, stamp: list, fields: Iterable[str]) -> Optional["StoreIndex"]:
        """The index in the sidecar open as ``fd`` if its header is whole, of this version and for ``stamp``;
        else None.

        It reads the header and the line of each of ``fields``, with a
        ``pread`` each; another column is not in the index. A column is
        checked and parsed at its first use.
        """
        try:
            prologue = os.pread(fd, _PROLOGUE, 0)
            head_size, crc = int(prologue[:8], 16), int(prologue[9:17], 16)
            line = os.pread(fd, head_size, _PROLOGUE)
            if prologue[8:9] != b" " or prologue[17:] != b"\n" or line[-1:] != b"\n" or zlib.crc32(line) != crc:
                return None
            h = json.loads(line)
            names = _index_fields()
            if h["version"] != INDEX_VERSION or h["stamp"] != stamp or h["fields"] != names:
                return None
            kinds, dicts = h["kinds"], h["dicts"]
            sizes, crcs = _unwords("I", bytes.fromhex(h["sizes"])), _unwords("I", bytes.fromhex(h["crcs"]))
            # where each column's line starts, then the end of the last
            starts = list(itertools.accumulate(sizes, initial=_PROLOGUE + head_size))
            if not (len(kinds) == len(dicts) == len(sizes) == len(crcs) == len(names)
                    and starts[-1] == os.fstat(fd).st_size  # cut short, or more than the columns
                    and all(kind in ("int", "json") and d is None or kind == "dict" and isinstance(d, list)
                            for kind, d in zip(kinds, dicts))):
                return None
            stored = {}
            for name in fields:
                k = names.index(name)
                stored[name] = _Stored(kinds[k], dicts[k], os.pread(fd, sizes[k], starts[k]), crcs[k])
            return cls(stamp, h["end"], h["rows"], stored)
        except (ValueError, LookupError, TypeError):
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

    def _index(self, fh, fields: Iterable[str], append: bool = False) -> StoreIndex:
        """The index of the open store with ``fields`` checked and parsed.

        It is the sidecar's when its header matches the store and each of
        ``fields`` passes its check. It reads only the header and the lines of
        ``fields``, but an ``append``, which writes the sidecar again, reads
        every line. Else the index is rebuilt from the store, and saved unless
        it is for an append, which saves it after adding its row.
        """
        stamp = _stamp(fh)
        try:
            fd = os.open(self.index_path, os.O_RDONLY)
            try:
                index = StoreIndex.read(fd, stamp, _index_fields() if append else fields)
            finally:
                os.close(fd)
            if index is not None:
                index.check(*fields)
        except (OSError, SidecarDamaged):
            index = None
        if index is None:
            index = self._build(fh)
            if not append:
                self._save(index)
        return index

    def _save(self, index: StoreIndex) -> None:
        """Replace the sidecar atomically; where that fails the index stays in memory only."""
        try:
            replace_file(self.index_path, index.dump())
        except OSError:
            pass  # derived data: the next reader rebuilds it

    def _decode(self, fd: int, offset: int, length: int) -> ArtifactMetadata:
        """The record of the line at ``offset``, read with one ``pread`` from the store open as ``fd``."""
        raw = os.pread(fd, length, offset)
        try:
            return ArtifactMetadata.from_dict(json.loads(raw.decode()))
        except (ValueError, TypeError, KeyError) as exc:
            raise self._bad_line(os.pread(fd, offset, 0).count(b"\n") + 1, exc) from None

    def load(self) -> list[ArtifactMetadata]:
        """Every record in store order, each line found through the index and decoded."""
        with self._locked() as fh:
            if fh is None:
                return []
            index = self._index(fh, ("offset", "length"))
            return [self._decode(fh.fileno(), offset, length)
                    for offset, length in zip(index.column("offset"), index.column("length"))]

    def index(self, *fields: str) -> StoreIndex:
        """The store's index with ``fields`` (every field when none is named) checked and parsed under the lock.

        For the statistics functions; empty when there is no store. From a
        sidecar only the columns of ``fields`` are read: another is not in
        the index, and using it raises KeyError.
        """
        with self._locked() as fh:
            return StoreIndex() if fh is None else self._index(fh, fields or _index_fields())

    def persist(self, record: ArtifactMetadata) -> None:
        """Append one record atomically; image tags must stay unique.

        A torn last line is cut off first, and the index grows by one row.
        """
        line = _line(record).encode()
        with self._locked(exclusive=True) as fh:
            index = self._index(fh, ("image_tag",), append=True)  # every other column is extended unparsed
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
            try:
                index.add(d, index.end + len(prefix), len(line), _verbatim(line, d))
                index.stamp = _stamp(fh)
                index.end = index.stamp[1]
            except SidecarDamaged:  # a column the new value does not fit failed its check when parsed
                index = self._build(fh)
            self._save(index)

    def get(self, image_tag: str) -> Optional[ArtifactMetadata]:
        with self._locked() as fh:
            if fh is None:
                return None
            index = self._index(fh, ("image_tag", "offset", "length"))
            try:
                row = index.column("image_tag").index(image_tag)
            except ValueError:
                return None
            return self._decode(fh.fileno(), index.column("offset")[row], index.column("length")[row])

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
            index = self._index(fh, [*(fld for _, fld, _, _ in terms), "offset", "length", "verbatim"])
            rows = range(index.rows)
            for term, fld, compare, rhs in terms:
                try:
                    rows = index.select(fld, rows, compare, rhs)
                except TypeError as exc:  # a stored value of another type than the field's, say a str in a number
                    raise StoreError(f"{self.path}: term {term!r}: TypeError: {exc}") from None
            fd = fh.fileno()
            hits = zip(*(index.at(name, rows) for name in ("offset", "length", "verbatim")))
            return [os.pread(fd, length, offset).decode() if copy else _line(self._decode(fd, offset, length))
                    for offset, length, copy in hits]


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


def _holds(value, compare, rhs) -> bool:
    """The rule of every term on one value: None never matches, a str compares lower-cased, and any other
    value compares as it is stored."""
    return value is not None and compare(value.lower() if isinstance(value, str) else value, rhs)


def _select(values: list, rows: Iterable[int], compare, rhs) -> list[int]:
    """The ``rows`` whose value in ``values`` meets one term (``_holds``), in order."""
    return [i for i in rows
            if (v := values[i]) is not None and compare(v.lower() if isinstance(v, str) else v, rhs)]


# --- statistics ------------------------------------------------------------

# bin lower edges mirror the dataset-characteristics histograms
DEFAULT_BINS = {
    "changes": [(1, 5), (6, 20), (21, 100), (101, 500), (501, 2000), (2001, 5000), (5001, 37363)],
    "files_changed": [(1, 5), (6, 10), (11, 25), (26, 50), (51, 100), (101, 200), (201, 500), (501, 2391)],
    "failing_tests": [(1, 1), (2, 2), (3, 5), (6, 15), (16, 50), (51, 100), (101, 400), (401, 1826)],
}

# the column each statistic reads, which ArtifactStore.index(...) checks under the lock
METRIC_FIELDS = {
    "changes": "num_changes",
    "files_changed": "num_files_changed",
    "failing_tests": "failed.num_tests_failed",
}
ERROR_REPORT_FIELDS = ("primary_language", "error_tags")


def _as_index(records) -> StoreIndex:
    return records if isinstance(records, StoreIndex) else StoreIndex.of(records)


def stats(records: Iterable[ArtifactMetadata] | StoreIndex, metric: str) -> dict:
    """Per-bin counts over ``DEFAULT_BINS[metric]`` plus a flagged overflow bucket for values in no bin."""
    if metric not in METRIC_FIELDS:
        raise ValueError(f"unknown metric: {metric}")
    bins = DEFAULT_BINS[metric]
    lows = [lo for lo, _ in bins]
    highs = [hi for _, hi in bins]
    counts = [0] * len(bins)
    overflow = 0
    for value in _as_index(records).column(METRIC_FIELDS[metric]):
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
    rows = index.select("primary_language", range(index.rows), operator.eq, language.lower())
    freq = collections.Counter(itertools.chain.from_iterable(index.at("error_tags", rows)))
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top_n]
