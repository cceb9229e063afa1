"""The store's key-directory sidecar answers exactly as a full decode of the store does."""

import contextlib
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import re
import struct
import tempfile
import zlib
from array import array

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from failpass import store as store_mod
from failpass.cli import main
from failpass.store import (
    DEFAULT_BINS,
    ArtifactMetadata,
    ArtifactStore,
    DuplicateTagError,
    QueryParseError,
    SideInfo,
    StoreError,
    error_frequency_report,
    stats,
)
from test_store import decode_lines, mk_record

# --- a full-decode oracle, written without the index -------------------------


def oracle_records(path) -> list[ArtifactMetadata]:
    """Every whole line of the store, decoded; a torn last line is not a record."""
    if not path.exists():
        return []
    out = []
    for line in path.read_bytes().split(b"\n"):
        if line.strip():
            try:
                out.append(ArtifactMetadata.from_dict(json.loads(line)))
            except ValueError:  # only the torn last line may not parse
                assert not path.read_bytes().endswith(b"\n") and path.read_bytes().endswith(line)
    return out


def oracle_stats(records, metric) -> dict:
    get = {"changes": lambda r: r.num_changes, "files_changed": lambda r: r.num_files_changed,
           "failing_tests": lambda r: r.failed.num_tests_failed}[metric]
    bins = {(f"{lo}-{hi}" if lo != hi else str(lo)): 0 for lo, hi in DEFAULT_BINS[metric]}
    overflow = 0
    for r in records:
        hit = [k for (lo, hi), k in zip(DEFAULT_BINS[metric], bins) if lo <= get(r) <= hi]
        if hit:
            bins[hit[0]] += 1
        else:
            overflow += 1
    return {"metric": metric, "bins": bins, **({"overflow": overflow} if overflow else {})}


ORACLE_TERM = re.compile(r"([\w.]+?)(<=|>=|!=|=|<|>)(.+)")
ORACLE_ALIASES = {"language": "primary_language", "num_tests_run": "failed.num_tests_run",
                  "num_tests_failed": "failed.num_tests_failed"}
ORACLE_COMPARE = {"=": lambda a, b: a == b, "!=": lambda a, b: a != b, "<": lambda a, b: a < b,
                  "<=": lambda a, b: a <= b, ">": lambda a, b: a > b, ">=": lambda a, b: a >= b}


def oracle_match(d: dict, expression: str) -> bool:
    """Whether a record's JSON object ``d`` (every key present) meets every whitespace-separated term.

    Absent values never match; strings compare lower-cased and numbers as numbers.
    """
    for term in expression.split():
        name, op, text = ORACLE_TERM.fullmatch(term).groups()
        field = ORACLE_ALIASES.get(name, name)
        value = d
        for key in field.split("."):
            value = value[key]
        if value is None:
            return False
        # the text is read as the field's type, and a stored value is compared as it is, a str lower-cased
        text = (float(text) if "." in text else int(text)) if field in NUMERIC_FIELDS else text.lower()
        if isinstance(value, str):
            value = value.lower()
        if not ORACLE_COMPARE[op](value, text):
            return False
    return True


def oracle_errors(records, language, top_n=10) -> list:
    freq = {}
    for r in records:
        if r.primary_language.lower() == language.lower():
            for name in {n for n, _ in r.error_tags}:
                freq[name] = freq.get(name, 0) + 1
    return sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:top_n]


def flat(record: ArtifactMetadata) -> dict:
    """A record's JSON object, with each side's keys also under their dotted names."""
    d = record.to_dict()
    return d | {f"{side}.{key}": value for side in ("failed", "passed") for key, value in d[side].items()}


def raw_line(record: ArtifactMetadata, drop=()) -> bytes:
    """A store line as another tool might write it: keys with codec defaults may be absent."""
    d = record.to_dict()
    for key in drop:
        d.pop(key, None)
    return (json.dumps(d) + "\n").encode()


# --- random operation sequences ---------------------------------------------

ERRORS = ("NullPointerException", "AssertionError", "ValueError", "IOError")

records = st.builds(
    lambda tag, lang, stability, category, changes, files, failing, run, pr, tags: ArtifactMetadata(
        image_tag=f"acme-widgets-{tag}", slug="acme/widgets", primary_language=lang,
        build_system="Maven", test_framework="JUnit", attempts=5,
        successes=5 if stability == "reproducible" else 2, stability=stability, category=category,
        failed=SideInfo(build_id=2 * tag, job_id=tag, num_tests_run=run, num_tests_failed=failing),
        passed=SideInfo(build_id=2 * tag + 1, job_id=tag + 1, num_tests_run=run),
        num_changes=changes, num_files_changed=files, pr_number=pr, branch="master",
        error_tags=tuple(tags)),
    tag=st.integers(1, 12),
    lang=st.sampled_from(("Java", "java", "python")),
    stability=st.sampled_from(("reproducible", "flaky")),
    category=st.sampled_from((None, "error_pass", "with_failed_test")),
    changes=st.sampled_from((0, 3, 40, 900)),
    files=st.integers(0, 8),
    failing=st.integers(0, 3),
    run=st.integers(0, 12),
    pr=st.sampled_from((None, 7)),
    tags=st.lists(st.tuples(st.sampled_from(ERRORS), st.integers(1, 3)), max_size=3),
)

terms = st.sampled_from((
    "language=java", "language!=JAVA", "stability=flaky", "category=error_pass", "category!=error_pass",
    "num_changes>=40", "num_changes=0", "num_files_changed<4", "num_tests_failed<=1", "failed.num_tests_run>6",
    "pr_number=7", "pr_number!=7", "branch=master", "passed.job_id>6", "image_tag=acme-widgets-3",
))
queries = st.lists(terms, min_size=1, max_size=3).map(" ".join)
DROPPABLE = ("num_changes", "error_tags", "num_files_changed", "pr_number", "branch")
# a field and a value that a column of another kind cannot take, so an append of it changes the column's kind
RETYPES = (("num_changes", 2 ** 63), ("num_changes", -2 ** 63 - 1), ("num_changes", 2.5), ("pr_number", None),
           ("pr_number", 7), ("num_files_changed", True), ("failed.num_tests_failed", True), ("branch", 5),
           ("category", 3))


def retyped(record: ArtifactMetadata, field: str, value) -> ArtifactMetadata:
    """``record`` with one dotted field set to ``value``."""
    outer, _, key = field.rpartition(".")
    if outer:
        return dataclasses.replace(record, **{outer: dataclasses.replace(getattr(record, outer), **{key: value})})
    return dataclasses.replace(record, **{key: value})


# each step changes the store or its sidecar, then reads
changes = st.one_of(
    st.tuples(st.just("none"), st.none()),
    st.tuples(st.just("persist"), records),
    st.tuples(st.just("retype"), st.tuples(records, st.sampled_from(RETYPES))),
    st.tuples(st.just("raw_append"), st.tuples(records, st.lists(st.sampled_from(DROPPABLE), max_size=3))),
    st.tuples(st.just("torn_append"), st.integers(1, 40)),
    st.tuples(st.just("sidecar"), st.sampled_from(("absent", "corrupt", "old_version", "new_inode"))),
    st.tuples(st.just("corrupt_at"), st.tuples(st.floats(0, 1), st.integers(0, 255))),
)
reads = st.one_of(
    st.tuples(st.just("query"), queries),
    st.tuples(st.just("stats"), st.sampled_from(sorted(DEFAULT_BINS))),
    st.tuples(st.just("errors"), st.sampled_from(("java", "python"))),
    st.tuples(st.just("get"), st.integers(1, 12)),
)


# the form of a sidecar column's line, by its kind: a compact JSON list, or one little-endian word a row
LINE_FORMS = {"int": "<q", "dict": "<I", "json": "json"}


def column_line(kind: str, values: list) -> tuple[bytes, list | None]:
    """A column's line, newline included, and its dictionary (None unless ``dict``), written without the store's
    encoders."""
    if kind == "json":
        return json.dumps(values, separators=(",", ":")).encode() + b"\n", None
    dictionary = list(dict.fromkeys(values)) if kind == "dict" else None
    words = values if dictionary is None else map(dictionary.index, values)
    return b"".join(struct.pack(LINE_FORMS[kind], v) for v in words) + b"\n", dictionary


def frame_sidecar(head: dict, lines: list[bytes]) -> bytes:
    """A format-5 sidecar of one line a column: the prologue (the header line's size and CRC-32 as 8 hex digits
    each), the compact JSON header with the size of each line and its CRC-32 without its closing bytes (``]`` and
    the newline, or the newline) as the hex of little-endian uint32 words, then the lines."""
    sizes = b"".join(struct.pack("<I", len(line)) for line in lines).hex()
    crcs = b"".join(struct.pack("<I", zlib.crc32(line[:-2] if kind == "json" else line[:-1]))
                    for kind, line in zip(head["kinds"], lines)).hex()
    header = json.dumps({**head, "sizes": sizes, "crcs": crcs}, separators=(",", ":")).encode() + b"\n"
    return b"%08x %08x\n" % (len(header), zlib.crc32(header)) + header + b"".join(lines)


def read_sidecar(data: bytes) -> tuple[dict, dict[str, tuple[int, bytes]]]:
    """The header of a format-5 sidecar and, per field, where its line starts and the line."""
    size = int(data[:8], 16)
    head = json.loads(data[18:18 + size])
    sizes = [n for (n,) in struct.iter_unpack("<I", bytes.fromhex(head["sizes"]))]
    at, columns = 18 + size, {}
    for name, n in zip(head["fields"], sizes, strict=True):
        columns[name] = (at, data[at:at + n])
        at += n
    assert at == len(data)
    return head, columns


def reframe(data: bytes, **changes) -> bytes:
    """``data`` framed again, checks and all, with header keys or columns' lines replaced."""
    head, columns = read_sidecar(data)
    lines = {name: line for name, (_, line) in columns.items()}
    lines.update(changes.pop("lines", {}))
    head = {k: v for k, v in head.items() if k not in ("sizes", "crcs")} | changes
    return frame_sidecar(head, [lines[name] for name in head["fields"]])


def parse(data: bytes, stamp: list):
    """What ``StoreIndex.read`` makes of the sidecar bytes ``data`` with every column named, as an append reads."""
    with tempfile.TemporaryFile() as fh:
        fh.write(data)
        fh.flush()
        return store_mod.StoreIndex.read(fh.fileno(), stamp, SIDECAR_FIELDS)


def change_sidecar(store: ArtifactStore, state: str) -> None:
    idx = store.index_path
    if state == "absent":
        idx.unlink(missing_ok=True)
    elif state == "corrupt" and idx.exists():
        idx.write_bytes(idx.read_bytes()[: idx.stat().st_size // 2])
    elif state == "old_version" and idx.exists():
        # whole and for this store by every check of format 5, but of version 4, whose lines mean other things
        _, columns = read_sidecar(idx.read_bytes())
        idx.write_bytes(reframe(idx.read_bytes(), version=4,
                                lines={"offset": columns["length"][1], "length": columns["offset"][1]}))
    elif state == "new_inode" and store.path.read_bytes().endswith(b"\n"):
        # the same size and mtime, other content: only the inode tells the old index from the new store
        lines = store.path.read_bytes().splitlines(keepends=True)
        st_old = store.path.stat()
        tmp = store.path.with_name("replacement")
        tmp.write_bytes(b"".join(lines[-1:] + lines[1:-1] + lines[:1]))
        os.utime(tmp, ns=(st_old.st_atime_ns, st_old.st_mtime_ns))
        os.replace(tmp, store.path)


def change(store: ArtifactStore, op: str, arg) -> None:
    """Apply one change; ``persist`` is checked against the oracle here."""
    path = store.path
    if op == "retype":
        op, arg = "persist", retyped(arg[0], *arg[1])
    if op == "persist":
        truth = oracle_records(path)
        if arg.image_tag in {r.image_tag for r in truth}:
            with pytest.raises(DuplicateTagError):
                store.persist(arg)
        else:
            store.persist(arg)
            truth.append(arg)
            assert path.read_bytes().endswith(b"\n")
        assert oracle_records(path) == truth
    elif op == "raw_append" and path.read_bytes().endswith(b"\n"):
        record, drop = arg
        with path.open("ab") as fh:
            fh.write(raw_line(record, drop))
    elif op == "torn_append" and path.read_bytes().endswith(b"\n"):
        with path.open("ab") as fh:
            fh.write(raw_line(mk_record(tag="acme-widgets-99"))[:arg])
    elif op == "corrupt_at" and store.index_path.exists():
        where, byte = arg
        data = bytearray(store.index_path.read_bytes())
        data[int(where * (len(data) - 1))] = byte
        store.index_path.write_bytes(bytes(data))
    elif op == "sidecar":
        change_sidecar(store, arg)


def check_read(store: ArtifactStore, op: str, arg) -> None:
    truth = oracle_records(store.path)
    if op == "query":
        assert store.query(arg) == [json.dumps(r.to_dict()) + "\n" for r in truth if oracle_match(r.to_dict(), arg)]
    elif op == "stats":
        assert stats(store.index(), arg) == oracle_stats(truth, arg)
    elif op == "errors":
        assert error_frequency_report(store.index(), arg) == oracle_errors(truth, arg)
    else:
        tag = f"acme-widgets-{arg}"
        assert store.get(tag) == next((r for r in truth if r.image_tag == tag), None)


class TestIndexAnswersAsFullDecode:
    @settings(derandomize=True, deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(initial=st.lists(records, min_size=1, max_size=6, unique_by=lambda r: r.image_tag),
           steps=st.lists(st.tuples(changes, reads), max_size=10))
    def test_random_sequences(self, tmp_path_factory, initial, steps):
        path = tmp_path_factory.mktemp("store") / "store.jsonl"
        store = ArtifactStore(path)
        for record in initial:
            store.persist(record)
        for (op, arg), (read, what) in steps:
            change(store, op, arg)
            check_read(store, read, what)
            assert store.load() == oracle_records(path)
        # every read after a change left a fresh sidecar, and no temp file
        assert sorted(p.name for p in path.parent.iterdir()) == ["store.jsonl", "store.jsonl.idx"]


# RETYPES, a null that makes an int column json, and a null and a bool that a dict column takes as they are
GROWTH_RETYPES = (*RETYPES, ("num_changes", None), ("branch", None), ("category", True))


class TestGrownSidecarIsRebuilt:
    @settings(derandomize=True, deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    # 66 distinct branches in 131 rows, then a 132nd: a dictionary limit of half the rows would rebuild that as dict
    @example(first=66, repeats=65, steps=[(0, 0, None)])
    @given(first=st.integers(58, 70), repeats=st.integers(0, 80), steps=st.lists(
        st.tuples(st.integers(0, 68), st.integers(0, 68), st.none() | st.sampled_from(GROWTH_RETYPES)),
        min_size=1, max_size=8))
    def test_every_append_writes_the_sidecar_of_a_rebuild(self, tmp_path_factory, first, repeats, steps):
        """From a store whose branch column holds about 64 distinct values, in as many rows or up to 80 more, each
        append of a branch and a merge_timestamp from pools of 69, some with a field set to a value of another
        type, leaves the bytes that a rebuild of the store writes."""
        path = tmp_path_factory.mktemp("store") / "store.jsonl"
        store = ArtifactStore(path)
        with path.open("ab") as fh:
            fh.writelines(raw_line(dataclasses.replace(mk_record(tag=f"a-b-{k}"), branch=f"b{min(k, first - 1)}"))
                          for k in range(first + repeats))
        store.index()
        for k, (branch, merged, retype) in enumerate(steps, first + repeats):
            record = dataclasses.replace(mk_record(tag=f"a-b-{k}"), branch=f"b{branch}", merge_timestamp=f"t{merged}")
            store.persist(retyped(record, *retype) if retype else record)
            with path.open("rb") as fh:
                built = store._build(fh)
            assert store.index_path.read_bytes() == b"".join(built.dump())


# --- fixed cases --------------------------------------------------------------


@pytest.fixture()
def two_records(tmp_path):
    store = ArtifactStore(tmp_path / "store.jsonl")
    store.persist(mk_record(tag="a-b-1", language="Java", changes=10))
    store.persist(mk_record(tag="a-b-2", language="Python", changes=600, error_tags=(("ValueError", 2),)))
    return store


# the sidecar's columns in order; a change to them is a change of format, which needs an INDEX_VERSION bump
SIDECAR_FIELDS = [
    "image_tag", "slug", "primary_language", "build_system", "test_framework", "attempts", "successes",
    "stability", "category", "failed.build_id", "failed.job_id", "failed.num_tests_run",
    "failed.num_tests_failed", "failed.trigger_sha", "failed.branch", "passed.build_id", "passed.job_id",
    "passed.num_tests_run", "passed.num_tests_failed", "passed.trigger_sha", "passed.branch", "num_changes",
    "num_files_changed", "pr_number", "merge_timestamp", "branch", "error_tags", "offset", "length", "verbatim",
]
NUMERIC_FIELDS = {"attempts", "successes", "failed.build_id", "failed.job_id", "failed.num_tests_run",
                  "failed.num_tests_failed", "passed.build_id", "passed.job_id", "passed.num_tests_run",
                  "passed.num_tests_failed", "num_changes", "num_files_changed", "pr_number"}


class TestSidecar:
    def test_field_list_and_kinds_are_pinned(self, two_records):
        data = two_records.index_path.read_bytes()
        head, _ = read_sidecar(data)
        assert store_mod._index_fields() == head["fields"] == SIDECAR_FIELDS
        assert head["version"] == store_mod.INDEX_VERSION == 5
        # the whole file, written from the records' values with this file's own encoders
        sizes = [len(line) for line in two_records.path.read_bytes().splitlines(keepends=True)]
        values = {name: [row[name] for row in (flat(r) for r in two_records.load())] for name in SIDECAR_FIELDS[:-4]}
        values |= {"error_tags": [["NullPointerException"], ["ValueError"]], "offset": [0, sizes[0]], "length": sizes,
                   "verbatim": [True, True]}
        # pr_number holds only None here, so it is a dict column
        kinds = {name: "int" if name in (NUMERIC_FIELDS | {"offset", "length"}) - {"pr_number"} else "dict"
                 for name in SIDECAR_FIELDS} | {"error_tags": "json"}

        lines, dicts = zip(*(column_line(kinds[name], values[name]) for name in SIDECAR_FIELDS))
        expected = frame_sidecar({"version": 5, "stamp": head["stamp"], "end": sizes[0] + sizes[1], "rows": 2,
                                  "fields": SIDECAR_FIELDS, "kinds": [kinds[name] for name in SIDECAR_FIELDS],
                                  "dicts": list(dicts)}, list(lines))
        # the second persist reused the dictionary entry of each value it already held
        assert data == expected
        assert head["dicts"][SIDECAR_FIELDS.index("slug")] == ["acme/widgets"]
        assert read_sidecar(data)[1]["slug"][1] == b"\0\0\0\0\0\0\0\0\n"
        assert head["dicts"][SIDECAR_FIELDS.index("num_changes")] is None
        assert read_sidecar(data)[1]["num_changes"][1] == struct.pack("<2q", 10, 600) + b"\n"
        # a rebuild writes the same file
        two_records.index_path.unlink()
        two_records.index()
        assert two_records.index_path.read_bytes() == expected
        for name in SIDECAR_FIELDS[:-4]:
            if name in NUMERIC_FIELDS:
                two_records.query(f"{name}>=0")
                with pytest.raises(QueryParseError, match="expected a number"):
                    two_records.query(f"{name}=x")
            else:
                two_records.query(f"{name}!=x")
                with pytest.raises(QueryParseError, match="range comparison"):
                    two_records.query(f"{name}>x")
        for name in ("error_tags", "failed.failed_test_names", "offset", "verbatim"):
            with pytest.raises(QueryParseError, match="unknown field"):
                two_records.query(f"{name}=x")

    def test_persist_keeps_the_sidecar_fresh_and_leaves_no_temp_file(self, two_records):
        assert sorted(p.name for p in two_records.path.parent.iterdir()) == ["store.jsonl", "store.jsonl.idx"]
        head, _ = read_sidecar(two_records.index_path.read_bytes())
        st_store = two_records.path.stat()
        assert head["stamp"] == [st_store.st_ino, st_store.st_size, st_store.st_mtime_ns]
        assert head["rows"] == 2 and head["end"] == st_store.st_size

    def test_reader_rebuilds_a_deleted_sidecar(self, two_records):
        two_records.index_path.unlink()
        assert [r.image_tag for r in decode_lines(two_records.query("language=python"))] == ["a-b-2"]
        assert two_records.index_path.exists()
        assert sorted(p.name for p in two_records.path.parent.iterdir()) == ["store.jsonl", "store.jsonl.idx"]

    def test_load_reads_through_a_rebuilt_sidecar(self, two_records):
        two_records.index_path.unlink()
        assert [r.image_tag for r in two_records.load()] == ["a-b-1", "a-b-2"]
        assert two_records.index_path.exists()

    def test_sidecar_with_altered_body_is_rebuilt(self, two_records):
        data = two_records.index_path.read_bytes()
        at, line = read_sidecar(data)[1]["num_changes"]
        assert line == struct.pack("<2q", 10, 600) + b"\n"
        # the header still matches the store; only the CRC tells
        two_records.index_path.write_bytes(data[:at] + struct.pack("<2q", 10, 100) + data[at + len(line) - 1:])
        assert [r.image_tag for r in decode_lines(two_records.query("num_changes>=500"))] == ["a-b-2"]
        assert read_sidecar(two_records.index_path.read_bytes())[1]["num_changes"][1] == line

    @pytest.mark.parametrize("field", ["num_files_changed", "error_tags", "offset", "verbatim"])
    def test_persist_carries_a_damaged_column_it_did_not_read_as_damaged(self, two_records, field):
        data = bytearray(two_records.index_path.read_bytes())
        at, _ = read_sidecar(data)[1][field]
        data[at + 1] ^= 1  # the second byte of the column's line, which the append does not parse
        two_records.index_path.write_bytes(data)
        two_records.persist(mk_record(tag="a-b-3"))  # parses the image_tag column only
        # the damage is still there, and still fails the check of its column after the append
        data = two_records.index_path.read_bytes()
        index = parse(data, read_sidecar(data)[0]["stamp"])
        with pytest.raises(store_mod.SidecarDamaged, match=repr(field)):
            index.column(field)
        with two_records.path.open("rb") as fh:
            built = two_records._build(fh)
        read = two_records.index()
        assert {name: list(read.column(name)) for name in SIDECAR_FIELDS} == {
            name: list(built.column(name)) for name in SIDECAR_FIELDS}

    def test_persist_rebuilds_when_a_column_it_must_retype_is_damaged(self, two_records):
        data = bytearray(two_records.index_path.read_bytes())
        at, _ = read_sidecar(data)[1]["num_changes"]
        data[at] ^= 1
        two_records.index_path.write_bytes(data)
        # 2**63 does not fit the int column, which must be parsed to be written as json, and fails its check
        two_records.persist(mk_record(tag="a-b-3", changes=2 ** 63))
        assert [r.num_changes for r in two_records.load()] == [10, 600, 2 ** 63]
        head, _ = read_sidecar(two_records.index_path.read_bytes())
        assert head["rows"] == 3 and head["kinds"][SIDECAR_FIELDS.index("num_changes")] == "json"
        assert decode_lines(two_records.query("num_changes>=600")) == two_records.load()[1:]

    def test_persist_rebuilds_when_a_dictionary_it_reads_is_damaged(self, two_records, monkeypatch):
        data = bytearray(two_records.index_path.read_bytes())
        at = data.index(b'["Java","Python"]')  # the primary_language dictionary, whose entry the appended Java reuses
        assert at < read_sidecar(data)[1]["image_tag"][0]  # in the header, whose CRC-32 covers it
        data[at + 2] ^= 1
        two_records.index_path.write_bytes(data)
        rebuilt = []
        build = ArtifactStore._build
        monkeypatch.setattr(ArtifactStore, "_build", lambda self, fh: rebuilt.append(1) or build(self, fh))
        two_records.persist(mk_record(tag="a-b-3", language="Java"))
        assert rebuilt == [1]
        with two_records.path.open("rb") as fh:
            built = two_records._build(fh)
        assert two_records.index_path.read_bytes() == b"".join(built.dump())
        assert [r.image_tag for r in decode_lines(two_records.query("language=java"))] == ["a-b-1", "a-b-3"]

    def test_a_store_grown_by_persist_has_the_sidecar_of_a_rebuild(self, tmp_path):
        store = ArtifactStore(tmp_path / "store.jsonl")
        limit = store_mod._DICT_LIMIT
        for k in range(140):  # 65 distinct branches, then those again: more than twice as many rows
            record = mk_record(tag=f"a-b-{k}", language=("Java", "Python")[k % 3 == 0], changes=k)
            store.persist(dataclasses.replace(record, branch=f"b{k % (limit + 1)}"))
            kinds = dict(zip(SIDECAR_FIELDS, read_sidecar(store.index_path.read_bytes())[0]["kinds"]))
            # a distinct tag or branch a row: a dict column up to the limit of its dictionary, then a json list
            assert kinds["image_tag"] == kinds["branch"] == ("dict" if k < limit else "json"), k
        data = store.index_path.read_bytes()
        assert read_sidecar(data)[0]["dicts"][SIDECAR_FIELDS.index("primary_language")] == ["Python", "Java"]
        store.index_path.unlink()
        store.index()
        assert store.index_path.read_bytes() == data

    @pytest.mark.parametrize("rows", [64, 1000])
    def test_a_dictionary_holds_64_entries_whatever_the_row_count(self, tmp_path, rows):
        store = ArtifactStore(tmp_path / "store.jsonl")

        def branched(k: int, branch: str) -> ArtifactMetadata:
            return dataclasses.replace(mk_record(tag=f"a-b-{k}"), branch=branch)

        def branch_kind() -> str:
            """The kind of the branch column, once the sidecar is checked to be what a rebuild writes."""
            data = store.index_path.read_bytes()
            store.index_path.unlink()
            store.index()
            assert store.index_path.read_bytes() == data
            return read_sidecar(data)[0]["kinds"][SIDECAR_FIELDS.index("branch")]

        assert store_mod._DICT_LIMIT == 64
        with store.path.open("ab") as fh:  # 63 distinct branches, then those again
            fh.writelines(raw_line(branched(k, f"b{k % 63}")) for k in range(rows - 1))
        store.index()
        store.persist(branched(rows - 1, "b63"))  # the 64th distinct branch
        assert branch_kind() == "dict"
        store.persist(branched(rows, "b64"))  # the 65th
        assert branch_kind() == "json"

    def test_an_index_reads_the_rows_added_to_it(self, two_records):
        data = two_records.index_path.read_bytes()
        stamp = read_sidecar(data)[0]["stamp"]
        index = parse(data, stamp)
        index.check(*SIDECAR_FIELDS)  # every column parsed, and still held as its sidecar line too
        line = raw_line(mk_record(tag="a-b-3", language="Python", changes=2 ** 63))
        with two_records.path.open("ab") as fh:
            fh.write(line)
        index.add(json.loads(line), index.end, len(line), True)
        with two_records.path.open("rb") as fh:
            built = two_records._build(fh)
        want = {name: list(built.column(name)) for name in SIDECAR_FIELDS}
        assert {name: list(index.column(name)) for name in SIDECAR_FIELDS} == want
        again = parse(b"".join(index.dump()), stamp)
        assert {name: list(again.column(name)) for name in SIDECAR_FIELDS} == want

    @pytest.mark.parametrize("field, value", RETYPES)
    def test_an_append_that_changes_a_kind_keeps_each_value_and_its_type(self, two_records, field, value):
        kinds = dict(zip(SIDECAR_FIELDS, read_sidecar(two_records.index_path.read_bytes())[0]["kinds"]))
        two_records.persist(retyped(mk_record(tag="a-b-3"), field, value))
        head, _ = read_sidecar(two_records.index_path.read_bytes())
        values = two_records.index(field).column(field)
        assert values[-1] == value and type(values[-1]) is type(value)
        with two_records.path.open("rb") as fh:
            assert list(values) == list(two_records._build(fh).column(field))
        # a value that the column's kind cannot hold makes it a json column
        fits = kinds[field] == "dict" and (value is None or type(value) in (str, bool))
        assert head["kinds"][SIDECAR_FIELDS.index(field)] == ("dict" if fits else "json")

    @pytest.fixture()
    def twenty(self, tmp_path):
        store = ArtifactStore(tmp_path / "store.jsonl")
        with store.path.open("ab") as fh:
            for k in range(20):
                fh.write(raw_line(mk_record(tag=f"a-b-{k}", language=("Java", "Python")[k % 3 == 0], changes=k)))
        store.index()
        return store

    @pytest.mark.parametrize("damage", ["rows_past_every_column", "a_code_short", "a_code_past_the_dictionary",
                                        "a_dictionary_short", "a_value_short"])
    def test_a_column_that_disagrees_with_the_header_is_damage(self, twenty, capsys, damage):
        data = twenty.index_path.read_bytes()
        with twenty.path.open("rb") as fh:
            stamp = store_mod._stamp(fh)
        if damage == "rows_past_every_column":  # every CRC is the writer's own
            index = parse(data, stamp)
            index.rows += 1
            data = b"".join(index.dump())
        elif damage == "a_value_short":
            data = reframe(data, lines={"error_tags": json.dumps([["NullPointerException"]] * 19).encode() + b"\n"})
        elif damage == "a_dictionary_short":  # one entry of the two, which the codes still name
            head, _ = read_sidecar(data)
            k = SIDECAR_FIELDS.index("primary_language")
            assert head["dicts"][k] == ["Python", "Java"]
            data = reframe(data, dicts=head["dicts"][:k] + [["Python"]] + head["dicts"][k + 1:])
        else:  # the primary_language column: one code fewer than rows, or a code past its two entries
            codes = read_sidecar(data)[1]["primary_language"][1]
            codes = codes[:-5] + (b"" if damage == "a_code_short" else struct.pack("<I", 2)) + b"\n"
            data = reframe(data, lines={"primary_language": codes})
        twenty.index_path.write_bytes(data)
        # a read under the lock rebuilds the index and answers as the store does
        main(["query", "language=java", "--store", str(twenty.path)])
        main(["stats", "--errors", "java", "--store", str(twenty.path)])
        truth = oracle_records(twenty.path)
        java = "".join(json.dumps(r.to_dict()) + "\n" for r in truth if r.primary_language == "Java")
        assert capsys.readouterr().out == java + "NullPointerException\t13\n"
        assert twenty.index_path.read_bytes() != data
        field = "error_tags" if damage == "a_value_short" else "primary_language"
        with pytest.raises(store_mod.SidecarDamaged, match=repr(field)):
            parse(data, stamp).column(field)

    def test_reads_read_the_header_and_their_columns_only(self, twenty, monkeypatch, capsys):
        data = twenty.index_path.read_bytes()
        head, columns = read_sidecar(data)
        ino = twenty.index_path.stat().st_ino
        spans = {name: range(at, at + len(line)) for name, (at, line) in columns.items()}
        spans["header"] = range(columns[SIDECAR_FIELDS[0]][0])
        reads, opened = [], []  # (offset, size) of each pread of the sidecar, and each path opened with open()
        pread, io_open = os.pread, io.open
        monkeypatch.setattr(os, "pread", lambda fd, n, offset: (os.fstat(fd).st_ino == ino
                                                                and reads.append((offset, n))) or pread(fd, n, offset))
        monkeypatch.setattr(io, "open", lambda file, *args, **kw: opened.append(os.fspath(file))
                            or io_open(file, *args, **kw))
        monkeypatch.setattr(ArtifactStore, "_build", lambda *_: pytest.fail("the sidecar is fresh"))
        for argv, fields in ((["query", "language=java num_changes>=3"],
                              ["primary_language", "num_changes", "offset", "length", "verbatim"]),
                             (["stats", "--metric", "changes"], ["num_changes"]),
                             (["stats", "--errors", "python"], ["primary_language", "error_tags"])):
            main([*argv, "--store", str(twenty.path)])
            touched = {name for name, span in spans.items() for offset, n in reads
                       if offset < span.stop and span.start < offset + n}
            assert touched == {"header", *fields}, argv
            assert all(span.start <= offset and offset + n <= span.stop for offset, n in reads
                       for span in [next(s for s in spans.values() if offset in s)]), argv
            reads.clear()
        assert str(twenty.index_path) not in opened
        assert capsys.readouterr().out.endswith("NullPointerException\t7\n")

    def test_first_append_after_an_empty_store_was_read(self, tmp_path):
        store = ArtifactStore(tmp_path / "store.jsonl")
        store.path.touch()
        assert store.query("language=java") == [] and store.index_path.exists()
        store.persist(mk_record(tag="a-b-1"))
        store.persist(mk_record(tag="a-b-2"))
        assert [r.image_tag for r in decode_lines(store.query("language=java"))] == ["a-b-1", "a-b-2"]
        assert store.load() == [mk_record(tag="a-b-1"), mk_record(tag="a-b-2")]

    def test_absent_keys_take_the_codec_defaults(self, two_records):
        with two_records.path.open("ab") as fh:
            fh.write(raw_line(mk_record(tag="a-b-3", language="Java", changes=77),
                              drop=("num_changes", "error_tags")))
        (record,) = decode_lines(two_records.query("num_changes=0"))
        assert record.image_tag == "a-b-3" and record.num_changes == 0 and record.error_tags == ()
        assert stats(two_records.index(), "changes")["overflow"] == 1
        assert error_frequency_report(two_records.index(), "java") == [("NullPointerException", 1)]

    def test_duplicate_of_a_tag_only_another_tool_appended(self, two_records):
        with two_records.path.open("ab") as fh:
            fh.write(raw_line(mk_record(tag="a-b-9")))
        with pytest.raises(DuplicateTagError, match="a-b-9"):
            two_records.persist(mk_record(tag="a-b-9"))
        with pytest.raises(DuplicateTagError, match="a-b-1"):
            two_records.persist(mk_record(tag="a-b-1"))
        assert [r.image_tag for r in two_records.load()] == ["a-b-1", "a-b-2", "a-b-9"]

    def test_missing_store_reads_empty_and_writes_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path / "absent.jsonl")
        assert store.query("language=java") == [] and store.get("a-b-1") is None
        assert stats(store.index(), "changes")["bins"]["1-5"] == 0
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("layout", ["version_1", "version_1_with_verbatim", "version_2", "version_3", "version_4"])
    def test_version_1_sidecar_is_rebuilt(self, two_records, monkeypatch, layout):
        # a line that is not the codec's encoding; a sidecar that marked it verbatim would have it copied
        with two_records.path.open("ab") as fh:
            fh.write(raw_line(mk_record(tag="a-b-3", changes=77), drop=("num_changes",)))
        index = two_records.index()
        assert index.column("verbatim") == [True, True, False]
        # an older format, whole and for this store by its own checks
        columns = {name: list(index.column(name)) for name in SIDECAR_FIELDS}
        columns["verbatim"] = [True, True, True]
        if layout == "version_1":  # the columns that version 1 had
            del columns["verbatim"]
        head = {"version": int(layout[8]), "stamp": index.stamp, "end": index.end, "rows": index.rows,
                "fields": list(columns)}
        lines = [json.dumps(values, separators=(",", ":")).encode() for values in columns.values()]
        if layout == "version_3":
            # positions as one JSON string of 16 hex digits a row; the header gives each line's size and CRC-32
            # without its closing byte, and the last line is the CRC-32 of the header line
            for name in ("offset", "length"):
                lines[SIDECAR_FIELDS.index(name)] = b'"%s"' % b"".join(
                    n.to_bytes(8, "little").hex().encode() for n in columns[name])
            head |= {"sizes": [len(line) for line in lines], "crcs": [zlib.crc32(line[:-1]) for line in lines]}
            header = json.dumps(head).encode() + b"\n"
            sidecar = header + b"".join(line + b"\n" for line in lines) + b"%d\n" % zlib.crc32(header)
        elif layout == "version_4":
            # a prologue, then a header with each column's kind and dictionary size and each part line's size and
            # CRC-32 without its closing bytes; verbatim is a dict column of two part lines, its dictionary and codes
            parts = [line + b"\n" for line in lines[:-1]] + [b"[true]\n", struct.pack("<3I", 0, 0, 0) + b"\n"]
            crcs = [zlib.crc32(part[:-2]) for part in parts[:-1]] + [zlib.crc32(parts[-1][:-1])]
            head |= {"kinds": ["json"] * (len(lines) - 1) + ["dict"], "entries": [0] * (len(lines) - 1) + [1],
                     "sizes": struct.pack(f"<{len(parts)}I", *map(len, parts)).hex(),
                     "crcs": struct.pack(f"<{len(parts)}I", *crcs).hex()}
            header = json.dumps(head, separators=(",", ":")).encode() + b"\n"
            sidecar = b"%08x %08x\n" % (len(header), zlib.crc32(header)) + header + b"".join(parts)
        else:  # a header, one JSON list per field, then the CRC-32 of everything before it
            body = b"".join([json.dumps(head).encode() + b"\n", *(line + b"\n" for line in lines)])
            sidecar = body + b"%d\n" % zlib.crc32(body)
        two_records.index_path.write_bytes(sidecar)
        built = []
        build = ArtifactStore._build
        monkeypatch.setattr(ArtifactStore, "_build", lambda self, fh: built.append(1) or build(self, fh))
        assert two_records.query("branch=master") == [json.dumps(r.to_dict()) + "\n"
                                                      for r in oracle_records(two_records.path)]
        assert built == [1]
        assert read_sidecar(two_records.index_path.read_bytes())[0]["version"] == 5

    def test_unwritable_sidecar_keeps_the_index_in_memory(self, two_records, monkeypatch):
        two_records.index_path.unlink()

        def refuse(*_):
            raise PermissionError("read-only directory")

        monkeypatch.setattr(store_mod.os, "replace", refuse)
        assert [r.image_tag for r in decode_lines(two_records.query("num_changes>=600"))] == ["a-b-2"]
        assert error_frequency_report(two_records.index(), "python") == [("ValueError", 1)]
        two_records.persist(mk_record(tag="a-b-3"))
        assert [r.image_tag for r in two_records.load()] == ["a-b-1", "a-b-2", "a-b-3"]
        assert sorted(p.name for p in two_records.path.parent.iterdir()) == ["store.jsonl"]

    def test_read_only_directory(self, two_records, capsys):
        two_records.index_path.unlink()
        directory = two_records.path.parent
        directory.chmod(0o555)
        try:
            try:
                (directory / "probe").touch()
            except PermissionError:
                pass
            else:  # root, with its permission override: the directory stays writable
                (directory / "probe").unlink()
                pytest.skip("the file mode is not enforced for this user")
            main(["query", "language=java", "--store", str(two_records.path)])
            main(["stats", "--metric", "changes", "--store", str(two_records.path)])
            main(["stats", "--errors", "python", "--store", str(two_records.path)])
            assert sorted(p.name for p in directory.iterdir()) == ["store.jsonl"]
        finally:
            directory.chmod(0o755)
        out = capsys.readouterr().out.splitlines()
        assert json.loads(out[0])["image_tag"] == "a-b-1"
        assert out[-1] == "ValueError\t1"


class TestTornLastLine:
    TORN = b'{"image_tag": "torn-1", "slug": "ac'

    def test_reads_skip_a_torn_last_line(self, two_records):
        with two_records.path.open("ab") as fh:
            fh.write(self.TORN)
        assert [r.image_tag for r in two_records.load()] == ["a-b-1", "a-b-2"]
        assert [r.image_tag for r in decode_lines(two_records.query("branch=master"))] == ["a-b-1", "a-b-2"]
        assert sum(stats(two_records.index(), "changes")["bins"].values()) == 2
        assert two_records.get("a-b-3") is None

    def test_next_persist_cuts_it_off(self, two_records):
        size = two_records.path.stat().st_size
        with two_records.path.open("ab") as fh:
            fh.write(self.TORN)
        two_records.persist(mk_record(tag="a-b-3"))
        data = two_records.path.read_bytes()
        assert self.TORN not in data and len(data) > size and data.endswith(b"\n")
        assert [r.image_tag for r in two_records.load()] == ["a-b-1", "a-b-2", "a-b-3"]
        assert two_records.get("a-b-3") == mk_record(tag="a-b-3")

    def test_whole_last_line_without_newline_is_kept(self, two_records):
        with two_records.path.open("ab") as fh:
            fh.write(raw_line(mk_record(tag="a-b-3")).rstrip(b"\n"))
        assert [r.image_tag for r in two_records.load()] == ["a-b-1", "a-b-2", "a-b-3"]
        two_records.persist(mk_record(tag="a-b-4"))
        hits = decode_lines(two_records.query("branch=master"))
        assert [r.image_tag for r in hits] == ["a-b-1", "a-b-2", "a-b-3", "a-b-4"]
        assert [r.image_tag for r in two_records.load()] == ["a-b-1", "a-b-2", "a-b-3", "a-b-4"]

    @pytest.mark.parametrize("bad", [b"{not json\n", b"[1, 2]\n", b'{"image_tag": "x"}\n'])
    def test_bad_line_elsewhere_names_store_and_line(self, two_records, bad):
        lines = two_records.path.read_bytes().splitlines(keepends=True)
        two_records.path.write_bytes(lines[0] + bad + lines[1])
        where = f"{two_records.path}, line 2"
        for read in (two_records.load, two_records.index, lambda: two_records.query("branch=master"),
                     lambda: two_records.get("a-b-2"), lambda: two_records.persist(mk_record(tag="a-b-5"))):
            with pytest.raises(StoreError, match=f"^{re.escape(where)}: "):
                read()

    def test_undecodable_hit_names_its_line(self, two_records):
        lines = two_records.path.read_bytes().splitlines(keepends=True)
        bad = json.loads(lines[1])
        bad["successes"] = 9  # a row the index takes, which ArtifactMetadata refuses
        two_records.path.write_bytes(lines[0] + b"\n" + (json.dumps(bad) + "\n").encode())
        assert [r.image_tag for r in decode_lines(two_records.query("language=java"))] == ["a-b-1"]
        with pytest.raises(StoreError, match=f"^{re.escape(str(two_records.path))}, line 3: ValueError"):
            two_records.query("language=python")


    def test_cli_ends_a_bad_line_in_one_line(self, two_records):
        two_records.path.write_bytes(b'{"image_tag": "x"}\n' + two_records.path.read_bytes())
        for argv in (["query", "branch=master"], ["stats", "--metric", "changes"], ["stats", "--errors", "java"],
                     ["artifact", "fetch", "a-b-1"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--store", str(two_records.path)])
            assert exc.value.code == f"failpass: {two_records.path}, line 1: KeyError: 'slug'"


class TestLanguageThatIsNoString:
    # a null never matches, under != too; a number is compared as it is stored, so it is != every string
    @pytest.mark.parametrize("language, not_java", [(None, ["a-b-2"]), (5, ["a-b-2", "a-b-3"])])
    def test_error_report_keeps_what_the_language_term_keeps(self, two_records, capsys, language, not_java):
        d = mk_record(tag="a-b-3", error_tags=(("IOError", 1),)).to_dict()
        d["primary_language"] = language
        with two_records.path.open("ab") as fh:
            fh.write((json.dumps(d) + "\n").encode())
        assert [r.image_tag for r in two_records.load()] == ["a-b-1", "a-b-2", "a-b-3"]
        for name in ("java", "python"):
            main(["stats", "--errors", name, "--store", str(two_records.path)])
        assert capsys.readouterr().out == "NullPointerException\t1\nValueError\t1\n"
        assert [r.image_tag for r in decode_lines(two_records.query("language!=java"))] == not_java


class TestDecodeCount:
    @pytest.fixture()
    def counted(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "store.jsonl")
        for k in range(1, 9):
            store.persist(mk_record(tag=f"a-b-{k}", language="Java" if k % 2 else "Python", changes=k))
        decoded = []
        decode = ArtifactMetadata.from_dict
        monkeypatch.setattr(ArtifactMetadata, "from_dict",
                            classmethod(lambda cls, d: decoded.append(d) or decode(d)))
        return store, decoded

    @staticmethod
    def count_encodes(monkeypatch) -> list:
        """Record each ``to_dict`` and ``json.dumps`` call from here on."""
        calls = []
        to_dict, dumps = ArtifactMetadata.to_dict, json.dumps
        monkeypatch.setattr(ArtifactMetadata, "to_dict", lambda self: calls.append("to_dict") or to_dict(self))
        monkeypatch.setattr(json, "dumps", lambda obj, **kw: calls.append("dumps") or dumps(obj, **kw))
        return calls

    def test_query_decodes_exactly_its_hits(self, counted, monkeypatch):
        store, decoded = counted
        encoded = self.count_encodes(monkeypatch)
        # a store written only by persist: every hit is copied as it is
        assert len(store.query("language=java num_changes>=3")) == 3
        assert decoded == [] and encoded == []
        # another tool's lines: only those that are not the codec's encoding are decoded and encoded
        with store.path.open("ab") as fh:
            fh.write(raw_line(mk_record(tag="a-b-9", changes=9), drop=("branch",)))
            d = mk_record(tag="a-b-10", changes=10).to_dict()
            fh.write((json.dumps(dict(reversed(d.items()))) + "\n").encode())
            fh.write(raw_line(mk_record(tag="a-b-11", changes=11)))
            fh.write(raw_line(mk_record(tag="a-b-12", language="Python", changes=12), drop=("branch",)))
        assert store.index().column("verbatim") == [True] * 8 + [False, False, True, False]
        decoded.clear()
        encoded.clear()
        lines = store.query("language=java num_changes>=3")
        assert len(lines) == 6 and len(decoded) == 2
        assert encoded.count("to_dict") == 2 and encoded.count("dumps") == 2
        assert lines == [json.dumps(r.to_dict()) + "\n" for r in oracle_records(store.path)
                         if r.primary_language == "Java" and r.num_changes >= 3]

    def test_persist_rows_after_a_foreign_line_are_copied(self, counted, monkeypatch):
        store, decoded = counted
        # another tool's line, which is not the codec's encoding and ends without a newline
        with store.path.open("ab") as fh:
            fh.write(raw_line(mk_record(tag="a-b-9"), drop=("branch",)).rstrip(b"\n"))
        store.persist(mk_record(tag="a-b-10"))
        store.persist(mk_record(tag="a-b-11"))
        assert store.index().column("verbatim") == [True] * 8 + [False, True, True]
        decoded.clear()
        encoded = self.count_encodes(monkeypatch)
        lines = store.query("image_tag=a-b-10") + store.query("image_tag=a-b-11")
        assert decoded == [] and encoded == []
        assert decode_lines(lines) == [mk_record(tag="a-b-10"), mk_record(tag="a-b-11")]
        (foreign,) = store.query("image_tag=a-b-9")
        assert foreign == json.dumps(oracle_records(store.path)[8].to_dict()) + "\n"

    def test_statistics_decode_nothing(self, counted):
        store, decoded = counted
        main(["stats", "--metric", "changes", "--store", str(store.path)])
        main(["stats", "--errors", "java", "--store", str(store.path)])
        assert decoded == []

    def test_get_decodes_one(self, counted):
        store, decoded = counted
        assert store.get("a-b-7").image_tag == "a-b-7"
        assert len(decoded) == 1

    def test_persist_parses_no_stored_line(self, counted, monkeypatch):
        store, _ = counted
        stored = {line.strip() for line in store.path.read_bytes().splitlines()}
        parsed = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda s, **kw: parsed.append(s) or loads(s, **kw))
        store.persist(mk_record(tag="a-b-9"))
        assert parsed and not [s for s in parsed
                               if (s.encode() if isinstance(s, str) else bytes(s)).strip() in stored]

    def test_query_reads_its_hits_lines_and_parses_its_columns_only(self, counted, monkeypatch):
        store, _ = counted
        data = store.path.read_bytes()
        bounds, start = [], 0  # (offset, length) of each line
        for line in data.splitlines(keepends=True):
            bounds.append((start, len(line)))
            start += len(line)
        preads = []
        pread = os.pread
        monkeypatch.setattr(os, "pread", lambda fd, n, offset: preads.append((os.fstat(fd).st_ino, offset, n))
                            or pread(fd, n, offset))
        indexes = []
        index = ArtifactStore._index
        monkeypatch.setattr(ArtifactStore, "_index",
                            lambda self, *args, **kw: indexes.append(index(self, *args, **kw)) or indexes[-1])
        sidecar = store.index_path.read_bytes()
        crcs, loads = [], []  # what each CRC-32 and each json.loads of the read covers
        crc32, json_loads = zlib.crc32, json.loads
        monkeypatch.setattr(zlib, "crc32", lambda data, *args: crcs.append(bytes(data)) or crc32(data, *args))
        monkeypatch.setattr(json, "loads", lambda text, **kw: loads.append(text) or json_loads(text, **kw))
        touched = []  # any use of the open store but its descriptor

        class DescriptorOnly:
            def __init__(self, fh):
                self._fh = fh

            def fileno(self):
                return self._fh.fileno()

            def __getattr__(self, name):
                touched.append(name)
                return getattr(self._fh, name)

        locked = ArtifactStore._locked

        @contextlib.contextmanager
        def watched(self, exclusive=False):
            with locked(self, exclusive) as fh:
                yield None if fh is None else DescriptorOnly(fh)

        monkeypatch.setattr(ArtifactStore, "_locked", watched)
        lines = store.query("language=java num_changes>=3")
        covered, parsed_texts = list(crcs), [bytes(text) for text in loads]  # the query's, not the decoding's below
        assert [r.image_tag for r in decode_lines(lines)] == ["a-b-3", "a-b-5", "a-b-7"]
        ino = store.path.stat().st_ino
        assert [read for read in preads if read[0] == ino] == [(ino, *bounds[k - 1]) for k in (3, 5, 7)]
        assert touched == []
        (used,) = indexes
        parsed = {name for name, values in used._values.items() if values is not None}
        assert parsed == {"primary_language", "num_changes", "offset", "length", "verbatim"}
        # no CRC-32 of the whole sidecar: one of the header line and one of the line of each parsed column without
        # its closing bytes
        head, columns = read_sidecar(sidecar)
        kinds = dict(zip(head["fields"], head["kinds"]))
        assert {name: kinds[name] for name in parsed} == {
            "primary_language": "dict", "num_changes": "int", "offset": "int", "length": "int", "verbatim": "dict"}
        header = sidecar[18:columns["image_tag"][0]]
        assert sorted(covered) == sorted([header, *(columns[name][1][:-1] for name in parsed)])
        # json.loads reads the header only, which holds the dictionaries of the two dict columns: no column line
        assert parsed_texts == [header]
        assert all(type(used.column(name)) is array for name in ("num_changes", "offset", "length"))


# --- failpass query prints what the codec prints --------------------------------

HAND_FORMS = ("canonical", "drop", "reorder", "compact", "spaced", "names_as_string", "crlf", "bad")


def hand_line(record: ArtifactMetadata, form: str) -> bytes:
    """A line for ``record`` as another tool might write it; only the ``bad`` one does not decode."""
    d = record.to_dict()
    end = "\n"
    if form == "drop":  # keys whose fields have defaults, at the top and in a side
        for key in DROPPABLE:
            d.pop(key)
        d["failed"].pop("failed_test_names")
        d["passed"].pop("branch")
    elif form == "reorder":
        d = {k: (dict(reversed(v.items())) if isinstance(v, dict) else v) for k, v in reversed(d.items())}
    elif form == "names_as_string":  # decodes to the tuple of its characters
        d["failed"]["failed_test_names"] = "T1"
    elif form == "crlf":
        end = "\r\n"
    elif form == "bad":  # a row the index takes, which ArtifactMetadata refuses
        d["successes"] = d["attempts"] + 4
    if form == "compact":
        text = json.dumps(d, separators=(",", ":"))
    elif form == "spaced":
        text = "  " + json.dumps(d, separators=(" ,  ", " :  ")) + " \t"
    else:
        text = json.dumps(d)
    return (text + end).encode()


class TestQueryOutputIsTheCodecs:
    """``failpass query`` prints, byte for byte, ``json.dumps(ArtifactMetadata.from_dict(json.loads(line)).to_dict())``
    and a newline for each hit, whoever wrote the line."""

    @settings(derandomize=True, deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.too_slow])
    @given(entries=st.lists(st.tuples(records, st.sampled_from(("persist",) * 3 + HAND_FORMS)),
                            min_size=1, max_size=8, unique_by=lambda e: e[0].image_tag),
           unterminated=st.booleans(), drop_sidecar=st.booleans(),
           asked=st.lists(queries, min_size=1, max_size=4))
    def test_output_equals_the_codec_on_every_hit(self, tmp_path_factory, entries, unterminated, drop_sidecar,
                                                  asked):
        path = tmp_path_factory.mktemp("store") / "store.jsonl"
        store = ArtifactStore(path)
        for record, form in entries:
            if form == "persist":
                store.persist(record)
            else:
                with path.open("ab") as fh:
                    fh.write(hand_line(record, form))
        if unterminated:  # a whole last line without its newline
            path.write_bytes(path.read_bytes()[:-1])
        if drop_sidecar:
            store.index_path.unlink(missing_ok=True)
        lines = [line for line in path.read_bytes().split(b"\n") if line.strip()]
        assert len(lines) == len(entries)
        rows = []  # (object the terms see, what the codec prints for the line or None if it refuses it)
        for line, (record, form) in zip(lines, entries):
            if form == "bad":
                rows.append((record.to_dict(), None))
            else:
                printed = json.dumps(ArtifactMetadata.from_dict(json.loads(line)).to_dict()) + "\n"
                rows.append((json.loads(printed), printed))
        for expression in asked:
            hits = [(line_no, want) for line_no, (d, want) in enumerate(rows, 1) if oracle_match(d, expression)]
            refused = [line_no for line_no, want in hits if want is None]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                if refused:
                    with pytest.raises(SystemExit) as exc:
                        main(["query", expression, "--store", str(path)])
                    assert exc.value.code == (f"failpass: {path}, line {refused[0]}: "
                                              "ValueError: successes cannot exceed attempts")
                else:
                    main(["query", expression, "--store", str(path)])
            assert out.getvalue() == ("" if refused else "".join(want for _, want in hits))


# --- a term scan is the per-value rule ------------------------------------------


def holds(value, compare, rhs) -> bool:
    """One term on one field value: None never matches, and strings compare lower-cased."""
    if value is None:
        return False
    if isinstance(value, str):
        value = value.lower()
    return compare(value, rhs)


def outcome(run):
    """What ``run()`` returns, or the type of what it raises."""
    try:
        return run()
    except Exception as exc:  # the scan and the rule must raise alike
        return type(exc)


INT64_EDGES = (2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1)
scan_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-3, 3), st.sampled_from(INT64_EDGES),
    st.sampled_from((math.nan, -0.0)),
    st.sampled_from(("java", "Java", "JAVA", "python", "Flaky", "12", "2.5", "-1", "")),
    st.lists(st.integers(0, 2), max_size=2),
)
scan_rhs = st.one_of(st.integers(-3, 3), st.floats(-3, 3), st.sampled_from(INT64_EDGES),
                     st.sampled_from(("java", "python", "12", "flaky", "")))


def encodings(values: list) -> list[str]:
    """Every kind of sidecar column that can hold ``values``."""
    kinds = ["json"]
    if all(type(v) is int and -2 ** 63 <= v < 2 ** 63 for v in values):
        kinds.append("int")
    if all(v is None or type(v) in (str, bool) for v in values):
        kinds.append("dict")
    return kinds


class TestTermScanIsTheRule:
    @settings(derandomize=True, deadline=None, max_examples=500)
    @example(columns=[["12", None, 3]], terms=[(0, "!=", 5), (0, "<", 5)])  # a str in a number field: TypeError
    # "a" is refused by "<" 5, but the rows that reach that term hold only True
    @example(columns=[["a", True, True], [0, 1, 1]], terms=[(1, ">=", 1), (0, "<", 5)])
    @given(columns=st.integers(0, 10).flatmap(
               lambda n: st.lists(st.lists(scan_values, min_size=n, max_size=n), min_size=1, max_size=3)),
           terms=st.lists(st.tuples(st.integers(0, 2), st.sampled_from(sorted(store_mod._OPERATORS)), scan_rhs),
                          min_size=1, max_size=3))
    def test_chained_terms_keep_the_rows_the_rule_keeps(self, columns, terms):
        def run(select):
            rows = range(len(columns[0]))
            for k, op, rhs in terms:
                rows = select(k % len(columns), rows, store_mod._OPERATORS[op], rhs)
            return list(rows)

        def by_value(k, rows, compare, rhs):
            return [i for i in rows if holds(columns[k][i], compare, rhs)]

        want = outcome(lambda: run(by_value))
        assert outcome(lambda: run(lambda k, *args: store_mod._select(columns[k], *args))) == want
        # the same columns read from the sidecar, each in every kind that can hold it
        names = SIDECAR_FIELDS[:len(columns)]
        for choice in itertools.product(*map(encodings, columns)):
            stored = {name: store_mod._Stored.encode(values, kind)
                      for name, values, kind in zip(names, columns, choice)}
            index = store_mod.StoreIndex(rows=len(columns[0]), stored=stored)
            assert outcome(lambda: run(lambda k, *args: index.select(names[k], *args))) == want, choice


# --- a damaged sidecar gives the original columns or a rebuild ----------------------


def every_read(store: ArtifactStore, tags: list[str]) -> list:
    """A call per read, as the commands make it: ``query`` on every queryable field, ``stats`` of every
    metric, ``stats --errors`` of each language and ``get`` of each tag."""
    reads = [functools.partial(store.query, f"{name}>=1" if kind == "num" else f"{name}!=java")
             for name, (_, _, kind, _) in store_mod._queryable().items()]
    reads += [lambda metric=metric: stats(store.index(store_mod.METRIC_FIELDS[metric]), metric)
              for metric in sorted(DEFAULT_BINS)]
    reads += [lambda language=language: error_frequency_report(store.index(*store_mod.ERROR_REPORT_FIELDS),
                                                               language)
              for language in ("java", "python")]
    return reads + [functools.partial(store.get, tag) for tag in tags]


class TestSidecarParse:
    @settings(derandomize=True, deadline=None, max_examples=25,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(initial=st.lists(records, min_size=0, max_size=3, unique_by=lambda r: r.image_tag),
           retype=st.none() | st.sampled_from(RETYPES), field=st.sampled_from(SIDECAR_FIELDS),
           mask=st.integers(1, 255))
    def test_a_cut_or_flipped_sidecar_parses_to_nothing_or_to_the_original(self, tmp_path_factory, initial,
                                                                         retype, field, mask):
        path = tmp_path_factory.mktemp("store") / "store.jsonl"
        store = ArtifactStore(path)
        path.touch()
        for record in initial:
            store.persist(record)
        store.index()
        tags = [r.image_tag for r in initial] + ["acme-widgets-99"]
        if retype:  # an append that changes the kind of a column
            store.persist(retyped(mk_record(tag="acme-widgets-50"), *retype))
            tags.append("acme-widgets-50")
        data = store.index_path.read_bytes()
        head, columns = read_sidecar(data)
        stamp = head["stamp"]
        with path.open("rb") as fh:
            original = {name: list(store._build(fh).column(name)) for name in SIDECAR_FIELDS}
        parsed = parse(data, stamp)
        assert {name: list(parsed.column(name)) for name in SIDECAR_FIELDS} == original
        reads = every_read(store, tags)
        store.index_path.unlink()
        want = [outcome(read) for read in reads]
        at, line = columns[field]
        inside = range(at, at + len(line))  # the column's line
        flips = [*range(columns[SIDECAR_FIELDS[0]][0]), *inside]  # the prologue and the header, and one column
        mutants = [(None, data[:cut]) for cut in range(len(data))]
        mutants += [(k, data[:k] + bytes([data[k] ^ mask]) + data[k + 1:]) for k in flips]
        with pytest.MonkeyPatch.context() as patch:
            # a read that rebuilds leaves the damaged sidecar in place, so every read below meets it
            patch.setattr(ArtifactStore, "_save", lambda self, index: None)
            for n, (flipped, mutant) in enumerate(mutants):
                index = parse(mutant, stamp)
                assert flipped is not None or index is None  # a cut sidecar is never read
                got = {}
                for name in SIDECAR_FIELDS if index is not None else ():
                    try:
                        got[name] = list(index.column(name))
                    except store_mod.SidecarDamaged:
                        continue
                    assert got[name] == original[name]
                if flipped in inside:  # a flip in one column costs that column only
                    assert sorted(got) == sorted(set(SIDECAR_FIELDS) - {field})
                # a read past a header that fails is the read of a deleted sidecar: every 8th such mutant
                # gets one read, in turn; a mutant whose header passes gets every read
                run = range(len(reads)) if index is not None else [n // 8 % len(reads)] if n % 8 == 0 else []
                if run:
                    store.index_path.write_bytes(mutant)
                for k in run:
                    assert outcome(reads[k]) == want[k]
