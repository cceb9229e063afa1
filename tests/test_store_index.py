"""The store's key-directory sidecar answers exactly as a full decode of the store does."""

import contextlib
import io
import json
import os
import re
import zlib

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
        value = d
        for key in ORACLE_ALIASES.get(name, name).split("."):
            value = value[key]
        if value is None:
            return False
        if isinstance(value, str):
            value, text = value.lower(), text.lower()
        else:
            text = float(text) if "." in text else int(text)
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

# each step changes the store or its sidecar, then reads
changes = st.one_of(
    st.tuples(st.just("none"), st.none()),
    st.tuples(st.just("persist"), records),
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


def change_sidecar(store: ArtifactStore, state: str) -> None:
    idx = store.index_path
    if state == "absent":
        idx.unlink(missing_ok=True)
    elif state == "corrupt" and idx.exists():
        idx.write_bytes(idx.read_bytes()[: idx.stat().st_size // 2])
    elif state == "old_version" and idx.exists():
        # whole and for this store, but of another format version whose lines mean other things
        lines = idx.read_bytes().split(b"\n")[:-2]
        head = json.loads(lines[0])
        at = {name: k + 1 for k, name in enumerate(head["fields"])}
        lines[at["offset"]], lines[at["length"]] = lines[at["length"]], lines[at["offset"]]
        lines[0] = json.dumps({**head, "version": 0}).encode()
        body = b"\n".join(lines) + b"\n"
        idx.write_bytes(body + b"%d\n" % zlib.crc32(body))
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
        head = json.loads(two_records.index_path.read_bytes().partition(b"\n")[0])
        assert store_mod._index_fields() == head["fields"] == SIDECAR_FIELDS
        assert head["version"] == store_mod.INDEX_VERSION == 2
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
        head = json.loads(two_records.index_path.read_bytes().partition(b"\n")[0])
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
        lines = two_records.index_path.read_bytes().split(b"\n")
        at = json.loads(lines[0])["fields"].index("num_changes") + 1
        assert lines[at] == b"[10,600]"
        lines[at] = b"[10,100]"  # the header still matches the store; only the CRC tells
        two_records.index_path.write_bytes(b"\n".join(lines))
        assert [r.image_tag for r in decode_lines(two_records.query("num_changes>=500"))] == ["a-b-2"]
        assert b"[10,600]" in two_records.index_path.read_bytes()

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

    @pytest.mark.parametrize("layout", ["version_1", "version_1_with_verbatim"])
    def test_version_1_sidecar_is_rebuilt(self, two_records, monkeypatch, layout):
        # a line that is not the codec's encoding; a sidecar that marked it verbatim would have it copied
        with two_records.path.open("ab") as fh:
            fh.write(raw_line(mk_record(tag="a-b-3", changes=77), drop=("num_changes",)))
        two_records.index()
        lines = two_records.index_path.read_bytes().split(b"\n")[:-2]
        head = json.loads(lines[0])
        at = head["fields"].index("verbatim") + 1
        assert head["version"] == 2 and lines[at] == b"[true,true,false]"
        if layout == "version_1":  # the columns that version 1 had, whole and for this store
            del lines[at]
            head["fields"].remove("verbatim")
        else:
            lines[at] = b"[true,true,true]"
        lines[0] = json.dumps({**head, "version": 1}).encode()
        body = b"\n".join(lines) + b"\n"
        two_records.index_path.write_bytes(body + b"%d\n" % zlib.crc32(body))
        built = []
        build = ArtifactStore._build
        monkeypatch.setattr(ArtifactStore, "_build", lambda self, fh: built.append(1) or build(self, fh))
        assert two_records.query("branch=master") == [json.dumps(r.to_dict()) + "\n"
                                                      for r in oracle_records(two_records.path)]
        assert built == [1]
        assert json.loads(two_records.index_path.read_bytes().partition(b"\n")[0])["version"] == 2

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
                            lambda self, fh, save=True: indexes.append(index(self, fh, save)) or indexes[-1])
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
        assert [r.image_tag for r in decode_lines(lines)] == ["a-b-3", "a-b-5", "a-b-7"]
        ino = store.path.stat().st_ino
        assert preads == [(ino, *bounds[k - 1]) for k in (3, 5, 7)]
        assert touched == []
        (used,) = indexes
        parsed = {name for name, values in used._columns.items() if isinstance(values, list)}
        assert parsed == {"primary_language", "num_changes", "offset", "length", "verbatim"}
        assert all(isinstance(values, (bytes, memoryview)) for name, values in used._columns.items()
                   if name not in parsed)


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


scan_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-3, 3),
    st.sampled_from(("java", "Java", "JAVA", "python", "Flaky", "12", "2.5", "-1", "")),
    st.lists(st.integers(0, 2), max_size=2),
)
scan_rhs = st.one_of(st.integers(-3, 3), st.floats(-3, 3), st.sampled_from(("java", "python", "12", "flaky", "")))


class TestTermScanIsTheRule:
    @settings(derandomize=True, deadline=None, max_examples=500)
    @example(columns=[["12", None, 3]], terms=[(0, "!=", 5), (0, "<", 5)])  # a str in a number field: TypeError
    @given(columns=st.integers(0, 10).flatmap(
               lambda n: st.lists(st.lists(scan_values, min_size=n, max_size=n), min_size=1, max_size=3)),
           terms=st.lists(st.tuples(st.integers(0, 2), st.sampled_from(sorted(store_mod._OPERATORS)), scan_rhs),
                          min_size=1, max_size=3))
    def test_chained_terms_keep_the_rows_the_rule_keeps(self, columns, terms):
        def run(select):
            rows = range(len(columns[0]))
            for k, op, rhs in terms:
                rows = select(columns[k % len(columns)], rows, store_mod._OPERATORS[op], rhs)
            return list(rows)

        def by_value(values, rows, compare, rhs):
            return [i for i in rows if holds(values[i], compare, rhs)]

        assert outcome(lambda: run(store_mod._select)) == outcome(lambda: run(by_value))


# --- a sidecar parses whole or not at all --------------------------------------


def split_parse(data: bytes, stamp: list):
    """The columns of ``data``, split at every newline, if it is a whole sidecar of this version for ``stamp``."""
    lines = data.split(b"\n")
    try:
        covered = len(data) - len(lines[-2]) - 1
        if lines[-1] or int(lines[-2]) != zlib.crc32(data[:covered]):
            return None
        h = json.loads(lines[0])
        fields = store_mod._index_fields()
        if (h["version"] != store_mod.INDEX_VERSION or h["stamp"] != stamp or h["fields"] != fields
                or len(lines) != len(fields) + 3):
            return None
        return {name: json.loads(line) for name, line in zip(fields, lines[1:-2])}
    except (ValueError, KeyError, TypeError, IndexError):
        return None


def parsed_columns(data: bytes, stamp: list):
    index = store_mod.StoreIndex.parse(data, stamp)
    return None if index is None else {name: index.column(name) for name in store_mod._index_fields()}


class TestSidecarParse:
    @settings(derandomize=True, deadline=None, max_examples=25,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(initial=st.lists(records, min_size=0, max_size=3, unique_by=lambda r: r.image_tag),
           field=st.sampled_from(SIDECAR_FIELDS), mask=st.integers(1, 255))
    def test_a_cut_or_flipped_sidecar_parses_to_nothing_or_to_the_original(self, tmp_path_factory, initial,
                                                                         field, mask):
        path = tmp_path_factory.mktemp("store") / "store.jsonl"
        store = ArtifactStore(path)
        path.touch()
        for record in initial:
            store.persist(record)
        store.index()
        data = store.index_path.read_bytes()
        stamp = json.loads(data.partition(b"\n")[0])["stamp"]
        original = split_parse(data, stamp)
        assert original is not None and parsed_columns(data, stamp) == original
        with path.open("rb") as fh:
            assert original == {name: store._build(fh).column(name) for name in SIDECAR_FIELDS}
        line_starts = [0, *(k + 1 for k, byte in enumerate(data) if byte == 0x0A)]
        at = SIDECAR_FIELDS.index(field) + 1
        flips = [*range(line_starts[1]),  # the header
                 *range(line_starts[at], line_starts[at + 1]),  # one column, with its newline
                 *range(line_starts[-2], len(data))]  # the CRC line and the trailing newline
        mutants = [data[:cut] for cut in range(len(data))]
        mutants += [data[:k] + bytes([data[k] ^ mask]) + data[k + 1:] for k in flips]
        for mutant in mutants:
            got = parsed_columns(mutant, stamp)
            assert got is None or got == original
            assert got == split_parse(mutant, stamp)
