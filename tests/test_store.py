import json
import random
import subprocess
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from failpass.cli import main
from failpass.store import (
    ArtifactMetadata,
    ArtifactStore,
    DEFAULT_BINS,
    DuplicateTagError,
    QueryParseError,
    SideInfo,
    StoreError,
    compute_diff_metrics,
    error_frequency_report,
    make_image_tag,
    stats,
)


def mk_record(tag="acme-widgets-11", language="Java", changes=10, files=2,
              failing=1, stability="reproducible", category="with_failed_test",
              error_tags=(("NullPointerException", 3),)):
    return ArtifactMetadata(
        image_tag=tag,
        slug="acme/widgets",
        primary_language=language,
        build_system="Maven",
        test_framework="JUnit",
        attempts=5,
        successes=5 if stability == "reproducible" else 1,
        stability=stability,
        category=category,
        failed=SideInfo(build_id=1, job_id=11, num_tests_run=10, num_tests_failed=failing,
                        failed_test_names=tuple(f"T.t{i}" for i in range(failing))),
        passed=SideInfo(build_id=2, job_id=12, num_tests_run=10),
        num_changes=changes,
        num_files_changed=files,
        branch="master",
        error_tags=tuple(error_tags),
    )


def decode_lines(lines) -> list[ArtifactMetadata]:
    """The records of the JSON lines that ``ArtifactStore.query`` returns."""
    return [ArtifactMetadata.from_dict(json.loads(line)) for line in lines]


class TestImageTag:
    def test_shape(self):
        assert make_image_tag("acme/widgets", 11) == "acme-widgets-11"

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            make_image_tag("no-slash", 1)
        with pytest.raises(ValueError):
            make_image_tag("a/b/c", 1)
        with pytest.raises(ValueError):
            make_image_tag("a/b", 0)

    def test_injective_over_job_ids(self):
        tags = {make_image_tag("a/b", j) for j in range(1, 200)}
        assert len(tags) == 199


def write_tree(root: Path, files: dict[str, str | bytes]):
    for rel, content in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, bytes):
            p.write_bytes(content)
        else:
            p.write_text(content)
    return root


def git_numstat_oracle(a: Path, b: Path, tmp: Path) -> tuple[int, int]:
    """Independent oracle: git's minimal diff over two snapshot commits."""
    repo = tmp / "oracle-repo"
    repo.mkdir()
    run = lambda *args: subprocess.run(["git", "-C", str(repo), *args], check=True,
                                       capture_output=True, text=True)
    run("init", "-q")
    run("config", "user.email", "t@t")
    run("config", "user.name", "t")

    def snapshot(src, message):
        for child in repo.iterdir():
            if child.name == ".git":
                continue
            subprocess.run(["rm", "-rf", str(child)], check=True)
        subprocess.run(["cp", "-r", f"{src}/.", str(repo)], check=True)
        subprocess.run(["rm", "-rf", str(repo / ".git" / "..nonexistent")], check=True)
        run("add", "-A")
        run("commit", "-q", "--allow-empty", "-m", message)

    snapshot(a, "a")
    snapshot(b, "b")
    out = run("diff", "--minimal", "--numstat", "HEAD~1", "HEAD").stdout
    changes = files = 0
    for line in out.splitlines():
        added, deleted, _ = line.split("\t", 2)
        files += 1
        if added == "-":  # binary file
            changes += 2
        else:
            changes += int(added) + int(deleted)
    return changes, files


def exec_bit(a: Path, b: Path):
    for root in (a, b):
        write_tree(root, {"run.sh": "true\n"})
    (b / "run.sh").chmod(0o755)


def retargeted_symlink(a: Path, b: Path):
    # the targets' contents are equal; the link text is what changed
    for root, target in ((a, "one.txt"), (b, "two.txt")):
        write_tree(root, {"one.txt": "same\n", "two.txt": "same\n"})
        (root / "link").symlink_to(target)


def two_trees(a_files: dict, b_files: dict):
    return lambda a, b: (write_tree(a, a_files), write_tree(b, b_files))


def moved_file(a: Path, b: Path):
    lines = "".join(f"line {i}\n" for i in range(20))
    write_tree(a, {"old/m.txt": lines})
    write_tree(b, {"new/m.txt": lines})


def absolute_roots(tmp_path, monkeypatch):
    return tmp_path / "a", tmp_path / "b"


def relative_roots(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return Path("a"), Path("b")


def roots_through_a_symlinked_directory(tmp_path, monkeypatch):
    (tmp_path / "link").symlink_to(tmp_path, target_is_directory=True)
    return tmp_path / "link" / "a", tmp_path / "link" / "b"


ONE_CHANGED_LINE = two_trees({"x": "a\nb\n"}, {"x": "a\nc\n"})


def numstat_changes(a: Path, b: Path) -> int:
    """Added + deleted lines of a plain ``git diff --no-index --numstat``, under whatever settings apply."""
    out = subprocess.run(["git", "diff", "--no-index", "--numstat", "--", str(a), str(b)],
                         capture_output=True, text=True).stdout
    return sum(int(count) for line in out.splitlines() for count in line.split("\t")[:2])


class TestDiffMetrics:
    @pytest.mark.parametrize("build, roots, want", [
        pytest.param(two_trees({"x": "a\nb"}, {"x": "a\nb\n"}), absolute_roots, (2, 1), id="final-newline-only"),
        pytest.param(two_trees({"x": b"a\r\nb\r\n"}, {"x": b"a\nb\n"}), absolute_roots, (4, 1), id="crlf-vs-lf"),
        pytest.param(two_trees({"x": b"ok\n\xff\n"}, {"x": b"ok\n\xfe\n"}), absolute_roots, (2, 1),
                     id="invalid-utf8-bytes"),
        pytest.param(exec_bit, absolute_roots, (0, 1), id="exec-bit"),
        pytest.param(retargeted_symlink, absolute_roots, (2, 1), id="retargeted-symlink"),
        pytest.param(ONE_CHANGED_LINE, relative_roots, (2, 1), id="relative-roots"),
        pytest.param(ONE_CHANGED_LINE, roots_through_a_symlinked_directory, (2, 1), id="symlinked-roots"),
        # the oracle detects renames and would say (0, 1)
        pytest.param(moved_file, absolute_roots, (40, 2), id="moved-file-is-delete-plus-add"),
    ])
    def test_counts_what_git_counts(self, tmp_path, monkeypatch, build, roots, want):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        build(a, b)
        assert compute_diff_metrics(*roots(tmp_path, monkeypatch)) == want
        if build is not moved_file:
            assert git_numstat_oracle(a, b, tmp_path) == want

    def test_count_ignores_git_settings_outside_the_trees(self, tmp_path, monkeypatch):
        # a small-vocabulary pair on which git's histogram and minimal algorithms differ
        rng = random.Random(0)
        vocab = [f"line {i}" for i in range(rng.randint(2, 5))]
        sides = [[rng.choice(vocab) for _ in range(rng.randint(5, 40))] for _ in range(2)]
        rand = [write_tree(tmp_path / "rand" / side, {"f": "".join(line + "\n" for line in lines)})
                for side, lines in zip("ab", sides)]
        crlf = [write_tree(tmp_path / "crlf" / "a", {"x": b"a\r\nb\r\n"}),
                write_tree(tmp_path / "crlf" / "b", {"x": b"a\nb\n"})]
        assert [compute_diff_metrics(*rand), compute_diff_metrics(*crlf)] == [(23, 1), (4, 1)]

        # the global config is also the XDG one, so it applies even where GIT_CONFIG_GLOBAL is dropped
        xdg = write_tree(tmp_path / "xdg", {
            "git/config": "[diff]\n\talgorithm = histogram\n\trenames = copies\n\texternal = false\n"
                          "[core]\n\tautocrlf = true\n",
            "git/attributes": "* text eol=lf\n"})
        monkeypatch.setenv("XDG_CONFIG_HOME", str(xdg))
        monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(xdg / "git" / "config"))
        for i, (key, value) in enumerate([("diff.algorithm", "histogram"), ("core.autocrlf", "true")]):
            monkeypatch.setenv(f"GIT_CONFIG_KEY_{i}", key)
            monkeypatch.setenv(f"GIT_CONFIG_VALUE_{i}", value)
        monkeypatch.setenv("GIT_CONFIG_COUNT", "2")
        enclosing = write_tree(tmp_path / "enclosing", {".gitattributes": "* text eol=lf\n"})
        subprocess.run(["git", "init", "-q", str(enclosing)], check=True)
        monkeypatch.chdir(enclosing)
        # the settings reach a plain git diff
        assert (numstat_changes(*rand), numstat_changes(*crlf)) == (27, 0)
        assert [compute_diff_metrics(*rand), compute_diff_metrics(*crlf)] == [(23, 1), (4, 1)]

    def test_missing_tree_raises(self, tmp_path):
        a = write_tree(tmp_path / "a", {"x": "1\n"})
        with pytest.raises(StoreError, match="git diff"):
            compute_diff_metrics(a, tmp_path / "absent")

    def test_identical_trees(self, tmp_path):
        a = write_tree(tmp_path / "a", {"x.py": "print(1)\n"})
        b = write_tree(tmp_path / "b", {"x.py": "print(1)\n"})
        assert compute_diff_metrics(a, b) == (0, 0)

    def test_single_modified_line(self, tmp_path):
        a = write_tree(tmp_path / "a", {"x.py": "a\nb\nc\n"})
        b = write_tree(tmp_path / "b", {"x.py": "a\nB\nc\n"})
        assert compute_diff_metrics(a, b) == (2, 1)  # one del + one add

    def test_added_file(self, tmp_path):
        a = write_tree(tmp_path / "a", {"x.py": "a\n"})
        b = write_tree(tmp_path / "b", {"x.py": "a\n", "y.py": "line1\nline2\n"})
        assert compute_diff_metrics(a, b) == (2, 1)

    def test_binary_difference_counts_once(self, tmp_path):
        a = write_tree(tmp_path / "a", {"blob": b"\x00\x01\x02"})
        b = write_tree(tmp_path / "b", {"blob": b"\x00\x01\x03"})
        assert compute_diff_metrics(a, b) == (2, 1)

    def test_git_dirs_ignored(self, tmp_path):
        a = write_tree(tmp_path / "a", {"x": "1\n", ".git/config": "f\n"})
        b = write_tree(tmp_path / "b", {"x": "1\n"})
        assert compute_diff_metrics(a, b) == (0, 0)

    def test_symmetric_change_counts(self, tmp_path):
        a = write_tree(tmp_path / "a", {"x": "a\nb\n", "y": "only-a\n"})
        b = write_tree(tmp_path / "b", {"x": "a\nc\nd\n", "z": "only-b\n"})
        c_ab, f_ab = compute_diff_metrics(a, b)
        c_ba, f_ba = compute_diff_metrics(b, a)
        assert (c_ab, f_ab) == (c_ba, f_ba)

    def test_matches_git_oracle_on_random_trees(self, tmp_path):
        rng = random.Random(41)
        words = ["alpha", "beta", "gamma", "delta", "x = 1", "return", "", "pass"]
        for case in range(25):
            case_dir = tmp_path / f"case{case}"
            a_files, b_files = {}, {}
            for i in range(rng.randrange(1, 5)):
                name = f"f{i}.txt"
                base = [rng.choice(words) for _ in range(rng.randrange(1, 15))]
                a_files[name] = "\n".join(base) + "\n"
                mutated = list(base)
                for _ in range(rng.randrange(0, 4)):
                    op = rng.random()
                    if op < 0.4 and mutated:
                        del mutated[rng.randrange(len(mutated))]
                    elif op < 0.8:
                        mutated.insert(rng.randrange(len(mutated) + 1), rng.choice(words))
                    elif mutated:
                        mutated[rng.randrange(len(mutated))] = rng.choice(words) + "!"
                b_files[name] = "\n".join(mutated) + "\n"
            if rng.random() < 0.3:
                b_files["new.txt"] = "fresh\n"
            a = write_tree(case_dir / "a", a_files)
            b = write_tree(case_dir / "b", b_files)
            got = compute_diff_metrics(a, b)
            want = git_numstat_oracle(a, b, case_dir)
            assert got == want, f"case {case}: {got} != {want}"

    def test_matches_git_oracle_on_large_small_vocabulary_file(self, tmp_path):
        # Over 4M line pairs, and a 3-line vocabulary gives many equally long
        # matching runs, on which a near-minimal matcher such as difflib's
        # overcounts.
        rng = random.Random(7)
        vocab = ["a", "b", "c"]
        base = [rng.choice(vocab) for _ in range(2100)]
        mutated = list(base)
        for _ in range(400):
            op = rng.random()
            if op < 1 / 3:
                del mutated[rng.randrange(len(mutated))]
            elif op < 2 / 3:
                mutated.insert(rng.randrange(len(mutated) + 1), rng.choice(vocab))
            else:
                mutated[rng.randrange(len(mutated))] = rng.choice(vocab)
        a = write_tree(tmp_path / "a", {"big.txt": "\n".join(base) + "\n"})
        b = write_tree(tmp_path / "b", {"big.txt": "\n".join(mutated) + "\n"})
        assert compute_diff_metrics(a, b) == git_numstat_oracle(a, b, tmp_path)

    def test_large_files_without_common_lines(self, tmp_path):
        a = write_tree(tmp_path / "a", {"x": "".join(f"old {i}\n" for i in range(3000))})
        b = write_tree(tmp_path / "b", {"x": "".join(f"new {i}\n" for i in range(3000))})
        assert compute_diff_metrics(a, b) == (6000, 1)


def brute_force_lcs(a: list[str], b: list[str]) -> int:
    """Reference: the O(n*m) longest-common-subsequence table."""
    prev = [0] * (len(b) + 1)
    for line in a:
        cur = [0] * (len(b) + 1)
        for j, other in enumerate(b):
            cur[j + 1] = prev[j] + 1 if line == other else max(prev[j + 1], cur[j])
        prev = cur
    return prev[-1]


small_vocab_lines = st.integers(2, 5).flatmap(
    lambda size: st.lists(st.sampled_from([f"line {i}" for i in range(size)]), max_size=40))


class TestLineChanges:
    @given(small_vocab_lines, small_vocab_lines)
    @example([], [])
    @example([], ["x", "x"])
    @example(["x", "x", "x"], [])
    @example(["x", "x", "y"], ["y", "x", "x"])
    @example(["x"] * 5, ["x"] * 3)
    @example(["p", "q", "p", "q"], ["q", "p", "q", "p"])
    @settings(derandomize=True, deadline=None, max_examples=400,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_equals_lcs_count(self, tmp_path, a, b):
        # every line ends in a newline, so [] is an empty file
        trees = [write_tree(tmp_path / side, {"f": "".join(line + "\n" for line in lines)})
                 for side, lines in (("a", a), ("b", b))]
        assert compute_diff_metrics(*trees)[0] == len(a) + len(b) - 2 * brute_force_lcs(a, b)


class TestStorePersistence:
    def test_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "store.jsonl")
        rec = mk_record()
        store.persist(rec)
        assert store.load() == [rec]
        assert store.get(rec.image_tag) == rec

    def test_append_only(self, tmp_path):
        store = ArtifactStore(tmp_path / "store.jsonl")
        store.persist(mk_record(tag="a-b-1"))
        store.persist(mk_record(tag="a-b-2"))
        assert [r.image_tag for r in store.load()] == ["a-b-1", "a-b-2"]

    def test_duplicate_tag_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path / "store.jsonl")
        store.persist(mk_record())
        with pytest.raises(DuplicateTagError):
            store.persist(mk_record())

    def test_missing_store_loads_empty(self, tmp_path):
        assert ArtifactStore(tmp_path / "absent.jsonl").load() == []

    def test_metadata_serialization_round_trip(self):
        rec = mk_record()
        assert ArtifactMetadata.from_dict(rec.to_dict()) == rec

    def test_successes_bounded_by_attempts(self):
        with pytest.raises(ValueError):
            ArtifactMetadata(**{**mk_record().__dict__, "attempts": 2, "successes": 3})


class TestQuery:
    RECORDS = [
        mk_record(tag="a-b-1", language="Java", failing=2),
        mk_record(tag="a-b-2", language="Python", failing=5, category="error_pass"),
        mk_record(tag="a-b-3", language="Java", failing=1, stability="flaky"),
    ]

    @pytest.fixture(autouse=True)
    def persisted(self, tmp_path):
        self.store = ArtifactStore(tmp_path / "store.jsonl")
        for r in self.RECORDS:
            self.store.persist(r)

    def q(self, expr):
        return [r.image_tag for r in decode_lines(self.store.query(expr))]

    def test_equality_and_alias(self):
        assert self.q("language=Java") == ["a-b-1", "a-b-3"]
        assert self.q("primary_language=Java") == ["a-b-1", "a-b-3"]

    def test_string_match_case_insensitive(self):
        assert self.q("language=java") == ["a-b-1", "a-b-3"]

    def test_numeric_comparison_and_conjunction(self):
        assert self.q("num_tests_failed>=2 language=Java") == ["a-b-1"]
        assert self.q("num_tests_failed>1 num_tests_failed<5") == ["a-b-1"]

    def test_not_equal(self):
        assert self.q("stability!=flaky") == ["a-b-1", "a-b-2"]

    def test_dotted_field_access(self):
        assert self.q("failed.num_tests_run=10") == ["a-b-1", "a-b-2", "a-b-3"]

    def test_parse_errors_carry_position(self):
        with pytest.raises(QueryParseError) as exc:
            self.q("language=Java ???")
        assert exc.value.position == 14

    def test_unknown_field_rejected(self):
        with pytest.raises(QueryParseError):
            self.q("nonsense_field=1")

    def test_range_on_string_field_rejected(self):
        with pytest.raises(QueryParseError):
            self.q("language>Java")

    def test_store_query_integration(self):
        assert self.store.query("category=error_pass") == [json.dumps(self.RECORDS[1].to_dict()) + "\n"]


class TestStats:
    def test_default_bins_exist_per_metric(self):
        for metric in ("changes", "files_changed", "failing_tests"):
            labels = [f"{lo}-{hi}" if lo != hi else str(lo) for lo, hi in DEFAULT_BINS[metric]]
            assert list(stats([], metric)["bins"]) == labels

    def test_histogram_counts(self):
        records = [mk_record(tag=f"a-b-{i}", changes=c) for i, c in enumerate([1, 5, 6, 150, 40000], 1)]
        out = stats(records, "changes")
        assert out["bins"]["1-5"] == 2
        assert out["bins"]["6-20"] == 1
        assert out["bins"]["101-500"] == 1
        assert out["overflow"] == 1

    def test_counts_conserved(self):
        rng = random.Random(5)
        records = [mk_record(tag=f"a-b-{i}", failing=rng.randrange(1, 2000)) for i in range(1, 60)]
        out = stats(records, "failing_tests")
        assert sum(out["bins"].values()) + out.get("overflow", 0) == len(records)

    def test_singleton_bin_label(self):
        out = stats([mk_record(failing=1)], "failing_tests")
        assert out["bins"]["1"] == 1

    def test_invalid_spec(self):
        with pytest.raises(ValueError, match="unknown metric"):
            stats([mk_record()], "bogus")

    @staticmethod
    def first_match(values, bins) -> dict:
        """The reference: try every bin for every value, first match wins."""
        counts = {f"{lo}-{hi}" if lo != hi else str(lo): 0 for lo, hi in bins}
        overflow = 0
        for value in values:
            for lo, hi in bins:
                if lo <= value <= hi:
                    counts[f"{lo}-{hi}" if lo != hi else str(lo)] += 1
                    break
            else:
                overflow += 1
        return {"bins": counts, **({"overflow": overflow} if overflow else {})}

    @given(st.lists(st.one_of(st.integers(-3, 40000), st.floats(-3, 40000)), max_size=40))
    @example([0, 1, 5, 5.5, 6, 20, 21, 37363, 37363.5, 37364])
    @example([1, 2, 3, 4, float("nan")])
    @settings(derandomize=True, deadline=None, max_examples=300)
    def test_bisect_equals_first_match(self, values):
        records = [mk_record(tag=f"a-b-{i}", changes=v) for i, v in enumerate(values, 1)]
        out = stats(records, "changes")
        assert out == {"metric": "changes", **self.first_match(values, DEFAULT_BINS["changes"])}

    @pytest.mark.parametrize("value", [None, "5"])
    def test_value_that_is_no_number_overflows(self, value):
        records = [mk_record(tag="a-b-1", changes=3), mk_record(tag="a-b-2", changes=value)]
        out = stats(records, "changes")
        assert out["bins"]["1-5"] == 1 and sum(out["bins"].values()) == 1
        assert out["overflow"] == 1

    @given(st.lists(st.integers(1, 37363), max_size=30))
    @settings(deadline=None)
    def test_in_range_values_never_overflow(self, values):
        records = [mk_record(tag=f"a-b-{i}", changes=v) for i, v in enumerate(values, 1)]
        out = stats(records, "changes")
        assert "overflow" not in out
        assert sum(out["bins"].values()) == len(values)


class TestErrorReport:
    def test_per_artifact_presence_and_ordering(self):
        records = [
            mk_record(tag="a-b-1", error_tags=(("IOException", 9), ("NullPointerException", 1))),
            mk_record(tag="a-b-2", error_tags=(("NullPointerException", 2),)),
            mk_record(tag="a-b-3", language="Python", error_tags=(("ValueError", 1),)),
        ]
        ranked = error_frequency_report(records, "java")
        assert ranked == [("NullPointerException", 2), ("IOException", 1)]

    def test_top_n_truncates(self):
        records = [mk_record(tag=f"a-b-{i}", error_tags=((f"E{i}Error", 1),)) for i in range(1, 6)]
        assert len(error_frequency_report(records, "java", top_n=3)) == 3


class StubRuntime:
    def __init__(self):
        self.calls = []

    def fetch_image(self, tag):
        self.calls.append(("fetch", tag))

    def shell(self, tag, label):
        self.calls.append(("shell", tag, label))
        return 0

    def cleanup(self, label, purge=False):
        self.calls.append(("cleanup", label, purge))


class TestArtifactTools:
    @pytest.fixture()
    def artifact(self, tmp_path, monkeypatch):
        """``failpass artifact`` on a one-record store, with a StubRuntime; returns the runtime and the command."""
        store = ArtifactStore(tmp_path / "store.jsonl")
        store.persist(mk_record())
        rt = StubRuntime()
        monkeypatch.setattr("failpass.cli.default_runtime", lambda: rt)
        return rt, lambda *argv: main(["artifact", *argv, "--store", str(store.path)])

    def test_fetch_shell_cleanup_delegate(self, artifact, capsys):
        rt, artifact_cmd = artifact
        assert artifact_cmd("fetch", "acme-widgets-11") == 0
        assert json.loads(capsys.readouterr().out)["image_tag"] == "acme-widgets-11"
        with pytest.raises(SystemExit) as exc:
            artifact_cmd("shell", "acme-widgets-11")
        assert exc.value.code == 0
        assert artifact_cmd("cleanup", "acme-widgets-11", "--purge") == 0
        assert rt.calls == [
            ("fetch", "acme-widgets-11"),
            ("shell", "acme-widgets-11", "acme-widgets-11"),
            ("cleanup", "acme-widgets-11", True),
        ]

    def test_unknown_tag_raises(self, artifact):
        rt, artifact_cmd = artifact
        for action in ("fetch", "shell", "cleanup"):
            with pytest.raises(SystemExit) as exc:
                artifact_cmd(action, "nope-1")
            assert exc.value.code == "failpass: artifact not found: nope-1"
        assert rt.calls == []
