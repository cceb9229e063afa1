"""Seeded synthetic corpus and ground-truth manifest for the pipeline benchmark.

``generate(root, workload, seed)`` writes everything the pipeline reads:
a fixture tree (``<owner>/<name>/builds.json``, ``logs/<job_id>.txt``,
``archive/<sha>.zip`` and a bare ``repo``), an image catalog and a
pre-existing artifact store. It also returns the expected result of every
stage, computed from the generator's own construction, from git (diff
metrics) and from a brute-force filter over the generated store records.

Counts and sizes are fixed per workload; the seed only varies contents
(file lines, test names, shas, thresholds, which block gets which variant),
so runs with different seeds cost the same work.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import zipfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

WORKER = "worker-garnet-1512502259"
ERA_TS = "2017-03-01T12:00:00Z"
PRE_ERA_TS = "2014-06-01T12:00:00Z"
# after the container cutover (2014-12-01) but before any catalog image
NO_IMAGE_TS = {"java": "2014-12-15T12:00:00Z", "python": "2015-03-01T12:00:00Z"}
COMMIT_EPOCH = 1_483_228_800  # 2017-01-01T00:00:00Z
REPEATS = 5

CATALOG = [
    {"language": "Java", "registry": "quay.io", "name": "ci-jvm", "tag": "2015-01",
     "built_at": "2015-01-01T00:00:00Z", "instance_pattern": r"worker-[A-Za-z0-9._-]+"},
    {"language": "Java", "registry": "quay.io", "name": "ci-jvm", "tag": "2016-11",
     "built_at": "2016-11-01T00:00:00Z", "instance_pattern": r"worker-[A-Za-z0-9._-]+"},
    {"language": "Python", "registry": "quay.io", "name": "ci-python", "tag": "2016-06",
     "built_at": "2016-06-01T00:00:00Z", "instance_pattern": r"worker-[A-Za-z0-9._-]+"},
]

# Paper histogram bins (dataset characteristics); the read oracle's own copy.
BINS = {
    "changes": [(1, 5), (6, 20), (21, 100), (101, 500), (501, 2000), (2001, 5000), (5001, 37363)],
    "files_changed": [(1, 5), (6, 10), (11, 25), (26, 50), (51, 100), (101, 200), (201, 500), (501, 2391)],
    "failing_tests": [(1, 1), (2, 2), (3, 5), (6, 15), (16, 50), (51, 100), (101, 400), (401, 1826)],
}

ERROR_POOL = ("NullPointerException", "IllegalStateException", "IOException", "AssertionError",
              "ValueError", "KeyError", "TypeError", "TimeoutException", "OutOfMemoryError",
              "ConnectionError", "FileNotFoundError", "ClassCastException")


@dataclass(frozen=True)
class Profile:
    """Fixed sizes of one workload; see BENCHMARK.json for why each exists."""

    pairs: dict  # language -> list of (recovery, behaviour, filtered) pair kinds
    src_files: int
    src_lines: int
    diff_files: int
    diff_edits: int
    big_log_kb: int
    bulk_blocks: int  # per project, mining-only build blocks
    store_records: int
    reads: int
    append_every: int  # one store append after every N reads; 0 = none


PROFILES = {
    "repro": Profile(
        pairs={
            "java": [("merge", "test", None), ("zip", "compile", None), ("git", "test", "nolog")],
            "python": [("git", "install", None), ("git", "flaky", None), ("git", "unrepro", None),
                       ("merge", "test", "nolog")],
        },
        src_files=12, src_lines=30, diff_files=3, diff_edits=2, big_log_kb=0,
        bulk_blocks=20, store_records=200, reads=40, append_every=0),
    "curate": Profile(
        pairs={"java": [("merge", "test", None)], "python": [("zip", "test", None)]},
        src_files=12, src_lines=400, diff_files=12, diff_edits=10, big_log_kb=256,
        bulk_blocks=0, store_records=1600, reads=12, append_every=3),
}

TINY = {
    "repro": Profile(pairs=PROFILES["repro"].pairs, src_files=5, src_lines=5, diff_files=2, diff_edits=1,
                     big_log_kb=0, bulk_blocks=12, store_records=20, reads=6, append_every=0),
    "curate": Profile(pairs=PROFILES["curate"].pairs, src_files=6, src_lines=40, diff_files=4, diff_edits=3,
                      big_log_kb=16, bulk_blocks=0, store_records=50, reads=6, append_every=2),
}


@dataclass
class Corpus:
    root: Path
    fixture: Path
    catalog: Path
    store: Path
    projects: list  # [(slug, language)]
    manifest: dict
    reads: list  # read-mix ops: ("query", expr) | ("stats", metric) | ("errors", lang) | ("append", record)
    expected_reads: list  # aligned with reads; None for appends
    curated: dict  # image_tag -> expected ArtifactMetadata dict
    digest: str = ""


# --- git -------------------------------------------------------------------


@dataclass
class _Commit:
    ref: str
    parent: int | None
    files: dict
    message: str
    mark: int = 0
    archived: bool = False  # only in the upstream (oracle) repo, never in the fixture clone


@dataclass
class _Repo:
    commits: list = field(default_factory=list)

    def commit(self, ref, parent, files, message, archived=False) -> int:
        c = _Commit(ref, parent, files, message, mark=len(self.commits) + 1, archived=archived)
        self.commits.append(c)
        return c.mark

    def stream(self, include_archived: bool) -> bytes:
        out = []
        for c in self.commits:
            if c.archived and not include_archived:
                continue
            ts = COMMIT_EPOCH + c.mark * 60
            out.append(f"commit refs/heads/{c.ref}\nmark :{c.mark}\n"
                       f"author Bench <bench@example.com> {ts} +0000\n"
                       f"committer Bench <bench@example.com> {ts} +0000\n"
                       f"data {len(c.message)}\n{c.message}\n")
            if c.parent is not None:
                out.append(f"from :{c.parent}\n")
            for path, content in sorted(c.files.items()):
                out.append(f"M 100644 inline {path}\ndata {len(content)}\n{content}\n")
            out.append("\n")
        return "".join(out).encode()

    def write(self, path: Path, include_archived: bool) -> dict[int, str]:
        """Create a bare repo by fast-import; return mark -> sha."""
        subprocess.run(["git", "init", "-q", "--bare", "-b", "master", str(path)], check=True,
                       capture_output=True)
        marks = path / "bench-marks"
        subprocess.run(["git", "-C", str(path), "fast-import", "--quiet", f"--export-marks={marks}"],
                       input=self.stream(include_archived), check=True, capture_output=True)
        shas = {}
        for line in marks.read_text().splitlines():
            mark, sha = line.split()
            shas[int(mark[1:])] = sha
        marks.unlink()
        return shas


def _git_out(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True,
                          text=True).stdout


def numstat_oracle(repo: Path, a: str, b: str) -> tuple[int, int]:
    """(added + deleted lines, files changed) from git's minimal diff."""
    changes = files = 0
    for line in _git_out(repo, "diff", "--minimal", "--numstat", a, b).splitlines():
        added, deleted, _ = line.split("\t", 2)
        files += 1
        changes += 2 if added == "-" else int(added) + int(deleted)
    return changes, files


def merged_tree(repo: Path, base: str, trigger: str) -> str:
    return _git_out(repo, "merge-tree", "--write-tree", base, trigger).split()[0]


# --- logs ------------------------------------------------------------------


def log_header(ts: str) -> str:
    return (f"Using worker: {WORKER}:travis-linux-9\nBuild system information\n"
            f"Description:\tUbuntu 14.04.5 LTS\nBuild image provisioning date and time: {ts}\n\n")


def wrap_log(body: str, exit_code: int, ts: str, command: str = "sh run_tests.sh") -> str:
    return (log_header(ts) + f"$ {command}\n" + body
            + f'The command "{command}" exited with {exit_code}.\n'
            + f"Done. Your build exited with {exit_code}.\n")


def cat_script(body: str, exit_code: int) -> str:
    return f"#!/bin/sh\ncat <<'EOG'\n{body}EOG\nexit {exit_code}\n"


class LogWriter:
    """Builds test logs and tallies every exception name written into them."""

    def __init__(self, rng: random.Random, language: str):
        self.rng = rng
        self.lang = language
        self.tally: Counter = Counter()

    def exc(self, name: str, qualified: str = "") -> str:
        self.tally[name] += 1
        return f"{qualified}{name}"

    def _noise(self, target: int) -> str:
        """Test stdout, with exception mentions, up to ``target`` bytes."""
        lines, size = [], 0
        while size < target:
            n = self.rng.randrange(100000)
            if n % 7 == 0:
                name = self.rng.choice(ERROR_POOL)
                line = (f"2017-03-01 12:00:{n % 60:02d}.{n % 1000:03d} WARN  [worker-{n % 8}] "
                        f"com.acme.svc.Handler{n % 50} - retrying request {n}: "
                        f"{self.exc(name, 'com.acme.errors.')}: upstream said {n % 997}")
            else:
                line = (f"2017-03-01 12:00:{n % 60:02d}.{n % 1000:03d} INFO  [worker-{n % 8}] "
                        f"com.acme.svc.Handler{n % 50} - handled request {n} in {n % 300} ms")
            lines.append(line)
            size += len(line) + 1
        return "\n".join(lines) + "\n" if lines else ""

    def failing_tests(self, run: int, failed: int, big_bytes: int = 0):
        """(full body, condensed body, expected attrs); both bodies parse alike."""
        if self.lang == "java":
            return self._maven(run, failed, big_bytes)
        return self._pytest(run, failed, big_bytes)

    def _maven(self, run, failed, big_bytes):
        rng = self.rng
        classes = [f"com.acme.m{rng.randrange(100)}.C{k}Test" for k in range(max(failed, 1))]
        names = [f"{classes[k]}.testCase{rng.randrange(1000)}" for k in range(failed)]
        per_noise = big_bytes // max(len(classes), 1)
        sections = []
        for k, cls in enumerate(classes):
            f = 1 if k < failed else 0
            sec = (f"Running {cls}\n" + self._noise(per_noise)
                   + f"Tests run: {run // len(classes)}, Failures: {f}, Errors: 0, Skipped: 0, "
                   f"Time elapsed: 0.{k % 10}1 sec{' <<< FAILURE!' if f else ''} - in {cls}\n")
            if f:
                method = names[k].rsplit(".", 1)[1]
                sec += (f"{method}({cls})  Time elapsed: 0.01 sec  <<< FAILURE!\n"
                        f"{self.exc('AssertionError', 'java.lang.')}: expected:<1> but was:<2>\n"
                        "\tat org.junit.Assert.fail(Assert.java:88)\n"
                        f"\tat {cls}.{method}({cls.rsplit('.', 1)[1]}.java:{rng.randrange(10, 400)})\n")
                if big_bytes:
                    sec += "".join(f"\tat com.acme.frames.F{d}.call(F{d}.java:{d + 3})\n" for d in range(40))
                    sec += f"Caused by: {self.exc('IllegalStateException', 'java.lang.')}: state {k}\n"
            sections.append(sec)
        results = "\nResults :\n\n"
        if failed:
            results += "Failed tests: \n" + "".join(f"  {n}:{rng.randrange(10, 400)} expected:<1> but was:<2>\n"
                                                    for n in names) + "\n"
        results += f"Tests run: {run}, Failures: {failed}, Errors: 0, Skipped: 0\n\n"
        results += "[INFO] BUILD FAILURE\n" if failed else "[INFO] BUILD SUCCESS\n"
        head = ("[INFO] Scanning for projects...\n[INFO] Building acme 1.0\n"
                "-------------------------------------------------------\n T E S T S\n"
                "-------------------------------------------------------\n")
        attrs = {"build_system": "Maven", "test_framework": "JUnit", "run": run, "failed": failed,
                 "names": names}
        return head + "".join(sections) + results, head + results, attrs

    def _pytest(self, run, failed, big_bytes):
        rng = self.rng
        tests = [f"tests/test_m{rng.randrange(100)}.py::test_case{k}_{rng.randrange(1000)}"
                 for k in range(failed)]
        head = ("============================= test session starts ==============================\n"
                "platform linux -- Python 3.6.3, pytest-3.2.1, py-1.4.34, pluggy-0.4.0\n"
                f"collected {run} items\n\n")
        dots = "tests/test_app.py " + "." * (run - failed) + "F" * failed + "\n"
        fails = ""
        if failed:
            fails = "=================================== FAILURES ===================================\n"
            per_noise = big_bytes // failed
            for t in tests:
                fn = t.split("::")[1]
                fails += (f"_________________________________ {fn} _________________________________\n"
                          f"    def {fn}():\n>       assert compute({len(fn)}) == 2\n"
                          f"E       {self.exc('AssertionError')}: assert 3 == 2\n")
                if big_bytes:
                    fails += "----------------------------- Captured stdout call -----------------------------\n"
                    fails += self._noise(per_noise)
                    fails += "".join(f'  File "/build/acme/mod{d}.py", line {d + 3}, in call{d}\n'
                                     for d in range(40))
                    fails += f"{self.exc('ValueError')}: bad input {len(fn)}\n"
                fails += f"{t.split('::')[0]}:12: {self.exc('AssertionError')}\n"
        summary = ""
        if failed:
            summary = ("=========================== short test summary info ============================\n"
                       + "".join(f"FAILED {t} - {self.exc('AssertionError')}\n" for t in tests))
        counts = f"{failed} failed, {run - failed} passed" if failed else f"{run} passed"
        tail = f"========================= {counts} in 0.52s =========================\n"
        attrs = {"build_system": "none_detected", "test_framework": "pytest", "run": run, "failed": failed,
                 "names": tests}
        # the condensed body (what the job script prints) drops the exception names but parses alike
        full = head + dots + fails + summary + tail
        condensed = head + dots + summary.replace(" - AssertionError", "") + tail
        return full, condensed, attrs


FLAKY_SCRIPT = """#!/bin/sh
S="${{FAILPASS_SCRATCH:-}}"
if [ -n "$S" ] && [ -f "$S/marker" ]; then
cat <<'EOG'
{fail}EOG
exit 1
fi
[ -n "$S" ] && touch "$S/marker"
cat <<'EOG'
{ok}EOG
exit 0
"""


# --- store records ---------------------------------------------------------


def store_record(rng: random.Random, tag_id: int) -> dict:
    """One pre-existing or appended artifact record, in ArtifactMetadata.to_dict layout."""
    lang = rng.choice(("java", "python"))
    slug = f"hist{rng.randrange(40)}/proj{rng.randrange(25)}"
    stability = "flaky" if rng.randrange(5) == 0 else "reproducible"
    failed_n = rng.randrange(0, 12)

    def side(build_id, job_id, failed):
        run = failed + rng.randrange(1, 300)
        names = [f"com.acme.T{rng.randrange(1000)}.test{k}" for k in range(failed)]
        return {"build_id": build_id, "job_id": job_id, "num_tests_run": run, "num_tests_failed": failed,
                "failed_test_names": names, "trigger_sha": f"{rng.getrandbits(160):040x}",
                "branch": "master"}

    tags = sorted({(n, rng.randrange(1, 10)) for n in rng.sample(ERROR_POOL, rng.randrange(0, 4))},
                  key=lambda t: (-t[1], t[0]))
    build = 10_000_000 + tag_id * 2
    return {
        "image_tag": f"{slug.replace('/', '-')}-{tag_id}",
        "slug": slug,
        "primary_language": lang,
        "build_system": "Maven" if lang == "java" else "none_detected",
        "test_framework": "JUnit" if lang == "java" else "pytest",
        "attempts": 5,
        "successes": 5 if stability == "reproducible" else rng.randrange(1, 5),
        "stability": stability,
        "category": "with_failed_test" if failed_n else rng.choice(("with_failed_job", "error_pass")),
        "failed": side(build, tag_id, failed_n),
        "passed": side(build + 1, tag_id + 1, 0),
        "num_changes": rng.randrange(1, 5000),
        "num_files_changed": rng.randrange(1, 200),
        "pr_number": None,
        "merge_timestamp": None,
        "branch": "master",
        "error_tags": [list(t) for t in tags],
    }


# --- read oracle -----------------------------------------------------------


def _field(record: dict, dotted: str):
    obj = record
    for part in dotted.split("."):
        if not isinstance(obj, dict) or part not in obj:
            return None
        obj = obj[part]
    return obj


_OPS = {"=": lambda a, b: a == b, "!=": lambda a, b: a != b, "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b, ">": lambda a, b: a > b, ">=": lambda a, b: a >= b}
_ALIASES = {"language": "primary_language", "num_tests_failed": "failed.num_tests_failed"}


def oracle_query(records: list, terms: list) -> list:
    out = []
    for r in records:
        for fld, op, rhs in terms:
            value = _field(r, _ALIASES.get(fld, fld))
            if value is None:
                break
            if isinstance(value, str):
                value, rhs = value.lower(), str(rhs).lower()
            if not _OPS[op](value, rhs):
                break
        else:
            out.append(r)
    return out


def oracle_stats(records: list, metric: str) -> dict:
    getter = {"changes": lambda r: r["num_changes"], "files_changed": lambda r: r["num_files_changed"],
              "failing_tests": lambda r: r["failed"]["num_tests_failed"]}[metric]
    bins = {(f"{lo}-{hi}" if lo != hi else str(lo)): 0 for lo, hi in BINS[metric]}
    overflow = 0
    for r in records:
        v = getter(r)
        hit = [k for (lo, hi), k in zip(BINS[metric], bins) if lo <= v <= hi]
        if hit:
            bins[hit[0]] += 1
        else:
            overflow += 1
    out = {"metric": metric, "bins": bins}
    if overflow:
        out["overflow"] = overflow
    return out


def oracle_errors(records: list, language: str, top: int = 10) -> list:
    freq = Counter()
    for r in records:
        if r["primary_language"].lower() == language.lower():
            freq.update({name for name, _ in r["error_tags"]})
    return [[n, c] for n, c in sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:top]]


def _read_plan(rng: random.Random, profile: Profile, slugs: list) -> list:
    """Fixed mix: per five reads, three queries (templates in turn), one histogram, one error report.

    Queries, the slowest reads, are the majority, so the median read is a query on every seed.
    """
    templates = [
        lambda: [("language", "=", rng.choice(("java", "python"))), ("num_changes", ">=", rng.randrange(2500, 3500))],
        lambda: [("stability", "=", "flaky"), ("num_files_changed", "<", rng.randrange(80, 120))],
        lambda: [("category", "=", "error_pass"), ("num_tests_failed", "<=", rng.randrange(0, 2))],
        lambda: [("slug", "=", rng.choice(slugs))],
        lambda: [("failed.num_tests_run", ">", rng.randrange(200, 260)), ("language", "!=", "java")],
    ]
    ops = []
    for i in range(profile.reads):
        kind = i % 5
        if kind < 3:
            terms = templates[(i // 5 * 3 + kind) % len(templates)]()
            ops.append(("query", " ".join(f"{f}{op}{v}" for f, op, v in terms), terms))
        elif kind == 3:
            ops.append(("stats", rng.choice(sorted(BINS))))
        else:
            ops.append(("errors", rng.choice(("java", "python"))))
    return ops


# --- projects --------------------------------------------------------------


class _Builder:
    def __init__(self, root: Path, workload: str, seed: int, profile: Profile):
        self.root = root
        self.fixture = root / "fixture"
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.p = profile
        self.next_build = 1000
        self.next_job = 100_000
        self.minute = 0
        self.pairs: dict[str, dict] = {}
        self.funnel: dict[str, dict] = {}
        self.curated: dict[str, dict] = {}
        self.projects = []

    def stamp(self) -> str:
        self.minute += 1
        day, rem = divmod(self.minute, 1440)
        return f"2017-{2 + day // 28:02d}-{1 + day % 28:02d}T{rem // 60:02d}:{rem % 60:02d}:00Z"

    def fake_sha(self) -> str:
        return f"{self.rng.getrandbits(160):040x}"

    def source_files(self) -> dict:
        rng, lang = self.rng, self.lang
        ext = "java" if lang == "java" else "py"
        return {f"src/pkg{k % 10}/mod{k}.{ext}": "".join(f"    value_{k}_{i} = {rng.getrandbits(32)}\n"
                                                         for i in range(self.p.src_lines))
                for k in range(self.p.src_files)}

    def scatter(self, files: dict) -> dict:
        """Changed copies of diff_files files with diff_edits scattered line edits each."""
        out = {}
        for path in self.rng.sample(sorted(files), min(self.p.diff_files, len(files))):
            lines = files[path].splitlines(keepends=True)
            for i in self.rng.sample(range(len(lines)), min(self.p.diff_edits, len(lines))):
                lines[i] = f"    edited_{i} = {self.rng.getrandbits(32)}\n"
            out[path] = "".join(lines)
        return out

    def build(self) -> Corpus:
        self.fixture.mkdir(parents=True)
        for lang in ("java", "python"):
            self.project(lang)
        catalog = self.root / "images.json"
        catalog.write_text(json.dumps(CATALOG))
        store = self.root / "store.jsonl"
        return self.store_and_reads(catalog, store)

    # one project: real pairs (reproducible shapes) plus mining-only bulk
    def project(self, lang: str):
        self.lang = lang
        slug = f"bench-{self.workload}/{lang}-{self.rng.randrange(1000):03d}"
        self.projects.append((slug, lang))
        proj = self.fixture / slug
        (proj / "logs").mkdir(parents=True)
        repo = _Repo()
        base_files = self.source_files()
        base_files["README.md"] = f"# {slug}\n"
        base = self.master_tip = repo.commit("master", None, base_files, "base")
        builds, logs, zips, pending = [], {}, [], []
        self.funnel[slug] = Counter()
        for i, kind in enumerate(self.p.pairs[lang]):
            pending.append(self.real_pair(slug, i, kind, repo, base, base_files, builds, logs, zips))
        bulk = [self.bulk_group(slug, g, repo, base, builds, logs) for g in range(self.bulk_group_count())]
        oracle = self.root / "oracle" / slug
        oracle.parent.mkdir(parents=True, exist_ok=True)
        shas = repo.write(oracle, include_archived=True)
        fixture_shas = repo.write(proj / "repo", include_archived=False)
        if any(shas[m] != s for m, s in fixture_shas.items()):
            raise RuntimeError("fixture and upstream repos disagree on commit ids")
        resolve = lambda v: shas[v] if isinstance(v, int) else v
        for rec in builds:
            rec["trigger_sha"] = resolve(rec["trigger_sha"])
            if "base_sha" in rec:
                rec["base_sha"] = resolve(rec["base_sha"])
            if "merge_message" in rec:
                t, b = rec.pop("_tb")
                rec["merge_message"] = f"Merge {resolve(t)} into {resolve(b)}"
        for mark, files in zips:
            self.write_zip(proj, shas[mark], files)
        (proj / "builds.json").write_text(json.dumps(builds, indent=1))
        for job_id, text in logs.items():
            (proj / "logs" / f"{job_id}.txt").write_text(text)
        for finish in pending + bulk:
            finish(resolve, oracle)

    def bulk_group_count(self) -> int:
        return (self.p.bulk_blocks + 9) // 10

    def write_zip(self, proj: Path, sha: str, files: dict):
        (proj / "archive").mkdir(exist_ok=True)
        with zipfile.ZipFile(proj / "archive" / f"{sha}.zip", "w") as zf:
            for rel, content in sorted(files.items()):
                zf.writestr(zipfile.ZipInfo(f"proj-{sha[:7]}/{rel}", date_time=(2017, 1, 1, 0, 0, 0)), content)

    def config(self, behaviour: str) -> dict:
        cfg = {"language": self.lang, ("jdk" if self.lang == "java" else "python"): "8" if self.lang == "java" else "3.6",
               "script": ["sh run_tests.sh"]}
        if behaviour == "install":
            cfg["install"] = ["sh install.sh"]
        return cfg

    def record(self, status, event, group, trigger, jobs, tb=None, merge=None) -> dict:
        self.next_build += 1
        rec = {"build_id": self.next_build, "status": status, "event": event,
               "branch": group if event == "push" else f"pr-temp-{self.next_build}",
               "committed_at": self.stamp(), "jobs": jobs, "trigger_sha": trigger}
        if event == "pull_request":
            rec["pr_number"] = group
            rec["base_sha"] = tb[1]
            rec["merge_message"] = ""
            rec["_tb"] = tb
            rec["trigger_sha"] = merge
        return rec

    def job(self, status, cfg, logged=True) -> dict:
        self.next_job += 1
        return {"job_id": self.next_job, "status": status, "config": cfg,
                "log": str(self.next_job) if logged else None}

    def real_pair(self, slug, i, kind, repo, base, base_files, builds, logs, zips):
        """One fail->pass pair in its own group; returns a finisher run once shas exist."""
        recovery, behaviour, filtered = kind
        lw = LogWriter(self.rng, self.lang)
        run = self.rng.randrange(20, 60)
        failed = self.rng.randrange(1, 4)
        big = self.p.big_log_kb * 1024
        fail_full, fail_short, fail_attrs = lw.failing_tests(run, failed, big)
        pass_writer = LogWriter(self.rng, self.lang)
        pass_full, pass_short, pass_attrs = pass_writer.failing_tests(run, 0)
        files_f = {"run_tests.sh": cat_script(fail_short, 1)}
        files_p = {"run_tests.sh": cat_script(pass_short, 0)}
        category = "with_failed_test"
        if behaviour == "compile":
            fail_full = fail_short = ("[INFO] Scanning for projects...\n[ERROR] COMPILATION ERROR : \n"
                                      f"[ERROR] /build/src/Mod{i}.java:[12,8] cannot find symbol\n"
                                      "[INFO] BUILD FAILURE\n")
            lw.tally.clear()
            fail_attrs = {"build_system": "Maven", "test_framework": "none_detected", "run": 0, "failed": 0,
                          "names": []}
            files_f["run_tests.sh"] = cat_script(fail_short, 1)
            category = "with_failed_job"
        elif behaviour == "install":
            install_out = f"Collecting acme-dep==1.{i}\n  Could not find a version that satisfies acme-dep==1.{i}\n"
            files_f["install.sh"] = cat_script(install_out, 1)
            files_p["install.sh"] = cat_script("Successfully installed acme-dep\n", 0)
            lw.tally.clear()
            fail_attrs = {"build_system": "none_detected", "test_framework": "none_detected", "run": 0,
                          "failed": 0, "names": []}
            category = "error_pass"
        elif behaviour == "flaky":
            files_p["run_tests.sh"] = FLAKY_SCRIPT.format(fail=fail_short, ok=pass_short)
        elif behaviour == "unrepro":
            files_f["run_tests.sh"] = cat_script("Could not resolve host: repo.example.org\n", 1)
        files_p.update(self.scatter(base_files))
        is_pr = recovery == "merge"
        pr = 100 + i
        ref = f"pr-{pr}" if is_pr else f"pair-{i}"
        archived = recovery == "zip"
        mf = repo.commit(ref, base, files_f, f"{ref} fail", archived=archived)
        mp = repo.commit(ref, mf, files_p, f"{ref} pass", archived=archived)
        if archived:
            tree_f = dict(base_files, **files_f)
            zips += [(mf, tree_f), (mp, dict(tree_f, **files_p))]
        mbase = None
        if is_pr:
            mbase = self.master_tip = repo.commit("master", self.master_tip,
                                                  {f"notes/pr-{pr}.txt": f"merge base for {pr}\n"}, f"base {pr}")
        cfg = self.config(behaviour)
        group = pr if is_pr else ref
        job_f = self.job("failed", cfg)
        job_p = self.job("passed", cfg)

        def build(status, jobs, mark):
            if is_pr:
                return self.record(status, "pull_request", group, None, jobs, tb=(mark, mbase),
                                   merge=self.fake_sha())
            return self.record(status, "push", group, mark, jobs)

        rf = build("failed", [job_f], mf)
        builds += [rf, build("canceled", [self.job("canceled", cfg, False)], mf)]
        rp = build("passed", [job_p], mp)
        builds.append(rp)
        if behaviour == "install":
            cmd = "sh install.sh"
            logs[job_f["job_id"]] = (log_header(ERA_TS) + f"$ {cmd}\n" + install_out
                                     + f'The command "{cmd}" failed and exited with 1 during install.\n'
                                     "Done. Your build exited with 1.\n")
        else:
            logs[job_f["job_id"]] = wrap_log(fail_full, 1, ERA_TS)
        logs[job_p["job_id"]] = wrap_log(pass_full, 0, ERA_TS)
        if filtered == "nolog":
            del logs[job_f["job_id"]]
        stage = "available" if filtered == "nolog" else "with_image"
        source = {"git": "git_history", "merge": "git_history", "zip": "archive"}[recovery]
        funnel = self.funnel[slug]
        for s in ("all_pairs", "available", "log_present", "docker_era", "with_image"):
            funnel[s] += 1
            if s == stage:
                break
        stability = {"flaky": "flaky", "unrepro": "unreproducible"}.get(behaviour, "reproducible")
        attempts = {"flaky": [[True, True]] + [[True, False]] * (REPEATS - 1),
                    "unrepro": [[False, True]] * REPEATS}.get(behaviour, [[True, True]] * REPEATS)
        pid = f"{slug.replace('/', '-')}-{job_f['job_id']}"

        def finish(resolve, oracle):
            f_sha, p_sha = resolve(mf), resolve(mp)
            base_sha = resolve(mbase) if mbase else None
            merge_f = rf["trigger_sha"] if is_pr else None
            merge_p = rp["trigger_sha"] if is_pr else None
            entry = {
                "project": slug, "failed_build_id": rf["build_id"], "passed_build_id": rp["build_id"],
                "failed_job_id": job_f["job_id"], "passed_job_id": job_p["job_id"],
                "group_key": [None, group] if is_pr else [group, None],
                "failed_commits": [f_sha, base_sha, merge_f, "available", source],
                "passed_commits": [p_sha, base_sha, merge_p, "available", source],
                "stage_reached": stage,
            }
            if stage == "with_image":
                entry["reproduction"] = {"stability": stability, "attempts": attempts,
                                         "category": None if stability == "unreproducible" else category,
                                         "reason": "stale_url_or_network" if behaviour == "unrepro" else None}
            self.pairs[pid] = entry
            if stage != "with_image" or stability == "unreproducible":
                return
            if is_pr:
                a, b = merged_tree(oracle, base_sha, f_sha), merged_tree(oracle, base_sha, p_sha)
            else:
                a, b = f_sha, p_sha
            changes, nfiles = numstat_oracle(oracle, a, b)

            def side(build, job, attrs, sha):
                return {"build_id": build["build_id"], "job_id": job["job_id"], "num_tests_run": attrs["run"],
                        "num_tests_failed": attrs["failed"], "failed_test_names": list(attrs["names"]),
                        "trigger_sha": sha, "branch": None if is_pr else group}

            tags = sorted(lw.tally.items(), key=lambda kv: (-kv[1], kv[0]))
            self.curated[pid] = {
                "image_tag": pid, "slug": slug, "primary_language": self.lang,
                "build_system": fail_attrs["build_system"], "test_framework": fail_attrs["test_framework"],
                "attempts": REPEATS, "successes": sum(f and p for f, p in attempts),
                "stability": stability, "category": category,
                "failed": side(rf, job_f, fail_attrs, f_sha), "passed": side(rp, job_p, pass_attrs, p_sha),
                "num_changes": changes, "num_files_changed": nfiles,
                "pr_number": group if is_pr else None, "merge_timestamp": None,
                "branch": None if is_pr else group,
                "error_tags": [list(t) for t in tags],
            }

        return finish

    # mining-only builds: fixed block patterns, shuffled per seed
    BLOCKS = ("FP", "FFP", "FCP", "P", "CP", "EP")
    MATRIX = 3

    def bulk_group(self, slug, g, repo, base, builds, logs):
        n_blocks = min(10, self.p.bulk_blocks - g * 10)
        blocks = [self.BLOCKS[k % len(self.BLOCKS)] for k in range(g * 10, g * 10 + n_blocks)]
        self.rng.shuffle(blocks)
        is_pr = g % 2 == 1
        group = 1000 + g if is_pr else f"branch-{g}"
        ref = f"bulk-{g}"
        cfgs = [{"language": self.lang, "env": [f"CELL={c}"], "script": ["sh run_tests.sh"]}
                for c in range(self.MATRIX)]
        parent = base
        pairs = []
        # each pairing block gets a variant, in fixed shares: unavailable, no log, pre-era, no image
        shares = ("nolog", "missing", "nolog", "preera", "nolog", "noimage")
        variants = [shares[k % len(shares)] for k in range(sum("F" in b or "E" in b for b in blocks))]
        self.rng.shuffle(variants)
        for block in blocks:
            variant = variants.pop() if "F" in block or "E" in block else None
            prev = None
            for ch in block:
                parent = repo.commit(ref, parent, {f"notes/{ref}.txt": f"{ch} {self.rng.getrandbits(32)}\n"},
                                     f"{ref} {ch}")
                status = {"F": "failed", "E": "errored", "C": "canceled", "P": "passed"}[ch]
                job_status = {"F": ["failed", "passed", "failed"], "E": ["errored", "passed", "errored"],
                              "C": ["canceled"] * 3, "P": ["passed"] * 3}[ch]
                jobs = [self.job(s, cfg, s != "canceled") for s, cfg in zip(job_status, cfgs)]
                trigger = parent
                if variant == "missing" and ch in "FE":
                    trigger = self.fake_sha()
                if is_pr:
                    rec = self.record(status, "pull_request", group, None, jobs, tb=(trigger, base),
                                      merge=self.fake_sha())
                else:
                    rec = self.record(status, "push", group, trigger, jobs)
                builds.append(rec)
                if ch in "FE":
                    prev = (rec, jobs, trigger)
                if ch == "P" and prev is not None:
                    pairs.append((prev, (rec, jobs, parent), variant))
        for (rf, jf, tf), (rp, jp, tp), variant in pairs:
            for k in range(self.MATRIX):
                if jf[k]["status"] not in ("failed", "errored"):
                    continue
                ts = {"preera": PRE_ERA_TS, "noimage": NO_IMAGE_TS[self.lang]}.get(variant)
                if ts:
                    lw = LogWriter(self.rng, self.lang)
                    full, _, _ = lw.failing_tests(8, 1)
                    logs[jf[k]["job_id"]] = wrap_log(full, 1, ts)

        def finish(resolve, oracle):
            funnel = self.funnel[slug]
            for (rf, jf, tf), (rp, jp, tp), variant in pairs:
                stage = {"missing": "all_pairs", "nolog": "available", "preera": "log_present",
                         "noimage": "docker_era"}[variant]
                for k in range(self.MATRIX):
                    if jf[k]["status"] not in ("failed", "errored"):
                        continue
                    for s in ("all_pairs", "available", "log_present", "docker_era"):
                        funnel[s] += 1
                        if s == stage:
                            break
                    pid = f"{slug.replace('/', '-')}-{jf[k]['job_id']}"
                    avail_f = "unavailable" if variant == "missing" else "available"
                    src_f = "none" if variant == "missing" else "git_history"
                    b = resolve(base) if is_pr else None
                    self.pairs[pid] = {
                        "project": slug, "failed_build_id": rf["build_id"], "passed_build_id": rp["build_id"],
                        "failed_job_id": jf[k]["job_id"], "passed_job_id": jp[k]["job_id"],
                        "group_key": [None, group] if is_pr else [group, None],
                        "failed_commits": [resolve(tf), b, rf["trigger_sha"] if is_pr else None, avail_f, src_f],
                        "passed_commits": [resolve(tp), b, rp["trigger_sha"] if is_pr else None,
                                           "available", "git_history"],
                        "stage_reached": stage,
                    }

        return finish

    def store_and_reads(self, catalog: Path, store: Path) -> Corpus:
        records = []
        with store.open("w") as fh:
            for k in range(self.p.store_records):
                rec = store_record(self.rng, 1 + 2 * k)
                records.append(rec)
                fh.write(json.dumps(rec) + "\n")
        records += [self.curated[pid] for pid in sorted(self.curated)]
        slugs = sorted({r["slug"] for r in records})
        plan = _read_plan(self.rng, self.p, slugs)
        ops, expected = [], []
        for i, op in enumerate(plan):
            if self.p.append_every and i and i % self.p.append_every == 0:
                rec = store_record(self.rng, 5_000_001 + 2 * i)
                ops.append(("append", rec))
                expected.append(None)
                records.append(rec)
            if op[0] == "query":
                ops.append(op[:2])
                expected.append(oracle_query(records, op[2]))
            elif op[0] == "stats":
                ops.append(op)
                expected.append(oracle_stats(records, op[1]))
            else:
                ops.append(op)
                expected.append(oracle_errors(records, op[1]))
        manifest = {
            "workload": self.workload,
            "repeats": REPEATS,
            "projects": [list(p) for p in self.projects],
            "pairs": self.pairs,
            "funnel": {slug: {s: c[s] for s in ("all_pairs", "available", "log_present", "docker_era", "with_image")}
                       for slug, c in self.funnel.items()},
            "curated": self.curated,
            "store_records": self.p.store_records,
            "reads": [[op[0], op[1] if op[0] != "append" else op[1]["image_tag"],
                       None if exp is None else [r["image_tag"] for r in exp] if op[0] == "query" else exp]
                      for op, exp in zip(ops, expected)],
        }
        digest = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()
        return Corpus(root=self.root, fixture=self.fixture, catalog=catalog, store=store,
                      projects=self.projects, manifest=manifest, reads=ops, expected_reads=expected,
                      curated=self.curated, digest=digest)


def generate(root: Path, workload: str, seed: int, tiny: bool = False) -> Corpus:
    """Write the corpus for ``workload`` under ``root`` (which must not exist)."""
    profile = (TINY if tiny else PROFILES)[workload]
    return _Builder(Path(root), workload, seed, profile).build()


def builds_in(corpus: Corpus) -> int:
    """Number of builds across every project's history (the probe-ratio base)."""
    return sum(len(json.loads((corpus.fixture / slug / "builds.json").read_text()))
               for slug, _ in corpus.projects)
