"""One pass of the failpass pipeline over a generated corpus, and its correctness checks.

The pass drives ``failpass.cli.main`` in-process for ``mine``, ``filter``,
``reproduce``, ``query`` and ``stats``. No command runs the curate stage
yet, so ``curate`` composes it from the public calls that exist. Program
functions are always reached through their module attributes, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from failpass import analyzer, reproducer, store
from failpass.cli import main as cli_main
from failpass.connector import make_connector
from failpass.model import JobPair

from corpus import REPEATS, Corpus, log_header

FUNNEL = ("all_pairs", "available", "log_present", "docker_era", "with_image")


@dataclass
class PassResult:
    pipeline_s: float
    read_ms: list
    funnel: dict
    attempted: int = 0
    failures: list = field(default_factory=list)


def _cli(argv: list[str]) -> tuple[bool, str, str]:
    """Run one CLI command; (succeeded, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli_main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) or exc.code is None else 1
    except Exception as exc:  # a failed operation is counted, and the pass goes on
        print(f"{argv[0]} raised {exc!r}", file=err)
        rc = 1
    return not rc, out.getvalue(), err.getvalue()


def _read_jsonl(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def warm_up(work: Path) -> None:
    """Parse one small log through the CLI so lazy imports and regex caches are filled."""
    log = work / "warm.log"
    log.write_text(log_header("2017-03-01T12:00:00Z") + "Done. Your build exited with 0.\n")
    ok, _, err = _cli(["analyze", str(log), "--language", "java", "--json"])
    if not ok:
        raise RuntimeError(f"warm-up failed: {err}")
    log.unlink()


def curate(fixture: Path, records: list[dict], verdicts: list[dict], store_path: Path, work: Path) -> list:
    """Stage 4 from public calls: rebuild both trees, diff them, tag the log, persist."""
    connector = make_connector(fixture)
    pairs = {}
    for v in verdicts:
        pair = JobPair.from_dict(v["pair"])
        pairs[reproducer.pair_id(pair)] = pair
    art = store.ArtifactStore(store_path)
    out = []
    for r in sorted(records, key=lambda r: r["pair_id"]):
        if r["stability"] == "unreproducible":
            continue
        pair = pairs[r["pair_id"]]
        slug, lang = pair.project.slug, pair.project.primary_language
        repo = connector.repo_path(slug)
        fetch = lambda sha, dest, slug=slug: connector.fetch_archive_snapshot(slug, sha, dest)
        tmp = work / "curate" / r["pair_id"]
        try:
            fail_tree = reproducer.revert_project(pair.failed_commits, repo, fetch, tmp / "fail")
            pass_tree = reproducer.revert_project(pair.passed_commits, repo, fetch, tmp / "pass")
            changes, nfiles = store.compute_diff_metrics(fail_tree.root, pass_tree.root)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        fail_log = connector.fetch_job_log(pair.failed_job.job_id)
        fail_attrs = analyzer.analyze(fail_log, lang)
        pass_attrs = analyzer.analyze(connector.fetch_job_log(pair.passed_job.job_id), lang)
        tags = analyzer.extract_error_tags(fail_log, lang)

        def side(build_id, job, attrs, coords):
            return store.SideInfo(build_id=build_id, job_id=job.job_id, num_tests_run=attrs.num_tests_run,
                                  num_tests_failed=attrs.num_tests_failed,
                                  failed_test_names=attrs.failed_test_names,
                                  trigger_sha=coords.trigger_sha, branch=pair.group_key[0])

        meta = store.ArtifactMetadata(
            image_tag=store.make_image_tag(slug, pair.failed_job.job_id),
            slug=slug, primary_language=lang,
            build_system=fail_attrs.build_system, test_framework=fail_attrs.test_framework,
            attempts=len(r["attempts"]), successes=sum(f and p for f, p in r["attempts"]),
            stability=r["stability"], category=r["category"],
            failed=side(pair.failed_build_id, pair.failed_job, fail_attrs, pair.failed_commits),
            passed=side(pair.passed_build_id, pair.passed_job, pass_attrs, pair.passed_commits),
            num_changes=changes, num_files_changed=nfiles,
            pr_number=pair.group_key[1], branch=pair.group_key[0],
            error_tags=tuple((t.name, t.count) for t in tags),
        )
        art.persist(meta)
        out.append(meta)
    return out


def run_pass(corpus: Corpus, work: Path, rec) -> PassResult:
    """Mine -> filter -> reproduce -> curate -> read mix, timed; then check every output."""
    work.mkdir(parents=True)
    store_path = work / "store.jsonl"
    shutil.copyfile(corpus.store, store_path)
    fx, cat = str(corpus.fixture), str(corpus.catalog)
    calls, outputs, read_ms = [], [], []
    curated: list = []

    def cli(label, argv):
        ok, out, err = _cli(argv)
        calls.append((label, ok, err))
        return out, err

    start = time.perf_counter()
    with rec.span("stage.mine"):
        for k, (slug, lang) in enumerate(corpus.projects):
            cli("mine", ["mine", slug, "--fixture", fx, "--language", lang, "--out", str(work / f"pairs-{k}.jsonl")])
    funnel_err = []
    with rec.span("stage.filter"):
        for k, _ in enumerate(corpus.projects):
            _, err = cli("filter", ["filter", "--pairs", str(work / f"pairs-{k}.jsonl"), "--catalog", cat,
                                    "--fixture", fx, "--out", str(work / f"verdicts-{k}.jsonl")])
            funnel_err.append(err)
    verdicts_path = work / "verdicts.jsonl"
    records_path = work / "records.jsonl"
    with rec.span("stage.reproduce"):
        with verdicts_path.open("w") as fh:
            for k, _ in enumerate(corpus.projects):
                part = work / f"verdicts-{k}.jsonl"
                if part.exists():
                    fh.write(part.read_text())
        cli("reproduce", ["reproduce", "--verdicts", str(verdicts_path), "--fixture", fx,
                          "--repeats", str(REPEATS), "--timeout-s", "120", "--out", str(records_path),
                          "--output-dir", str(work / "output")])
    with rec.span("stage.curate"):
        try:
            curated = curate(corpus.fixture, _read_jsonl(records_path), _read_jsonl(verdicts_path), store_path,
                             work)
            calls.append(("curate", True, ""))
        except Exception as exc:  # counted as a failed operation
            calls.append(("curate", False, repr(exc)))
    with rec.span("stage.read"):
        for op in corpus.reads:
            if op[0] == "append":
                try:
                    store.ArtifactStore(store_path).persist(store.ArtifactMetadata.from_dict(op[1]))
                    calls.append(("append", True, ""))
                except Exception as exc:  # counted as a failed operation
                    calls.append(("append", False, repr(exc)))
                outputs.append(None)
                continue
            if op[0] == "query":
                argv = ["query", op[1], "--store", str(store_path)]
            elif op[0] == "stats":
                argv = ["stats", "--metric", op[1], "--store", str(store_path)]
            else:
                argv = ["stats", "--errors", op[1], "--store", str(store_path)]
            t = time.perf_counter()
            out, _ = cli(op[0], argv)
            read_ms.append((time.perf_counter() - t) * 1e3)
            outputs.append(out)
    pipeline_s = time.perf_counter() - start

    funnels = [_funnel(err) for err in funnel_err]
    funnel = {s: sum(f.get(s, 0) for f in funnels) for s in FUNNEL}
    result = PassResult(pipeline_s=pipeline_s, read_ms=read_ms, funnel=funnel)
    check(corpus, work, calls, curated, outputs, funnels, result)
    return result


# --- correctness gate -------------------------------------------------------


def _coords(c: dict) -> list:
    return [c["trigger_sha"], c["base_sha"], c["merge_sha"], c["availability"], c["recovery_source"]]


def _funnel(stderr: str) -> dict:
    """The ``stage: count`` lines that ``failpass filter`` prints."""
    counts = {}
    for line in stderr.splitlines():
        name, _, count = line.partition(": ")
        if name in FUNNEL and count.isdigit():
            counts[name] = int(count)
    return counts


def check(corpus: Corpus, work: Path, calls, curated, outputs, funnels, result: PassResult) -> None:
    """Compare every stage output with the manifest; each mismatch is one failed operation."""
    fail = result.failures.append
    m = corpus.manifest
    result.attempted += len(calls)
    for label, ok, err in calls:
        if not ok:
            fail(f"{label} command failed: {err.strip()[-300:]}")

    # mine: the pair set and each pair's builds, jobs, group and commit coordinates
    for k, (slug, _) in enumerate(corpus.projects):
        expected = {pid: e for pid, e in m["pairs"].items() if e["project"] == slug}
        got = {}
        for d in _read_jsonl(work / f"pairs-{k}.jsonl"):
            got[f"{slug.replace('/', '-')}-{d['failed_job']['job_id']}"] = d
        result.attempted += len(expected) + 1
        if set(got) != set(expected):
            fail(f"mine {slug}: {len(set(got) ^ set(expected))} pairs differ from the manifest")
        for pid in sorted(set(got) & set(expected)):
            d, e = got[pid], expected[pid]
            seen = [d["failed_build_id"], d["passed_build_id"], d["passed_job"]["job_id"], d["group_key"],
                    _coords(d["failed_commits"]), _coords(d["passed_commits"])]
            want = [e["failed_build_id"], e["passed_build_id"], e["passed_job_id"], e["group_key"],
                    e["failed_commits"], e["passed_commits"]]
            if seen != want:
                fail(f"mine {pid}: {seen} != {want}")

        # filter: funnel counts and the stage each pair reached
        verdicts = _read_jsonl(work / f"verdicts-{k}.jsonl")
        result.attempted += len(verdicts) + 1
        counts = funnels[k] if k < len(funnels) else {}
        if {s: counts.get(s) for s in m["funnel"][slug]} != m["funnel"][slug]:
            fail(f"filter {slug}: funnel {counts} != {m['funnel'][slug]}")
        for v in verdicts:
            pid = f"{slug.replace('/', '-')}-{v['pair']['failed_job']['job_id']}"
            if pid in expected and v["stage_reached"] != expected[pid]["stage_reached"]:
                fail(f"filter {pid}: reached {v['stage_reached']}, expected {expected[pid]['stage_reached']}")

    # reproduce: stability, attempts, category and reason per pair
    want = {pid: e["reproduction"] for pid, e in m["pairs"].items() if "reproduction" in e}
    got = {r["pair_id"]: r for r in _read_jsonl(work / "records.jsonl")}
    result.attempted += len(want) + 1
    if set(got) != set(want):
        fail(f"reproduce: pairs {sorted(set(got) ^ set(want))} differ from the manifest")
    for pid in sorted(set(got) & set(want)):
        r, e = got[pid], want[pid]
        seen = [r["stability"], r["attempts"], r["category"], r["unreproducibility_reason"]]
        if seen != [e["stability"], e["attempts"], e["category"], e["reason"]]:
            fail(f"reproduce {pid}: {seen} != {e}")

    # curate: every field, with diff metrics against the git numstat oracle
    result.attempted += len(corpus.curated) + 1
    produced = {meta.image_tag: meta.to_dict() for meta in curated}
    if set(produced) != set(corpus.curated):
        fail(f"curate: records {sorted(set(produced) ^ set(corpus.curated))} differ from the manifest")
    for tag in sorted(set(produced) & set(corpus.curated)):
        if produced[tag] != corpus.curated[tag]:
            diff = {k: (produced[tag][k], v) for k, v in corpus.curated[tag].items() if produced[tag].get(k) != v}
            fail(f"curate {tag}: {str(diff)[:400]}")

    # reads: against the brute-force oracle over the generated records
    for op, out, expected in zip(corpus.reads, outputs, corpus.expected_reads):
        if op[0] == "append":
            continue
        result.attempted += 1
        try:
            if op[0] == "query":
                seen = [json.loads(line) for line in out.splitlines() if line.strip()]
            elif op[0] == "stats":
                seen = json.loads(out)
            else:
                seen = [[name, int(count)] for name, count in (line.split("\t") for line in out.splitlines())]
        except ValueError as exc:
            fail(f"{op[0]} {op[1]!r}: unparseable output ({exc})")
            continue
        if seen != expected:
            fail(f"{op[0]} {op[1]!r}: output differs from the oracle")
