"""Seeded end-to-end benchmark of the failpass pipeline.

    python3 bench/run.py --workload repro|curate --seed N --seconds S --trace 0|1

Builds a synthetic corpus from the seed, then repeats full pipeline passes
(mine -> filter -> reproduce -> curate -> read mix) for about S seconds,
checking every output against the corpus manifest. The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` the per-layer ones, from passes traced with spans and
alternated with untraced passes. The line before it carries the
environment, sample counts and the metrics a run cannot report. Exits 1 on
any mismatch and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import array
import fcntl
import gc
import json
import os
import platform
import resource
import secrets
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import corpus
import spans

WORKLOADS = ("repro", "curate")
SETUP_REPS = 5
SETUP_EVERY = 3  # passes between set-up repetitions
ROOT = Path(__file__).resolve().parent.parent


class Terminated(BaseException):
    """SIGTERM, raised past the pipeline's per-command error handling."""


def _terminate(*_):
    raise Terminated


FS_IOC_GETFLAGS, FS_IOC_SETFLAGS, FS_TOPDIR_FL = 0x80086601, 0x40086602, 0x00020000


def spread_subdirs(path: Path) -> bool:
    """Mark ``path`` as the top of a directory hierarchy (``chattr +T``); False where unsupported.

    On ext4 without a journal, allocating an inode skips, with a buffer
    lookup each, every inode of the block group freed in the last one to six
    minutes. Scratch clones free thousands a minute, so file creation would
    slow with how much the last minutes deleted, earlier runs included. With
    the flag, ext4 puts each new subdirectory in a lightly used group.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        flags = array.array("i", [0])
        fcntl.ioctl(fd, FS_IOC_GETFLAGS, flags, True)
        flags[0] |= FS_TOPDIR_FL
        fcntl.ioctl(fd, FS_IOC_SETFLAGS, flags, True)
        return True
    except OSError:
        return False
    finally:
        os.close(fd)


def docker_free_path(path: str) -> str:
    """PATH without any directory holding a docker executable."""
    keep = [d for d in path.split(os.pathsep)
            if d and not os.access(os.path.join(d, "docker"), os.X_OK)]
    return os.pathsep.join(keep)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the median for q=50."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(args, work: Path) -> int:
    spread = spread_subdirs(work)
    # ext4 hashes a new subdirectory's name to pick its group: names unique to the run keep
    # this run's files out of the groups that the last run's deletions still slow down
    run_id = secrets.token_hex(4)
    tmp = work / "tmp"
    tmp.mkdir()
    spread = spread_subdirs(tmp) and spread
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    os.environ["PATH"] = docker_free_path(os.environ.get("PATH", ""))

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import pipeline
    from failpass.runtime import LocalRuntime, default_runtime
    import_s = time.perf_counter() - t0

    backend = type(default_runtime()).__name__
    if shutil.which("docker") is not None or backend != LocalRuntime.__name__:
        print(f"expected the LocalRuntime fallback without docker on PATH, got {backend}", file=sys.stderr)
        return 2

    setup_times = []

    def set_up() -> corpus.Corpus:
        t = time.perf_counter()
        made = corpus.generate(work / f"corpus-{len(setup_times)}-{run_id}", args.workload, args.seed,
                               tiny=args.tiny)
        pipeline.warm_up(work)
        setup_times.append(time.perf_counter() - t)
        return made

    corp = set_up()
    builds = corpus.builds_in(corp)
    # the harness's own objects (manifest, expected reads) stay out of the program's GC passes
    gc.collect()
    gc.freeze()

    rec = spans.Recorder()
    untraced, traced, layers, leaked = [], [], [], []
    pair_s, read_ms, failures = [], [], []
    attempted = 0
    last_trace: list = []
    start = time.perf_counter()
    while True:
        tracing = bool(args.trace) and len(untraced) > len(traced)
        pass_dir = work / f"pass-{len(untraced) + len(traced)}-{run_id}"
        undo = spans.install(rec, None if tracing else {"reproducer.stability_protocol"})
        try:
            res = pipeline.run_pass(corp, pass_dir, rec)
        finally:
            undo()
        pass_spans, rec.spans = rec.spans, []
        attempted += res.attempted
        failures += res.failures
        leaked.append(len(list(tmp.glob("failpass-scratch-*"))))
        for entry in tmp.iterdir():
            shutil.rmtree(entry, ignore_errors=True)
        shutil.rmtree(pass_dir, ignore_errors=True)
        if tracing:
            traced.append(res.pipeline_s)
            layers.append(spans.layer_metrics(pass_spans, builds) | {
                f"pairfilter.funnel.{k}": float(v) for k, v in res.funnel.items()})
            last_trace = pass_spans
        else:
            untraced.append(res.pipeline_s)
            pair_s += [s[spans.END] - s[spans.START] for s in pass_spans
                       if s[spans.NAME] == "reproducer.stability_protocol"]
            read_ms += res.read_ms
        passes = len(untraced) + len(traced)
        # set-up is timed again between passes, so its median spans the run like the others
        if passes % SETUP_EVERY == 0 and len(setup_times) < SETUP_REPS:
            again = set_up()
            shutil.rmtree(again.root)
            attempted += 1
            if again.digest != corp.digest:
                failures.append(f"corpus {len(setup_times)}: manifest digest differs for the same seed")
        elapsed = time.perf_counter() - start
        enough = len(untraced) >= (1 if args.trace else 3) and len(traced) >= (1 if args.trace else 0)
        if enough and elapsed * (passes + 1) / passes > args.seconds:
            break

    env = {
        "python": platform.python_version(),
        "git": subprocess.run(["git", "--version"], capture_output=True, text=True).stdout.split()[-1],
        "nproc": os.cpu_count(),
        "runtime": backend,
        "spread_subdirs": spread,
        "seed": args.seed,
        "workload": args.workload,
        "manifest_sha256": corp.digest,
    }
    failed = len(failures)
    info = {
        "env": env,
        "samples": {"setup_s": len(setup_times), "pipeline_s": len(untraced), "pair_s": len(pair_s),
                    "read_ms": len(read_ms), "traced_passes": len(traced)},
        "pipeline_s_per_pass": untraced,
        "pair_s_per_pair": pair_s,
        "ops_failed_ratio": {"value": failed / attempted, "base": f"{failed} failed of {attempted} "
                             "operations (CLI calls, store appends and checked outputs)"},
        "omitted": {"pair_s.p90": f"needs >= 100 pairs for 10 samples beyond p90; this run had {len(pair_s)}"},
    }
    if args.trace:
        spans.dump(last_trace, ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
        metrics["reproducer.leaked_scratch_dirs"] = statistics.median(leaked)
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        metrics["ops_failed_ratio"] = failed / attempted
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "pipeline_s": statistics.median(untraced),
            "pair_s.p50": statistics.median(pair_s) if pair_s else 0.0,
            "read_ms.p50": quantile(read_ms, 50),
            "read_ms.p90": quantile(read_ms, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "pipeline_s": "s", "pair_s.p50": "s", "read_ms.p50": "ms",
                 "read_ms.p90": "ms", "peak_rss_mb": "MB"}
    for msg in failures[:20]:
        print(f"mismatch: {msg}", file=sys.stderr)
    print(json.dumps({"bench": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if failed == 0 else 1


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("mb_s"):
        return "MB/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ms_p50"):
        return "ms"
    if name.endswith("us_per_log"):
        return "us"
    if name.endswith("bytes") or name.endswith("bytes_scanned"):
        return "bytes"
    if "ratio" in name or name.endswith("probes_per_build"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="a tiny corpus, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "failpass" / "cli.py").is_file():
        print(f"failpass sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, _terminate)
    try:
        work.mkdir(parents=True)
        return run(args, work)
    except Terminated:
        return 143
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
