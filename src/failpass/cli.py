"""Command-line entry points for the mining/reproduction pipeline."""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from . import analyzer
from .connector import make_connector
from .miner import mine
from .model import JobPair, parse_timestamp
from .pairfilter import DEFAULT_DOCKER_CUTOFF, FilterVerdict, filter_pairs, load_catalog
from .reproducer import (
    DEFAULT_REPEATS,
    DEFAULT_TIMEOUT_S,
    ReproductionContext,
    stability_protocol,
)
from .runtime import default_runtime
from .store import (
    ArtifactStore,
    HistogramSpec,
    artifact_cleanup,
    artifact_fetch,
    artifact_shell,
    error_frequency_report,
    stats,
)


def _write_jsonl(path, records):
    """Write records as JSON lines; a file target is replaced atomically, so a crash leaves the old one."""
    if path is None or path == "-":
        for r in records:
            print(json.dumps(r))
        return
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            for r in records:
                fh.write(json.dumps(r) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _store(args) -> ArtifactStore:
    path = args.store or os.environ.get("FAILPASS_STORE")
    if not path:
        raise SystemExit("no store configured: pass --store or set FAILPASS_STORE")
    return ArtifactStore(path)


def cmd_mine(args):
    connector = make_connector(args.fixture)
    pairs = mine(args.slug, connector, language=args.language)
    _write_jsonl(args.out, [p.to_dict() for p in pairs])
    print(f"mined {len(pairs)} job pairs from {args.slug}", file=sys.stderr)


def cmd_filter(args):
    connector = make_connector(args.fixture)
    pairs = [JobPair.from_dict(d) for d in _read_jsonl(args.pairs)]
    catalog = load_catalog(args.catalog)
    cutoff = parse_timestamp(args.docker_cutoff) if args.docker_cutoff else DEFAULT_DOCKER_CUTOFF
    verdicts, counts = filter_pairs(pairs, connector.fetch_job_log, catalog, cutoff=cutoff)
    _write_jsonl(args.out, [v.to_dict() for v in verdicts])
    for c in counts:
        print(f"{c.stage.value}: {c.count}", file=sys.stderr)


# a module-level name, so a tracer (bench/spans.py) can wrap the verdict decoding of cmd_reproduce
_verdict_from_dict = FilterVerdict.from_dict


def cmd_reproduce(args):
    connector = make_connector(args.fixture)
    verdicts = [_verdict_from_dict(d) for d in _read_jsonl(args.verdicts)]
    runtime = default_runtime()
    out_dir = Path(args.output_dir)

    def log_sink(pid, attempt, side, text):
        path = out_dir / pid / f"attempt-{attempt}" / f"{side}.log"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    records = []
    raw_configs: dict[str, dict[int, dict]] = {}  # slug -> job_id -> raw config
    for v in verdicts:
        if v.image_ref is None:
            continue
        slug = v.pair.project.slug
        if slug not in raw_configs:
            raw_configs[slug] = {
                j["job_id"]: j["config"]
                for r in connector.fetch_raw_records(slug)
                for j in r.get("jobs", [])
            }
        with tempfile.TemporaryDirectory(prefix="failpass-scratch-", ignore_cleanup_errors=True) as scratch:
            ctx = ReproductionContext(
                connector=connector,
                runtime=runtime,
                language=v.pair.project.primary_language,
                raw_configs=raw_configs[slug],
                scratch_dir=Path(scratch),
                timeout_s=args.timeout_s,
                log_sink=log_sink,
            )
            records.append(stability_protocol(v.pair, v, ctx, n=args.repeats))
    _write_jsonl(args.out, [r.to_dict() for r in records])
    for r in records:
        print(f"{r.pair_id}: {r.stability}" + (f" ({r.category})" if r.category else ""), file=sys.stderr)


def cmd_analyze(args):
    text = Path(args.log_file).read_bytes().decode("utf-8", errors="replace")
    attrs = analyzer.analyze(text, args.language)
    print(json.dumps(attrs.to_dict(), indent=None if args.json else 2))


def cmd_stats(args):
    records = _store(args).load()
    if args.errors:
        ranked = error_frequency_report(records, args.errors, top_n=args.top)
        for name, count in ranked:
            print(f"{name}\t{count}")
        return
    spec = HistogramSpec(metric=args.metric)
    print(json.dumps(stats(records, spec), indent=2))


def cmd_query(args):
    for record in _store(args).query(args.expression):
        print(json.dumps(record.to_dict()))


def cmd_artifact(args):
    store = _store(args)
    runtime = default_runtime()
    if args.action == "fetch":
        record = artifact_fetch(store, args.tag, runtime)
        print(json.dumps(record.to_dict()))
        return
    if args.action == "shell":
        raise SystemExit(artifact_shell(store, args.tag, runtime))
    artifact_cleanup(store, args.tag, runtime, purge=args.purge)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="failpass", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine fail-pass job pairs for a project")
    p.add_argument("slug")
    p.add_argument("--fixture", help="fixture directory (default: FAILPASS_FIXTURE_DIR)")
    p.add_argument("--language", help="project primary language override")
    p.add_argument("--out", default="-", help="pairs JSONL output (default stdout)")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("filter", help="filter mined pairs for reproducibility essentials")
    p.add_argument("--pairs", required=True)
    p.add_argument("--catalog", required=True, help="base image catalog JSON")
    p.add_argument("--out", default="-")
    p.add_argument("--docker-cutoff", help="container-era cutoff, ISO-8601")
    p.add_argument("--fixture")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("reproduce", help="reproduce filtered pairs with the stability protocol")
    p.add_argument("--verdicts", required=True)
    p.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    p.add_argument("--timeout-s", type=float, default=DEFAULT_TIMEOUT_S)
    p.add_argument("--out", default="-")
    p.add_argument("--output-dir", default="output", help="reproduced log directory")
    p.add_argument("--fixture")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("analyze", help="parse one CI log into structured attributes")
    p.add_argument("log_file")
    p.add_argument("--language", required=True, choices=["java", "python"])
    p.add_argument("--json", action="store_true", help="compact single-line JSON")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("stats", help="dataset statistics over the artifact store")
    p.add_argument("--store")
    p.add_argument("--metric", default="changes", choices=["changes", "files_changed", "failing_tests"])
    p.add_argument("--errors", metavar="LANGUAGE", help="emit the error frequency report instead")
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("query", help="query artifact metadata")
    p.add_argument("expression")
    p.add_argument("--store")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("artifact", help="fetch/shell/cleanup artifact containers")
    p.add_argument("action", choices=["fetch", "shell", "cleanup"])
    p.add_argument("tag")
    p.add_argument("--purge", action="store_true")
    p.add_argument("--store")
    p.set_defaults(func=cmd_artifact)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
