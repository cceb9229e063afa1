"""Command-line entry points for the mining/reproduction pipeline."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from pathlib import Path

from . import analyzer
from .connector import CloneScope, ConnectorError, ProjectNotFound, make_connector
from .miner import mine
from .model import JobPair, parse_timestamp, replace_file
from .pairfilter import DEFAULT_DOCKER_CUTOFF, CatalogError, FilterVerdict, filter_pairs, load_catalog
from .reproducer import (
    DEFAULT_REPEATS,
    DEFAULT_TIMEOUT_S,
    ReproductionContext,
    stability_protocol,
)
from .runtime import default_runtime
from .store import ArtifactStore, StoreError, error_frequency_report, stats


def _write_jsonl(path, records):
    """Write records as JSON lines; a file target is replaced atomically, so a crash leaves the old one."""
    if path == "-":
        for r in records:
            print(json.dumps(r))
        return
    replace_file(path, (f"{json.dumps(r)}\n".encode() for r in records))


def _read_jsonl(path, decode):
    """``decode`` of each non-blank line's JSON; a bad line or file exits naming the file (and line number)."""
    out = []
    try:
        with open(path, "rb") as fh:  # json.loads decodes each line, so bad bytes name their line
            for line_no, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    out.append(decode(json.loads(line)))
                except (ValueError, TypeError, KeyError, AttributeError) as exc:
                    raise SystemExit(f"failpass: {path}, line {line_no}: {type(exc).__name__}: {exc}") from None
    except OSError as exc:
        raise SystemExit(f"failpass: {path}: {exc.strerror}") from None
    return out


def _store(args) -> ArtifactStore:
    path = args.store or os.environ.get("FAILPASS_STORE")
    if not path:
        raise SystemExit("failpass: no store configured: pass --store or set FAILPASS_STORE")
    return ArtifactStore(path)


def cmd_mine(args):
    connector = make_connector(args.fixture)
    pairs = mine(args.slug, connector, language=args.language)
    _write_jsonl(args.out, [p.to_dict() for p in pairs])
    print(f"mined {len(pairs)} job pairs from {args.slug}", file=sys.stderr)


def cmd_filter(args):
    connector = make_connector(args.fixture)
    pairs = _read_jsonl(args.pairs, JobPair.from_dict)
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
    verdicts = _read_jsonl(args.verdicts, _verdict_from_dict)
    runtime = default_runtime()
    out_dir = Path(args.output_dir)

    def log_sink(pid, attempt, side, text):
        path = out_dir / pid / f"attempt-{attempt}" / f"{side}.log"
        path.parent.mkdir(parents=True, exist_ok=True)
        replace_file(path, [text.encode()])

    records = []
    raw_configs: dict[str, dict[int, dict]] = {}  # slug -> job_id -> raw config
    trees_edited = False  # carried from pair to pair: once a job changed its tree, every side runs in copies
    # one clone per repository for the whole command; each tree gets a copy of its .git
    with CloneScope() as clones:
        for v in verdicts:
            if v.image_ref is None:
                continue
            slug = v.pair.project.slug
            if slug not in raw_configs:
                try:
                    raw_records = connector.fetch_raw_records(slug)
                except ProjectNotFound as exc:  # gone since filter: its pairs run with no job configuration
                    print(f"failpass: {exc}", file=sys.stderr)
                    raw_records = []
                raw_configs[slug] = {j["job_id"]: j["config"] for r in raw_records for j in r.get("jobs", [])}
            with tempfile.TemporaryDirectory(prefix="failpass-scratch-", ignore_cleanup_errors=True) as scratch:
                ctx = ReproductionContext(
                    connector=connector,
                    runtime=runtime,
                    language=v.pair.project.primary_language,
                    raw_configs=raw_configs[slug],
                    scratch_dir=Path(scratch),
                    timeout_s=args.timeout_s,
                    log_sink=log_sink,
                    clones=clones,
                    trees_edited=trees_edited,
                )
                records.append(stability_protocol(v.pair, v, ctx, n=args.repeats))
                trees_edited = ctx.trees_edited
    _write_jsonl(args.out, [r.to_dict() for r in records])
    for r in records:
        print(f"{r.pair_id}: {r.stability}" + (f" ({r.category})" if r.category else ""), file=sys.stderr)


def cmd_analyze(args):
    text = Path(args.log_file).read_bytes().decode("utf-8", errors="replace")
    attrs = analyzer.analyze(text, args.language)
    print(json.dumps(attrs.to_dict(), indent=None if args.json else 2))


def cmd_stats(args):
    index = _store(args).index()
    if args.errors:
        ranked = error_frequency_report(index, args.errors, top_n=args.top)
        for name, count in ranked:
            print(f"{name}\t{count}")
        return
    print(json.dumps(stats(index, args.metric), indent=2))


def cmd_query(args):
    # written line by line: a joined string would hold a second copy of every hit
    sys.stdout.writelines(_store(args).query(args.expression))


def cmd_artifact(args):
    record = _store(args).get(args.tag)
    if record is None:
        raise StoreError(f"artifact not found: {args.tag}")
    runtime = default_runtime()
    if args.action == "fetch":
        runtime.fetch_image(args.tag)
        print(json.dumps(record.to_dict()))
    elif args.action == "shell":
        raise SystemExit(runtime.shell(args.tag, label=args.tag))
    else:
        runtime.cleanup(args.tag, purge=args.purge)


def _number(kind, ok, rule: str):
    """An argparse type: ``kind(text)``, a usage error naming the flag unless ``ok(value)``.

    It keeps the name of ``kind``, so text that is no number still reads "invalid int value".
    """
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    parse.__name__ = kind.__name__
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="failpass", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine fail-pass job pairs for a project")
    p.add_argument("slug")
    p.add_argument("--fixture", help="fixture directory (default: FAILPASS_FIXTURE_DIR)")
    p.add_argument("--language", help="project primary language override")
    p.add_argument("--out", default="-", help="pairs JSONL output (default stdout)")

    p = sub.add_parser("filter", help="filter mined pairs for reproducibility essentials")
    p.add_argument("--pairs", required=True)
    p.add_argument("--catalog", required=True, help="base image catalog JSON")
    p.add_argument("--out", default="-")
    p.add_argument("--docker-cutoff", help="container-era cutoff, ISO-8601")
    p.add_argument("--fixture")

    p = sub.add_parser("reproduce", help="reproduce filtered pairs with the stability protocol")
    p.add_argument("--verdicts", required=True)
    p.add_argument("--repeats", type=_number(int, lambda v: v >= 1, "at least 1"), default=DEFAULT_REPEATS)
    p.add_argument("--timeout-s", type=_number(float, lambda v: v > 0, "above 0"), default=DEFAULT_TIMEOUT_S)
    p.add_argument("--out", default="-")
    p.add_argument("--output-dir", default="output", help="reproduced log directory")
    p.add_argument("--fixture")

    p = sub.add_parser("analyze", help="parse one CI log into structured attributes")
    p.add_argument("log_file")
    p.add_argument("--language", required=True, choices=["java", "python"])
    p.add_argument("--json", action="store_true", help="compact single-line JSON")

    p = sub.add_parser("stats", help="dataset statistics over the artifact store")
    p.add_argument("--store")
    p.add_argument("--metric", default="changes", choices=["changes", "files_changed", "failing_tests"])
    p.add_argument("--errors", metavar="LANGUAGE", help="emit the error frequency report instead")
    p.add_argument("--top", type=_number(int, lambda v: v >= 0, "at least 0"), default=10)

    p = sub.add_parser("query", help="query artifact metadata")
    p.add_argument("expression")
    p.add_argument("--store")

    p = sub.add_parser("artifact", help="fetch/shell/cleanup artifact containers")
    p.add_argument("action", choices=["fetch", "shell", "cleanup"])
    p.add_argument("tag")
    p.add_argument("--purge", action="store_true")
    p.add_argument("--store")

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: building one takes 1-2 ms, half or more of a small read."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        # looked up at call time, so a replaced cmd_* runs even though the parser outlives it
        globals()[f"cmd_{args.command}"](args)
    except (StoreError, ConnectorError, CatalogError) as exc:
        # errors in what the user gave: a malformed query, a store line that cannot be read, an unknown
        # artifact, a missing fixture or project, a bad catalog
        raise SystemExit(f"failpass: {exc}") from None
    return 0


if __name__ == "__main__":
    sys.exit(main())
