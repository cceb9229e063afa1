"""In-memory span recorder and per-layer metrics for the traced benchmark run.

Spans are recorded from the benchmark's side only: ``install`` replaces
the call-site bindings of the program's public functions (for example
``failpass.miner.commit_exists``) with timing wrappers and returns a
function that puts the originals back. A wrapper records nothing outside
a stage span, so the benchmark's own checks never show up as program time.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

# span fields, kept as lists for cheap appends
NAME, START, END, PARENT, PAIR, EXTRA = range(6)


class Recorder:
    """Spans of one process: name, start, end, parent index, pair id, extra."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pair: str | None = None

    def open(self, name: str, pair: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if pair is not None:
            self.pair = pair
        self.spans.append([name, time.monotonic(), None, parent, self.pair, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.monotonic()
        self._stack.pop()
        self.pair = self.spans[self._stack[-1]][PAIR] if self._stack else None

    @contextmanager
    def span(self, name: str, pair: str | None = None):
        idx = self.open(name, pair)
        try:
            yield idx
        finally:
            self.close(idx)

    @property
    def active(self) -> bool:
        return bool(self._stack)



def dump(spans: list[list], path: Path) -> None:
    """Write spans as JSON lines, parents as indices into the same list."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for name, start, end, parent, pair, extra in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                 "pair": pair, "extra": extra}) + "\n")


def _wrap(rec: Recorder, name: str, fn, before=None, after=None, pair_of=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        idx = rec.open(name, pair_of(args) if pair_of else None)
        extra = before(args) if before else None
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        rec.spans[idx][EXTRA] = after(args, result) if after else extra
        return result

    return traced


def _file_size(args) -> int:
    try:
        return os.stat(args[0].path).st_size
    except FileNotFoundError:
        return 0


def bindings():
    """(owner, attribute, span name, before, after, pair_of) for every traced call site."""
    from failpass import analyzer, cli, connector, miner, reproducer
    from failpass.connector import FixtureConnector
    from failpass.model import JobPair
    from failpass.pairfilter import FilterVerdict
    from failpass.reproducer import ReproductionContext, pair_id
    from failpass.runtime import LocalRuntime
    from failpass.store import ArtifactMetadata, ArtifactStore
    from failpass import store

    return [
        (miner, "commit_exists", "connector.commit_exists", None, None, None),
        (FixtureConnector, "fetch_build_history", "connector.fetch_build_history", None, None, None),
        (FixtureConnector, "fetch_job_log", "connector.fetch_job_log", None, None, None),
        (FixtureConnector, "fetch_raw_records", "connector.fetch_raw_records", None, None, None),
        (FixtureConnector, "fetch_archive_snapshot", "connector.fetch_archive_snapshot", None, None, None),
        (reproducer, "clone_at", "connector.clone_at", None, None, None),
        # merge_tree clones through the connector module's own binding
        (connector, "clone_at", "connector.clone_at", None, None, None),
        (reproducer, "merge_tree", "connector.merge_tree", None, None, None),
        (cli, "mine", "miner.mine", None, None, None),
        (cli, "filter_pairs", "pairfilter.filter_pairs", None, None, None),
        (cli, "stability_protocol", "reproducer.stability_protocol", None, None, lambda a: pair_id(a[0])),
        (reproducer, "revert_project", "reproducer.revert_project", lambda a: Path(a[3]).name, None, None),
        (ReproductionContext, "original_attributes", "reproducer.original_attributes",
         lambda a: a[1], None, None),
        (reproducer, "run_job", "reproducer.run_job", None, None, None),
        (LocalRuntime, "run_script", "runtime.run_script", None, lambda a, r: int(r.timed_out), None),
        (analyzer, "analyze", "analyzer.analyze", lambda a: len(a[0]), None, None),
        (analyzer, "extract_error_tags", "analyzer.extract_error_tags", None, None, None),
        (store, "compute_diff_metrics", "store.compute_diff_metrics", None, None, None),
        (ArtifactStore, "persist", "store.persist", _file_size, None, None),
        (ArtifactStore, "load", "store.load", None, lambda a, r: len(r), None),
        (ArtifactStore, "query", "store.query", None, None, None),
        (cli, "stats", "store.stats", None, None, None),
        (cli, "error_frequency_report", "store.stats", None, None, None),
        (JobPair, "to_dict", "model.codec", None, None, None),
        (JobPair, "from_dict", "model.codec", None, None, None),
        (FilterVerdict, "to_dict", "model.codec", None, None, None),
        # the CLI's FilterVerdict decoder; FilterVerdict has no from_dict of its own
        (cli, "_verdict_from_dict", "model.codec", None, None, None),
        (ArtifactMetadata, "to_dict", "model.codec", None, None, None),
        (ArtifactMetadata, "from_dict", "model.codec", None, None, None),
    ]


def install(rec: Recorder, only: set[str] | None = None):
    """Wrap the traced call sites (or just the span names in ``only``); returns the undo."""
    saved = []
    for owner, attr, name, before, after, pair_of in bindings():
        if only is not None and name not in only:
            continue
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(_wrap(rec, name, original.__func__, before, after, pair_of))
        else:
            wrapped = _wrap(rec, name, original, before, after, pair_of)
        setattr(owner, attr, wrapped)
        saved.append((owner, attr, original))

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo


# --- arithmetic -------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of it that its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    return [s[END] - s[START] - _covered(children.get(i, []), s[START], s[END])
            for i, s in enumerate(spans)]


def _outermost(spans: list[list], i: int) -> bool:
    name, parent = spans[i][NAME], spans[i][PARENT]
    while parent is not None:
        if spans[parent][NAME] == name:
            return False
        parent = spans[parent][PARENT]
    return True


def _under(spans: list[list], i: int, stage: str) -> bool:
    parent = spans[i][PARENT]
    while parent is not None:
        if spans[parent][NAME] == stage:
            return True
        parent = spans[parent][PARENT]
    return False


def summarize(spans: list[list]) -> dict[str, dict]:
    """name -> calls, busy (outermost spans only, so nesting is not counted twice), self, durations."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for i, s in enumerate(spans):
        d = out.setdefault(s[NAME], {"calls": 0, "busy": 0.0, "self": 0.0, "durations": [], "extra": []})
        dur = s[END] - s[START]
        d["calls"] += 1
        d["self"] += selfs[i]
        d["durations"].append(dur)
        if s[EXTRA] is not None:
            d["extra"].append(s[EXTRA])
        if _outermost(spans, i):
            d["busy"] += dur
    return out


def layer_metrics(spans: list[list], builds: int) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline pass over a corpus of ``builds`` builds."""
    s = summarize(spans)
    empty = {"calls": 0, "busy": 0.0, "self": 0.0, "durations": [], "extra": []}
    g = lambda name: s.get(name, empty)
    m: dict[str, float] = {}
    for stage in ("mine", "filter", "reproduce", "curate", "read"):
        m[f"stage.{stage}_s"] = float(g(f"stage.{stage}")["busy"])
    for name in ("commit_exists", "fetch_job_log", "fetch_raw_records", "clone_at", "merge_tree",
                 "fetch_archive_snapshot"):
        m[f"connector.{name}.calls"] = float(g(f"connector.{name}")["calls"])
    for name in ("commit_exists", "fetch_build_history", "fetch_job_log", "fetch_raw_records", "clone_at",
                 "fetch_archive_snapshot"):
        m[f"connector.{name}.busy_s"] = float(g(f"connector.{name}")["busy"])
    m["connector.merge_tree.self_s"] = float(g("connector.merge_tree")["self"])
    m["miner.mine.self_s"] = float(g("miner.mine")["self"])
    m["miner.probes_per_build"] = g("connector.commit_exists")["calls"] / builds
    m["pairfilter.filter_pairs.self_s"] = float(g("pairfilter.filter_pairs")["self"])

    # reproducer ratios count only the reproduce stage; curate rebuilds trees on its own
    revert = [i for i, sp in enumerate(spans) if sp[NAME] == "reproducer.revert_project"
              and _under(spans, i, "stage.reproduce")]
    # distinct (pair, side) trees; the side is the name of the tree's destination directory
    trees = {(spans[i][PAIR], spans[i][EXTRA]) for i in revert}
    m["reproducer.stability_protocol.calls"] = float(g("reproducer.stability_protocol")["calls"])
    m["reproducer.revert_project.calls"] = float(len(revert))
    m["reproducer.revert_project.busy_s"] = float(sum(spans[i][END] - spans[i][START] for i in revert))
    m["reproducer.tree_useful_ratio"] = len(trees) / len(revert) if revert else 0.0
    originals = g("reproducer.original_attributes")
    m["reproducer.original_parse_useful_ratio"] = (
        len({(spans[i][PAIR], spans[i][EXTRA]) for i, sp in enumerate(spans)
             if sp[NAME] == "reproducer.original_attributes"}) / originals["calls"]
        if originals["calls"] else 0.0)
    m["reproducer.run_job.busy_s"] = float(g("reproducer.run_job")["busy"])

    run = g("runtime.run_script")
    m["runtime.run_script.calls"] = float(run["calls"])
    m["runtime.run_script.busy_s"] = float(run["busy"])
    m["runtime.run_script.ms_p50"] = statistics.median(run["durations"]) * 1e3 if run["durations"] else 0.0
    m["runtime.run_script.timed_out"] = float(sum(run["extra"]))

    an = g("analyzer.analyze")
    nbytes = sum(an["extra"])
    m["analyzer.analyze.calls"] = float(an["calls"])
    m["analyzer.analyze.bytes"] = float(nbytes)
    m["analyzer.analyze.busy_s"] = float(an["busy"])
    m["analyzer.analyze.us_per_log"] = an["busy"] / an["calls"] * 1e6 if an["calls"] else 0.0
    m["analyzer.analyze.mb_s"] = nbytes / an["busy"] / 1e6 if an["busy"] else 0.0
    m["analyzer.extract_error_tags.busy_s"] = float(g("analyzer.extract_error_tags")["busy"])

    m["store.compute_diff_metrics.calls"] = float(g("store.compute_diff_metrics")["calls"])
    m["store.compute_diff_metrics.busy_s"] = float(g("store.compute_diff_metrics")["busy"])
    m["store.persist.calls"] = float(g("store.persist")["calls"])
    m["store.persist.busy_s"] = float(g("store.persist")["busy"])
    m["store.persist.bytes_scanned"] = float(sum(g("store.persist")["extra"]))
    m["store.load.calls"] = float(g("store.load")["calls"])
    m["store.load.busy_s"] = float(g("store.load")["busy"])
    m["store.load.records"] = float(sum(g("store.load")["extra"]))
    m["store.query.self_s"] = float(g("store.query")["self"])
    m["store.stats.busy_s"] = float(g("store.stats")["busy"])
    m["model.codec.busy_s"] = float(g("model.codec")["busy"])
    return m

