"""One golden run: the pipeline's outputs on both seed-901 bench corpora keep their bytes.

For each workload, ``bench/corpus.generate`` writes the corpus; then, in
one process and on ``LocalRuntime``, the CLI runs ``mine`` and ``filter``
for each project, ``reproduce --repeats 5`` over all verdicts, and the
read mix, with the mix's appends made on a copy of the corpus store. The
sha256 of every file the run writes (pairs, verdicts, records, each
attempt log, the store) and of each command's stdout and stderr is
compared with ``tests/golden/seed901.json``. The store's ``.idx`` sidecar
is left out: its stamp holds an inode.

A change that alters output on purpose rewrites the digests with
``PYTHONPATH=src python tests/test_golden.py`` and names each changed
output, and why, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import shutil
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from failpass import cli, store
from failpass.runtime import LocalRuntime
from conftest import git_verb, record_git_commands

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "seed901.json"
SEED = 901
WORKLOADS = ("repro", "curate")


def _bench_corpus():
    """``bench/corpus.py``, loaded by path so no bench module joins the import path."""
    name = "failpass_bench_corpus"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "corpus.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses looks its module up while the class is made
        spec.loader.exec_module(module)
    return sys.modules[name]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _reproduce_argv(corpus, work: Path, run) -> list[str]:
    """Run ``mine`` and ``filter`` for each project through ``run(label, argv)``; the argv of ``reproduce`` after them."""
    fx, cat = str(corpus.fixture), str(corpus.catalog)
    for k, (slug, lang) in enumerate(corpus.projects):
        run(f"mine-{k}", ["mine", slug, "--fixture", fx, "--language", lang,
                          "--out", str(work / f"pairs-{k}.jsonl")])
    for k, _ in enumerate(corpus.projects):
        run(f"filter-{k}", ["filter", "--pairs", str(work / f"pairs-{k}.jsonl"), "--catalog", cat,
                            "--fixture", fx, "--out", str(work / f"verdicts-{k}.jsonl")])
    verdicts = work / "verdicts.jsonl"
    verdicts.write_bytes(b"".join((work / f"verdicts-{k}.jsonl").read_bytes()
                                  for k, _ in enumerate(corpus.projects)))
    return ["reproduce", "--verdicts", str(verdicts), "--fixture", fx, "--repeats", "5", "--timeout-s", "120",
            "--out", str(work / "records.jsonl"), "--output-dir", str(work / "output")]


def run_workload(root: Path, workload: str) -> dict[str, str]:
    """Output name -> sha256 for one workload's golden run under ``root`` (which must not exist)."""
    corpus = _bench_corpus().generate(root / "corpus", workload, SEED)
    work = root / "work"
    work.mkdir()
    store_path = work / "store.jsonl"
    shutil.copyfile(corpus.store, store_path)
    digests: dict[str, str] = {}

    def run(label: str, argv: list[str]) -> None:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
        assert rc == 0, f"{label} exited {rc}: {err.getvalue()}"
        digests[f"{workload}/{label}.stdout"] = _sha(out.getvalue().encode())
        digests[f"{workload}/{label}.stderr"] = _sha(err.getvalue().encode())

    run("reproduce", _reproduce_argv(corpus, work, run))
    for i, op in enumerate(corpus.reads):
        if op[0] == "append":
            store.ArtifactStore(store_path).persist(store.ArtifactMetadata.from_dict(op[1]))
        elif op[0] == "query":
            run(f"read-{i:02d}", ["query", op[1], "--store", str(store_path)])
        elif op[0] == "stats":
            run(f"read-{i:02d}", ["stats", "--metric", op[1], "--store", str(store_path)])
        else:
            run(f"read-{i:02d}", ["stats", "--errors", op[1], "--store", str(store_path)])
    for path in sorted(work.rglob("*")):
        if path.is_file() and path.suffix != ".idx":
            digests[f"{workload}/{path.relative_to(work).as_posix()}"] = _sha(path.read_bytes())
    return digests


def run_all(root: Path) -> dict[str, str]:
    digests: dict[str, str] = {}
    for workload in WORKLOADS:
        digests.update(run_workload(root / workload, workload))
    return digests


def test_outputs_keep_their_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "default_runtime", LocalRuntime)
    seen = run_all(tmp_path)
    want = json.loads(GOLDEN.read_text())
    differ = sorted(name for name in set(seen) & set(want) if seen[name] != want[name])
    missing = sorted(set(want) - set(seen))
    extra = sorted(set(seen) - set(want))
    assert not (differ or missing or extra), (
        f"outputs that differ from {GOLDEN.name}: {differ}; missing: {missing}; not in it: {extra}")


def test_reproduce_starts_one_git_process_per_clone_reset_tree_and_three_per_phantom_merge(tmp_path, monkeypatch):
    """On the repro corpus, each of 6 clone-reset trees is one checkout and each of 2 phantom merges is a checkout,
    a show and a merge; no repository is cloned."""
    monkeypatch.setattr(cli, "default_runtime", LocalRuntime)
    corpus = _bench_corpus().generate(tmp_path / "corpus", "repro", SEED)
    work = tmp_path / "work"
    work.mkdir()
    with redirect_stderr(io.StringIO()):
        argv = _reproduce_argv(corpus, work, lambda label, argv: cli.main(argv))
        commands = record_git_commands(monkeypatch)
        cli.main(argv)
    assert Counter(map(git_verb, commands)) == {"checkout": 8, "show": 2, "merge": 2}


if __name__ == "__main__":
    import tempfile

    cli.default_runtime = LocalRuntime
    with tempfile.TemporaryDirectory(prefix="failpass-golden-") as tmp:
        digests = run_all(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
