"""Execution backends for job scripts and artifact containers.

``DockerRuntime`` drives a container engine through its standard CLI;
``LocalRuntime`` runs the script as a sandboxed subprocess in the
worktree, which is what tests and docker-less hosts use. Both expose the
same surface, so the reproducer and the artifact tools are backend
agnostic.
"""

from __future__ import annotations

import os
import selectors
import shutil
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

SCRATCH_ENV = "FAILPASS_SCRATCH"
KILLED_EXIT_STATUS = -9
# docker's own exit status when the daemon or `docker run` itself failed
ENGINE_ERROR_STATUS = 125
ENGINE_PROBE_TIMEOUT_S = 10.0
# how long output is still read once a job's process group is killed; only a
# process that left the group can hold the pipe open that long
DRAIN_TIMEOUT_S = 1.0


class RuntimeUnavailable(Exception):
    """The configured execution backend cannot run jobs on this host, or one of its commands failed."""


@dataclass(frozen=True)
class ExecResult:
    exit_status: int
    log_text: str
    wall_time: float
    timed_out: bool

    def __post_init__(self):
        if self.timed_out and self.exit_status != KILLED_EXIT_STATUS:
            raise ValueError("timed-out runs must carry the killed exit status")


def _read_output(sel: selectors.BaseSelector, out, chunks: list[bytes], deadline: float) -> bool:
    """Append what ``out`` yields to ``chunks`` until another registered fd turns readable.

    Returns True then, or once nothing is left registered (``out`` is
    unregistered at EOF); False when ``deadline`` passes first.
    """
    while sel.get_map():
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return False
        for key, _ in sel.select(remaining):
            if key.fileobj is not out:
                return True
            data = os.read(out.fileno(), 1 << 16)  # a pipe's default capacity
            if data:
                chunks.append(data)
            else:
                sel.unregister(out)
    return True


def _run_with_timeout(argv: list[str], cwd: Optional[Path], env: Optional[dict],
                      timeout_s: float) -> ExecResult:
    """Run ``argv`` in a new session until its leader exits or ``timeout_s`` passes.

    One selector waits on the output pipe and on a pidfd of the leader, so
    the run ends when the leader exits, not when the pipe closes, and
    nothing polls. Then what is left of the leader's process group is
    killed: the leader is not yet reaped and still holds the group id, so
    the kill reaches no reused pid. The pipe is drained to EOF, for at most
    ``DRAIN_TIMEOUT_S``, and the leader reaped. A run past the deadline is
    killed the same way and keeps the output read so far.
    """
    start = time.monotonic()
    proc = subprocess.Popen(
        argv,
        cwd=cwd,
        env=env,
        stdin=subprocess.DEVNULL,  # a CI job has no input; never hand it failpass's own
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        start_new_session=True,
    )
    chunks: list[bytes] = []
    with proc, selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                sel.register(pidfd, selectors.EVENT_READ)
                exited = _read_output(sel, proc.stdout, chunks, start + timeout_s)
                sel.unregister(pidfd)
            finally:
                os.close(pidfd)
        finally:
            # the unreaped leader holds the group id, so the group exists and is the job's
            os.killpg(proc.pid, signal.SIGKILL)
        _read_output(sel, proc.stdout, chunks, time.monotonic() + DRAIN_TIMEOUT_S)
    return ExecResult(
        exit_status=proc.returncode if exited else KILLED_EXIT_STATUS,
        log_text=b"".join(chunks).decode("utf-8", errors="replace"),
        wall_time=time.monotonic() - start,
        timed_out=not exited,
    )


class LocalRuntime:
    """Runs job scripts directly in the worktree with a scrubbed environment."""

    _KEEP_ENV = ("PATH", "HOME", "LANG", "TMPDIR")

    def run_script(self, image: str, worktree: Path, script: str, timeout_s: float,
                   env: Optional[dict[str, str]] = None) -> ExecResult:
        run_env = {k: os.environ[k] for k in self._KEEP_ENV if k in os.environ}
        run_env.update(env or {})
        return _run_with_timeout(["/bin/sh", "-c", script], Path(worktree), run_env, timeout_s)

    # artifact tooling: local backend treats images as no-ops
    def fetch_image(self, image: str) -> None:
        pass

    def shell(self, image: str, label: str) -> int:
        raise RuntimeUnavailable("interactive shells require a container engine")

    def cleanup(self, label: str, purge: bool = False) -> None:
        pass


def _borrowed_object_dirs(worktree: Path) -> list[tuple[str, str]]:
    """(host path, path in the container) of each object store the worktree's git borrows from.

    A tree that ``clone_at`` built lists the source's object store in
    ``.git/objects/info/alternates``, and that store may list further ones.
    A relative entry is relative to the store whose alternates file lists
    it. On the host that gives the directory to mount; in the container,
    where the worktree's own store is ``/build/.git/objects``, it gives the
    path git looks the store up at.
    """
    worktree = Path(worktree).resolve()
    pending = [(worktree / ".git" / "objects", "/build/.git/objects")]
    seen: set[Path] = set()
    dirs = []
    while pending:
        host_base, inside_base = pending.pop(0)
        try:
            lines = (host_base / "info" / "alternates").read_text().splitlines()
        except OSError:
            continue
        for entry in (line.strip() for line in lines):
            if not entry or entry.startswith("#"):
                continue
            host = (host_base / entry).resolve()
            if host in seen or not host.is_dir():
                continue
            seen.add(host)
            inside = os.path.normpath(os.path.join(inside_base, entry))
            dirs.append((str(host), inside))
            pending.append((host, inside))
    return dirs


def _docker(*args: str) -> str:
    """The stdout of one docker command; RuntimeUnavailable with docker's own message when it fails."""
    proc = subprocess.run(["docker", *args], capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeUnavailable(f"docker {args[0]} failed: {proc.stderr.strip() or f'exit status {proc.returncode}'}")
    return proc.stdout


class DockerRuntime:
    """Shells out to the docker CLI.

    Construction probes the engine once with ``docker version``: a CLI whose
    daemon does not answer cannot run jobs, so it is reported unavailable.
    """

    def __init__(self):
        if shutil.which("docker") is None:
            raise RuntimeUnavailable("container engine not found: docker")
        try:
            probe = _run_with_timeout(["docker", "version"], None, None, ENGINE_PROBE_TIMEOUT_S)
        except OSError as exc:
            raise RuntimeUnavailable(f"container engine did not answer: {exc}") from exc
        if probe.timed_out:
            raise RuntimeUnavailable(f"container engine did not answer within {ENGINE_PROBE_TIMEOUT_S} s")
        if probe.exit_status != 0:
            raise RuntimeUnavailable(f"container engine did not answer: {probe.log_text.strip()}")

    def run_script(self, image: str, worktree: Path, script: str, timeout_s: float,
                   env: Optional[dict[str, str]] = None) -> ExecResult:
        argv = ["docker", "run", "--rm", "--label", "failpass=job",
                "-v", f"{Path(worktree).resolve()}:/build", "-w", "/build"]
        for host, inside in _borrowed_object_dirs(worktree):
            argv += ["-v", f"{host}:{inside}:ro"]
        scratch = (env or {}).get(SCRATCH_ENV)
        if scratch:  # the job finds it at the path the variable names
            argv += ["-v", f"{scratch}:{scratch}"]
        for key, value in (env or {}).items():
            argv += ["-e", f"{key}={value}"]
        argv += [image, "/bin/sh", "-c", script]
        result = _run_with_timeout(argv, Path(worktree), None, timeout_s)
        if result.exit_status == ENGINE_ERROR_STATUS:
            # an engine failure says nothing about the pair; never let it become a verdict
            raise RuntimeUnavailable(f"container engine failed: {result.log_text.strip()}")
        return result

    def fetch_image(self, image: str) -> None:
        _docker("pull", image)

    def shell(self, image: str, label: str) -> int:
        proc = subprocess.run(
            ["docker", "run", "-it", "--label", f"failpass-artifact={label}", image, "/bin/bash"],
        )
        return proc.returncode

    def cleanup(self, label: str, purge: bool = False) -> None:
        ids = _docker("ps", "-aq", "--filter", f"label=failpass-artifact={label}").split()
        if ids:
            _docker("rm", "-f", *ids)
        if purge:
            subprocess.run(["docker", "rmi", "-f", label], check=False)


def default_runtime():
    try:
        return DockerRuntime()
    except RuntimeUnavailable:
        return LocalRuntime()
