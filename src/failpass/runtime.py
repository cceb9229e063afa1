"""Execution backends for job scripts and artifact containers.

``DockerRuntime`` drives a container engine through its standard CLI;
``LocalRuntime`` runs the script as a sandboxed subprocess in the
worktree, which is what tests and docker-less hosts use. Both expose the
same surface, so the reproducer and the artifact tools are backend
agnostic.
"""

from __future__ import annotations

import os
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


class RuntimeUnavailable(Exception):
    """The configured execution backend cannot run jobs on this host."""


@dataclass(frozen=True)
class ExecResult:
    exit_status: int
    log_text: str
    wall_time: float
    timed_out: bool

    def __post_init__(self):
        if self.timed_out and self.exit_status != KILLED_EXIT_STATUS:
            raise ValueError("timed-out runs must carry the killed exit status")


def _run_with_timeout(argv: list[str], cwd: Path, env: dict, timeout_s: float) -> ExecResult:
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
    try:
        out, _ = proc.communicate(timeout=timeout_s)
        timed_out = False
        status = proc.returncode
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        out, _ = proc.communicate()
        timed_out = True
        status = KILLED_EXIT_STATUS
    return ExecResult(
        exit_status=status,
        log_text=(out or b"").decode("utf-8", errors="replace"),
        wall_time=time.monotonic() - start,
        timed_out=timed_out,
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

    A ``clone --shared`` lists the source's object store in
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


class DockerRuntime:
    """Shells out to the docker CLI.

    Construction probes the engine once with ``docker version``: a CLI whose
    daemon does not answer cannot run jobs, so it is reported unavailable.
    """

    def __init__(self):
        if shutil.which("docker") is None:
            raise RuntimeUnavailable("container engine not found: docker")
        try:
            probe = subprocess.run(["docker", "version"], capture_output=True, text=True,
                                   timeout=ENGINE_PROBE_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as exc:
            raise RuntimeUnavailable(f"container engine did not answer: {exc}") from exc
        if probe.returncode != 0:
            raise RuntimeUnavailable(
                f"container engine did not answer: {(probe.stderr or probe.stdout).strip()}")

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
        result = _run_with_timeout(argv, Path(worktree), dict(os.environ), timeout_s)
        if result.exit_status == ENGINE_ERROR_STATUS:
            # an engine failure says nothing about the pair; never let it become a verdict
            raise RuntimeUnavailable(f"container engine failed: {result.log_text.strip()}")
        return result

    def fetch_image(self, image: str) -> None:
        subprocess.run(["docker", "pull", image], check=True)

    def shell(self, image: str, label: str) -> int:
        proc = subprocess.run(
            ["docker", "run", "-it", "--label", f"failpass-artifact={label}", image, "/bin/bash"],
        )
        return proc.returncode

    def cleanup(self, label: str, purge: bool = False) -> None:
        ids = subprocess.run(
            ["docker", "ps", "-aq", "--filter", f"label=failpass-artifact={label}"],
            capture_output=True, text=True, check=True,
        ).stdout.split()
        if ids:
            subprocess.run(["docker", "rm", "-f", *ids], check=True)
        if purge:
            subprocess.run(["docker", "rmi", "-f", label], check=False)


def default_runtime():
    try:
        return DockerRuntime()
    except RuntimeUnavailable:
        return LocalRuntime()
