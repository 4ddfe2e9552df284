"""Closed-loop client for the ``repro`` CLI, plus the host record.

One client runs one command at a time and starts the next only after the
previous one has exited.  Each command's peak RSS comes from
``os.wait4`` on that child alone: ``RUSAGE_CHILDREN`` keeps the maximum
over every child ever waited for, so it can only rise across steps.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional


@dataclass
class CommandResult:
    """One finished CLI command."""

    step: str
    argv: List[str]
    returncode: int
    seconds: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool = False

    def json(self) -> Optional[dict]:
        """The command's ``--json`` document, or None if unparsable."""
        try:
            return json.loads(self.stdout)
        except ValueError:
            return None


@dataclass
class Client:
    """Runs ``python -m repro`` commands against one checkout."""

    root: Path
    workdir: Path
    deadline: float
    log: List[CommandResult] = field(default_factory=list)

    def env(self) -> dict:
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        tmp = self.workdir / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(tmp)
        return env

    def python(self, step: str, argv: List[str]) -> CommandResult:
        """Run ``python3 <argv>`` to completion, timed, in its own session."""
        out_path = self.workdir / "cmd.stdout"
        err_path = self.workdir / "cmd.stderr"
        timeout = max(1.0, self.deadline - time.monotonic())
        full = [sys.executable, *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(full, stdout=out, stderr=err,
                                    cwd=self.root, env=self.env(),
                                    start_new_session=True)
            expired = threading.Event()

            def expire() -> None:
                expired.set()
                _kill_group(proc.pid)

            killer = threading.Timer(timeout, expire)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # interrupted (SIGTERM, Ctrl-C): take the command down too
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                killer.cancel()
            seconds = time.perf_counter() - started
            # wait4 reaped the child; tell Popen so it does not wait again
            proc.returncode = os.waitstatus_to_exitcode(status)
            # no worker of the command may outlive it
            _kill_group(proc.pid)
        result = CommandResult(
            step=step, argv=full, returncode=proc.returncode,
            seconds=seconds, peak_rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_text(errors="replace"),
            stderr=err_path.read_text(errors="replace"),
            timed_out=expired.is_set())
        self.log.append(result)
        return result

    def repro(self, step: str, *args: str) -> CommandResult:
        return self.python(step, ["-m", "repro", *args])


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


IMPORT_PROBE = ("import time, sys; t0 = time.perf_counter(); "
                "import repro.cli; "
                "sys.stdout.write(repr(time.perf_counter() - t0))")


def tree_bytes(path: Path) -> int:
    """Apparent size of every regular file under ``path``."""
    if not path.exists():
        return 0
    if path.is_file():
        return path.stat().st_size
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            try:
                total += os.lstat(os.path.join(dirpath, name)).st_size
            except FileNotFoundError:
                pass
    return total


# -- host record ---------------------------------------------------------

#: iterations of the calibration spin (0.12-0.26 s of pure Python on a
#: shared 2-CPU x86 VM); timed before and after each workload so machine
#: drift shows beside the numbers
CALIBRATION_LOOPS = 1_500_000


def calibration_spin() -> float:
    started = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - started


def host_record(root: Path) -> dict:
    """nproc, load, interpreter and library versions, source revision."""
    numpy_version = None
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        pass
    git_rev = None
    try:
        from repro.telemetry import git_revision

        git_rev = git_revision()
    except ImportError:
        pass
    # an exported source tree has no git revision, so also record a digest
    # of the sources the run measured
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest()[:16],
        "platform": platform.platform(),
    }
