"""Drive the real ``python -m repro`` CLI from tests, always bounded.

Every CLI subprocess a test spawns goes through :func:`run_cli`, which
always applies a wall-clock timeout: a child that hangs (or a process
that keeps the output pipes open after the CLI exits) fails the test
with ``TimeoutExpired`` instead of stalling the whole suite.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.runtime.chaos import HANG_ENV, KILL_ENV

SRC = Path(__file__).resolve().parents[1] / "src"

#: seconds one CLI invocation may take before the test fails
CLI_TIMEOUT = 180.0


def cli_env(chaos=None):
    """The CLI's environment: this checkout's sources on the path, chaos
    hooks off unless ``chaos`` sets them."""
    env = {k: v for k, v in os.environ.items()
           if k not in (KILL_ENV, HANG_ENV)}
    env["PYTHONPATH"] = str(SRC)
    env.update(chaos or {})
    return env


def cli_command(args):
    return [sys.executable, "-m", "repro", *map(str, args)]


def run_cli(args, chaos=None, *, timeout=CLI_TIMEOUT):
    """Run the CLI to completion within ``timeout`` seconds."""
    if timeout is None or timeout <= 0:
        raise ValueError("run_cli needs a positive timeout")
    return subprocess.run(cli_command(args), capture_output=True, text=True,
                          env=cli_env(chaos), timeout=timeout)
