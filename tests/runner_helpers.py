"""A stub pipeline and an instantaneous policy for the analysis-runner
tests (``tests/runtime/test_supervisor.py``,
``tests/parallel/test_scheduler.py``)."""

import os
import signal
import time

from repro.errors import AnalysisError
from repro.runtime.supervisor import SupervisorPolicy


class StubPipeline:
    """Just enough surface for the runner: analysis methods,
    ``degraded_inputs``, and (absent) corpora."""

    degraded_inputs = False

    def ok_fast(self):
        return {"answer": 42}

    def ok_other(self):
        return [1.5, 2.5]

    def slow_ok(self):
        time.sleep(0.3)
        return "slow"

    def in_process(self):
        return os.getpid()

    def typed_failure(self):
        raise AnalysisError("insufficient data")

    def buggy(self):
        raise RuntimeError("a programming error")

    def transient(self):
        raise OSError("transient I/O failure")

    def flaky(self):
        raise OSError("another transient I/O failure")

    def hangs(self):
        time.sleep(60)
        return "never"

    def dies(self):
        os.kill(os.getpid(), signal.SIGKILL)

    def big_value(self):
        # larger than a pipe buffer: the parent must drain the pipe
        # before joining or the child blocks in send() forever
        return list(range(200_000))


def no_sleep_policy(**kwargs):
    """A policy whose backoff sleeps are recorded instead of waited."""
    slept = []
    policy = SupervisorPolicy(sleep=slept.append, **kwargs)
    return policy, slept
