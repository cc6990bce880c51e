"""The ``selftest`` task kind: executor plumbing probes for tests.

:func:`run_selftest` crashes, hangs, sleeps or echoes on command, so the
executor's fault paths run without paying for real experiments.  It is
not a product task: the ``selftest_task`` fixture (``tests/conftest.py``)
registers it in :data:`repro.runner.tasks.TASKS` for one test.  Worker
processes are forked, so they inherit the registration.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any, Optional

from repro.errors import ConfigurationError
from repro.runner.spec import RunSpec
from repro.runner.tasks import TaskRuntime


def run_selftest(
    spec: RunSpec, runtime: Optional[TaskRuntime] = None
) -> dict[str, Any]:
    """Controlled success/crash/hang behaviors for executor tests.

    Modes: ``echo`` returns ``value``; ``sleep`` sleeps ``sleep_s``
    while heartbeating (slow-but-alive: must *not* trip the hang
    watchdog); ``raise`` raises; ``crash`` hard-exits the worker;
    ``crash_once`` hard-exits only while the ``marker`` file is absent
    (creating it first), so a retry succeeds — the bounded-retry path
    in one spec; ``hang`` stops heartbeating and ignores SIGTERM (the
    watchdog's terminate→kill escalation target); ``hang_once`` hangs
    only while the ``marker`` file is absent, so a retry succeeds.
    ``stderr`` writes ``message`` to stderr before crashing (tail
    capture probe).
    """
    mode = spec.params.get("mode", "echo")
    value = spec.params.get("value")
    if mode == "sleep":
        deadline = time.monotonic() + float(spec.params.get("sleep_s", 0.1))
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                break
            time.sleep(min(0.05, left))
            if runtime is not None:
                runtime.beat()
    elif mode == "raise":
        raise RuntimeError(spec.params.get("message", "selftest failure"))
    elif mode == "crash":
        os._exit(int(spec.params.get("exit_code", 3)))
    elif mode == "stderr":
        # Straight to fd 2 (not sys.stderr, which test harnesses may
        # replace): the point is to exercise the executor's fd-level
        # stderr capture, like a dying C extension would.
        message = spec.params.get("message", "selftest stderr")
        os.write(2, (message + "\n").encode())
        os._exit(int(spec.params.get("exit_code", 3)))
    elif mode == "crash_once":
        marker = spec.params["marker"]
        if not os.path.exists(marker):
            with open(marker, "w", encoding="utf-8") as fp:
                fp.write("crashed\n")
            os._exit(int(spec.params.get("exit_code", 3)))
    elif mode in ("hang", "hang_once"):
        marker = spec.params.get("marker")
        if mode == "hang" or (marker and not os.path.exists(marker)):
            if marker:
                with open(marker, "w", encoding="utf-8") as fp:
                    fp.write("hung\n")
            # A real wedge: no heartbeats, and SIGTERM is ignored so
            # only the supervisor's kill escalation can clear it.
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            while True:
                time.sleep(0.1)
    elif mode != "echo":
        raise ConfigurationError(f"unknown selftest mode {mode!r}")
    return {"value": value, "report": f"selftest {mode}: {value}\n"}
