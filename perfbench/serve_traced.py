"""Start ``repro serve`` with the span wrappers installed, for the traced run.

Usage::

    PYTHONPATH=src python3 perfbench/serve_traced.py TRACE.json [repro serve flags...]

It runs the same ``repro serve`` command path (``ServiceApp`` behind
``make_server``) after installing the wrappers.  SIGUSR1 drops every span
recorded so far (the load generator sends it after its warm-up jobs).
On shutdown (SIGINT) the span summary is written to TRACE.json.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
from pathlib import Path


def main() -> int:
    out = Path(sys.argv[1])
    t0 = time.perf_counter()
    import repro  # noqa: F401 - timed: this is setup.import_s

    import_s = time.perf_counter() - t0
    import tracing
    from repro.cli import main as repro_main

    recorder = tracing.install()
    # Reset on a fresh thread: the handler runs on the main thread, which
    # must not wait for a lock it might itself hold.
    signal.signal(
        signal.SIGUSR1, lambda *_: threading.Thread(target=recorder.reset).start()
    )
    try:
        return repro_main(["serve", *sys.argv[2:]])
    finally:
        recorder.enabled = False
        out.write_text(
            json.dumps(
                {
                    "import_s": import_s,
                    "summary": recorder.summary(),
                    "counters": recorder.counters,
                    "absent": recorder.absent,
                }
            )
        )


if __name__ == "__main__":
    sys.exit(main())
