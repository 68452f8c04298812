"""The queue workload's worker: ``repro.dist.worker.worker_loop`` under the
benchmark's control.

    python3 perfbench/worker.py STORE_URL [--trace-out FILE]

Prints ``polling`` once the loop is about to poll the queue, runs until
SIGTERM (or until its parent process is gone), then prints its
``{"done": .., "failed": .., "max_rss_kib": ..}`` counts and its own
peak resident memory as the last line.  Without ``--trace-out`` it
calls ``worker_loop`` with no wrapper installed; with it, the same wrappers as the benchmark process
are installed and the worker's top-level spans and events are written
to FILE on exit, for the benchmark to merge.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal

from workloads import WORKER_POLL_S, import_program


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("store_url")
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    import_program()
    from repro.dist.worker import worker_loop

    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    parent = os.getppid()
    announced = []

    def log(message: str) -> None:
        # worker_loop's first message comes right before its poll loop
        if not announced:
            announced.append(message)
            print("polling", flush=True)

    try:
        counts = worker_loop(
            args.store_url,
            poll_s=WORKER_POLL_S,
            # a benchmark process that died without stopping us orphans us
            stop=lambda: bool(stopping) or os.getppid() != parent,
            log=log,
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
            with open(args.trace_out, "w") as handle:
                json.dump({"records": tracer.records, "events": tracer.events}, handle)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({**counts, "max_rss_kib": peak}), flush=True)


if __name__ == "__main__":
    main()
