"""The serving daemon with spans: ``repro serve`` rebuilt from its parts.

Usage::

    PYTHONPATH=src python3 perfbench/traced_daemon.py --store SNAPSHOT
        --save-store DIR --out TRACE.json

Opens the snapshot as a :class:`Session` subclass that times
``handle_batch`` and records batch sizes, hands it to an in-process
:class:`BasisServer`, and wraps the daemon module's codec and framing
functions, the stores' probe path and the compute backend.  It prints
the same ``SERVE_READY`` line as ``repro serve``, drains on SIGTERM, and
writes the span totals to ``--out`` on exit.

Spans here use thread CPU time: reader threads block in ``recv`` and
threads wait for the interpreter lock, and neither is work.  The
accounting base is the daemon's process CPU time from the first decoded
request to the last encoded response.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--save-store", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import repro.serve.daemon as daemon
    from repro.api import Session
    from repro.serve import BasisServer

    from spans import Tracer, trace_backend, trace_estimator, trace_store

    tracer = Tracer(clock=time.thread_time)
    batch_sizes: Counter = Counter()
    window = {"first": None, "last": None}

    class TracedSession(Session):
        traced_handle_batch = tracer.wrap(
            "api.handle_batch", Session.handle_batch
        )

        def handle_batch(self, requests):
            requests = list(requests)
            batch_sizes[len(requests)] += 1
            return self.traced_handle_batch(requests)

    opened = time.perf_counter()
    session = TracedSession.open(args.store, mmap=True)
    open_seconds = time.perf_counter() - opened
    for store in session.stores.values():
        trace_store(tracer, store)
        trace_estimator(tracer, store.estimator)
    trace_backend(tracer)

    decode = tracer.wrap("api.decode", daemon.decode_request)
    encode = tracer.wrap("api.encode", daemon.encode_response)

    def decode_request(body):
        if window["first"] is None:
            window["first"] = time.process_time()
        return decode(body)

    def encode_response(response):
        body = encode(response)
        window["last"] = time.process_time()
        return body

    daemon.decode_request = decode_request
    daemon.encode_response = encode_response
    tracer.patch(daemon, "recv_frame", "serve.frame")
    tracer.patch(daemon, "send_frame", "serve.frame")

    server = BasisServer(session, save_path=args.save_store).start()
    server.install_signal_handlers()
    host, port = server.address
    print(
        f"SERVE_READY host={host} port={port} "
        f"bases={session.basis_count()}",
        flush=True,
    )
    code = server.serve_forever(install_signals=False)
    counters = {}
    for store in session.stores.values():
        for key, value in store.stats.as_dict().items():
            counters[key] = counters.get(key, 0) + value
    document = {
        "spans": tracer.snapshot(),
        "batch_sizes": dict(batch_sizes),
        "open_s": open_seconds,
        "cpu_window_s": (window["last"] or 0.0) - (window["first"] or 0.0),
        "store_counters": counters,
    }
    with open(args.out, "w") as handle:
        json.dump(document, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
