"""The benchmark's server process: the default-config endpoint, on its own.

Started by ``run.py`` as ``python perfbench/server.py --transport tcp``
with ``PYTHONPATH`` pointing at the repository's ``src``. It binds the
benchmark services, serves them with ``NRMIConfig(transport=...)`` and
otherwise default settings, prints its address on one line, and serves
until SIGTERM or SIGINT.

With ``--trace-out FILE`` it records spans at the server-side layer
boundaries and, after the endpoint has closed, writes them to FILE
together with the endpoint's metrics and the codegen counters.
"""

from __future__ import annotations

import argparse
import json
import signal
import tempfile
import threading
from typing import Any, List, Optional

from repro.nrmi.config import NRMIConfig
from repro.nrmi.runtime import Endpoint
from repro.serde.codegen import codegen_metrics

from services import SERVICES
from spans import Tracer, install_server, install_service

REMOTE_METHODS = {"trees": ("mutate_structure",), "echo": ("echo",)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--transport", choices=["tcp", "uds", "shm"], default="tcp")
    parser.add_argument("--services", choices=sorted(SERVICES), default="clean")
    parser.add_argument("--tmpdir", default=None,
                        help="directory for rendezvous sockets (relative paths allowed)")
    parser.add_argument("--trace-out", default=None, metavar="FILE")
    args = parser.parse_args(argv)
    if args.tmpdir:
        # Set directly so a relative path stays relative: unix socket
        # paths are capped at ~108 bytes.
        tempfile.tempdir = args.tmpdir

    tracer = Tracer() if args.trace_out else None
    if tracer is not None:
        install_server(tracer)
    endpoint = Endpoint(name="perfbench-server", config=NRMIConfig(transport=args.transport))
    stop = threading.Event()

    def shutdown(_signum: int, _frame: Any) -> None:
        stop.set()

    signal.signal(signal.SIGINT, shutdown)
    signal.signal(signal.SIGTERM, shutdown)
    try:
        for name, cls in SERVICES[args.services].items():
            service = cls()
            if tracer is not None:
                install_service(tracer, service, REMOTE_METHODS[name])
            endpoint.bind(name, service)
        print(endpoint.serve_remote(), flush=True)
        stop.wait()
    finally:
        endpoint.close()
    if tracer is not None:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": tracer.spans,
                    "metrics": endpoint.metrics.snapshot(),
                    "codegen": codegen_metrics.snapshot(),
                },
                handle,
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
