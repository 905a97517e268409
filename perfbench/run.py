"""Cross-process NRMI benchmark: one server process, one load process.

Run from the repository root::

    python3 perfbench/run.py --workload tree_restore --seed 1 --seconds 10 --trace 0

The server (``perfbench/server.py``) runs in its own process on
``NRMIConfig(transport=...)`` with every other setting at its default;
this process drives it with the workload's caller threads (at most two)
in a closed loop and checks every reply against the workload's oracle.

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1``
runs the workload twice, untraced and then traced, and reports per-layer
metrics from spans recorded at the library's layer boundaries in both
processes, plus the tracing overhead. Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Print at most this many failures verbatim.
SHOWN_FAILURES = 5
#: No call starts later than this after the benchmark started, so a wedged
#: server cannot keep the run going past its time limit.
HARD_DEADLINE_S = 120.0
#: A server that has not printed its address by then has failed to start.
START_TIMEOUT_S = 60.0
#: Servers spawned per untraced run after the cold one; set-up time is
#: their median.
SETUPS = 11
#: The client layer spans (prepare, request, complete) must cover at least
#: this share of the traced call time, or the traced run fails.
MIN_COVERAGE = 0.9
#: Untimed rounds between set-up and measurement, so caches fill first.
WARMUP_ROUNDS = 2
CLK_TCK = os.sysconf("SC_CLK_TCK")


# ------------------------------------------------------------ /proc readers


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU of process *pid* (all its threads)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def proc_status(pid: int, key: str) -> int:
    """An integer field of ``/proc/<pid>/status`` (``VmHWM`` is in kB).

    0 when the process has exited: a dead server has no memory or threads.
    """
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except FileNotFoundError:
        pass
    return 0


def cpu_ticks() -> Tuple[int, int]:
    """(steal, total) jiffies of the whole machine from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as handle:
        values = [int(value) for value in handle.readline().split()[1:]]
    return values[7], sum(values[:8])


def calibration_seconds() -> float:
    """A fixed pure-Python loop: compares this box's speed between runs."""
    start = time.perf_counter()
    total = 0
    for value in range(1_000_000):
        total += value * value % 7
    return time.perf_counter() - start


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


# ----------------------------------------------------------------- processes


class ServerProcess:
    """The benchmark server in its own interpreter."""

    def __init__(
        self, workload: Any, run_dir: Path, tag: str, services: str,
        trace_out: Optional[Path] = None,
    ) -> None:
        self.log_path = run_dir / f"server-{tag}.log"
        command = [
            sys.executable, str(BENCH_DIR / "server.py"),
            "--transport", workload.transport,
            "--services", services,
            "--tmpdir", os.path.relpath(run_dir, ROOT),
        ]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log,
                text=True,
            )
        self.pid = self.process.pid
        ready, _, _ = select.select([self.process.stdout], [], [], START_TIMEOUT_S)
        self.address = self.process.stdout.readline().strip() if ready else ""
        if not self.address:
            self.stop()
            raise RuntimeError(f"server did not start:\n{self.log_tail()}")

    def cpu_seconds(self) -> float:
        return proc_cpu_seconds(self.pid)

    def log_tail(self, lines: int = 20) -> str:
        text = self.log_path.read_text(encoding="utf-8", errors="replace")
        return "\n".join(text.splitlines()[-lines:])

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Client:
    """A default-config client endpoint holding one stub to the service."""

    def __init__(self, address: str, workload: Any) -> None:
        from repro.nrmi.runtime import Endpoint
        from repro.transport.resolver import ChannelResolver

        self.resolver = ChannelResolver()
        self.endpoint = Endpoint(name="perfbench-client", resolver=self.resolver)
        self.method = getattr(self.endpoint.lookup(address, workload.service), workload.method)
        self.channel = self.endpoint.channel_to(address)

    def close(self) -> None:
        self.endpoint.close()
        self.resolver.close_all()


# ------------------------------------------------------------------ the loop


class Tally:
    """Outcomes of every attempted call, and the timed rounds' totals."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.latencies_ns: List[int] = []
        self.timed_ns = 0
        self.completed = 0
        self.server_cpu_s = 0.0
        self.client_cpu_s = 0.0

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < SHOWN_FAILURES:
            self.failures.append(reason)

    def absorb(self, other: "Tally") -> None:
        """Count *other*'s attempts and failures as this tally's too."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures = (other.failures + self.failures)[:SHOWN_FAILURES]


class Runner:
    """Drives one server with the workload's callers, round by round.

    A round generates every caller's inputs, runs the callers' closed loops
    (the timed part), then checks each reply. Each caller's inputs carry a
    running index, so the seed alone fixes the sequence of inputs.
    """

    def __init__(self, workload: Any, seed: int, started: float) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = started + HARD_DEADLINE_S
        self.next_index = [0] * workload.callers

    @property
    def out_of_time(self) -> bool:
        return time.monotonic() > self.deadline

    def _inputs(self, caller: int, count: int) -> List[Any]:
        start = self.next_index[caller]
        self.next_index[caller] = start + count
        return [self.workload.make_input(self.seed, caller, i) for i in range(start, start + count)]

    def first_call(self, client: Client, tally: Tally) -> bool:
        """Call with input 0 of caller 0; True when the reply verifies."""
        self.next_index = [0] * self.workload.callers
        inputs = self._inputs(0, 1)
        outcomes: List[Any] = [None]
        self._caller(client.method, inputs, outcomes, None)
        return self._check(inputs, outcomes, tally, timed=False) == 1

    def round(
        self, client: Client, server: ServerProcess, tally: Tally, calls: int,
        timed: bool, tracer: Any = None,
    ) -> None:
        callers = self.workload.callers
        inputs = [self._inputs(caller, calls) for caller in range(callers)]
        outcomes = [[None] * calls for _ in range(callers)]
        threads = [
            threading.Thread(
                target=self._caller, args=(client.method, inputs[c], outcomes[c], tracer),
                name=f"perfbench-caller-{c}", daemon=True,
            )
            for c in range(callers)
        ]
        # Collect the garbage input generation and the oracle left behind,
        # so that the collections inside timed calls are the ones the calls'
        # own allocations trigger, the same in every run.
        gc.collect()
        server_cpu = server.cpu_seconds()
        client_cpu = time.process_time()
        start = time.perf_counter_ns()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter_ns() - start
        for caller in range(callers):
            self._check(inputs[caller], outcomes[caller], tally, timed)
        if timed:
            tally.timed_ns += elapsed
            tally.client_cpu_s += time.process_time() - client_cpu
            tally.server_cpu_s += server.cpu_seconds() - server_cpu

    def _caller(self, method: Any, inputs: List[Any], outcomes: List[Any], tracer: Any) -> None:
        clock = time.perf_counter_ns
        for index, call in enumerate(inputs):
            if self.out_of_time:
                outcomes[index] = ("skipped", None, 0)
                continue
            start = clock()
            try:
                if tracer is None:
                    result = method(*call.args)
                else:
                    with tracer.span("nrmi.call"):
                        result = method(*call.args)
            except Exception as exc:  # noqa: BLE001 - every failure is tallied
                outcomes[index] = ("error", f"{type(exc).__name__}: {exc}", 0)
                continue
            outcomes[index] = ("ok", result, clock() - start)

    def _check(self, inputs: List[Any], outcomes: List[Any], tally: Tally, timed: bool) -> int:
        """Tally each outcome; returns how many replies verified."""
        verified = 0
        for call, (status, value, latency) in zip(inputs, outcomes):
            if status == "skipped":
                continue
            tally.attempted += 1
            if status == "error":
                tally.fail(value)
                continue
            if timed:
                tally.completed += 1
            problem = self.workload.check(call, value)
            if problem is not None:
                tally.fail(f"oracle mismatch: {problem}")
                continue
            verified += 1
            if timed:
                tally.latencies_ns.append(latency)
        return verified


class Session:
    """One measured server: its set-ups, calls and readings."""

    def __init__(self) -> None:
        #: Set-up times after the first: the first spawn also pays the load
        #: process's own first-call codegen and cold file caches.
        self.setups: List[float] = []
        self.tally = Tally()
        self.wire: Dict[str, int] = {}
        self.client_counters: Dict[str, int] = {}
        self.peak_kb = 0
        self.threads = 0


def run_session(
    runner: Runner, run_dir: Path, args: argparse.Namespace, setups: int, seconds: float,
    tracer: Any = None, trace_out: Optional[Path] = None,
) -> Session:
    """Set up 1 + *setups* times, then warm up and measure on the last server.

    Set-up runs from spawning the server process to the first verified
    reply: interpreter start, imports, serve, handshake, first-call codegen.
    The timed rounds run until they add up to *seconds*, and at least one
    round runs (``--quick`` sets *seconds* to 0: one round per caller).
    """
    workload = runner.workload
    session = Session()
    tally = session.tally
    warmup = Tally()
    server = client = None
    try:
        for number in range(1 + setups):
            if server is not None:
                client.close()
                server.stop()
                server = client = None
            start = time.perf_counter()
            tag = f"{'traced' if tracer else 'plain'}-{number}"
            server = ServerProcess(workload, run_dir, tag, args.services, trace_out)
            try:
                client = Client(server.address, workload)
                verified = runner.first_call(client, warmup)
            except Exception as exc:  # noqa: BLE001 - reported as a failed set-up
                raise RuntimeError(f"set-up {number} failed: {type(exc).__name__}: {exc}") from exc
            if not verified:
                raise RuntimeError(f"set-up {number} failed: {warmup.failures[-1]}")
            if number:
                session.setups.append(time.perf_counter() - start)
        for _ in range(WARMUP_ROUNDS):
            runner.round(client, server, warmup, workload.round_calls, timed=False)
        before = client.channel.stats.snapshot()
        counters_before = client.endpoint.metrics.snapshot()
        if tracer is not None:
            from spans import install_client

            install_client(tracer)
        try:
            while not runner.out_of_time:
                runner.round(client, server, tally, workload.round_calls, timed=True,
                             tracer=tracer)
                if tally.timed_ns >= seconds * 1e9:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
        after = client.channel.stats.snapshot()
        counters_after = client.endpoint.metrics.snapshot()
        session.wire = {key: after[key] - before[key] for key in after}
        session.client_counters = {
            key: counters_after.get(key, 0) - counters_before.get(key, 0) for key in counters_after
        }
        session.peak_kb = proc_status(server.pid, "VmHWM")
        session.threads = proc_status(server.pid, "Threads")
    finally:
        tally.absorb(warmup)
        if client is not None:
            client.close()
        if server is not None:
            server.stop()
            if tally.failed:
                print("server log tail:\n" + server.log_tail())
    return session


# ------------------------------------------------------------------ metrics


def percentile(sorted_values: List[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    index = min(len(sorted_values) - 1, int(share * len(sorted_values)))
    return sorted_values[index]


def latency_us(tally: Tally) -> List[float]:
    return sorted(value / 1e3 for value in tally.latencies_ns)


Metrics = Dict[str, Tuple[float, str, int]]


def end_to_end(session: Session) -> Metrics:
    """The end-to-end metrics as name -> (value, unit, samples)."""
    tally, wire = session.tally, session.wire
    latencies = latency_us(tally)
    verified = len(latencies)
    completed = max(tally.completed, 1)
    requests = max(wire["requests"], 1)
    return {
        "calls_per_s": (verified / (tally.timed_ns / 1e9), "1/s", verified),
        "latency_p50_us": (percentile(latencies, 0.50), "us", verified),
        "latency_p90_us": (percentile(latencies, 0.90), "us", verified),
        "verified_share": ((tally.attempted - tally.failed) / tally.attempted, "share",
                           tally.attempted),
        "server_cpu_us_per_call": (tally.server_cpu_s * 1e6 / completed, "us", completed),
        "wire_bytes_per_call": ((wire["bytes_sent"] + wire["bytes_received"]) / requests,
                                "B", wire["requests"]),
        "setup_s": (statistics.median(session.setups), "s", len(session.setups)),
        "server_peak_rss_mb": (session.peak_kb / 1024, "MB", 1),
    }


def layer_metrics(tracer: Any, server_dump: Dict[str, Any], session: Session) -> Metrics:
    """Per-layer metrics from the traced session's spans and counters."""
    from repro.serde.codegen import codegen_metrics
    from spans import LayerTimes, durations_by_call

    request_by_call = durations_by_call(tracer.spans, "transport.request")
    server_spans = [tuple(span) for span in server_dump["spans"] if span[5] in request_by_call]
    client = LayerTimes(tracer.spans)
    server = LayerTimes(server_spans)
    calls = max(client.count.get("nrmi.call", 0), 1)
    dispatch_by_call = durations_by_call(server_spans, "rmi.dispatch")
    waits = [request_by_call[cid] - dispatch_by_call[cid] for cid in dispatch_by_call]
    server_counters = server_dump["metrics"]
    submitted = max(server_counters.get("server.jobs.submitted", 0), 1)
    shed = server_counters.get("server.shed.queue_full", 0) + server_counters.get(
        "server.shed.draining", 0
    )
    fallbacks = codegen_metrics.snapshot().get("serde.codegen.fallbacks", 0) + server_dump[
        "codegen"
    ].get("serde.codegen.fallbacks", 0)
    wire = session.wire
    requests = max(wire["requests"], 1)
    counters = session.client_counters
    # The layer spans inside client_call; its own self time (the glue) is
    # left out, so a layer span gone missing shows as lost coverage.
    covered = sum(
        client.total_ns.get(name, 0)
        for name in ("nrmi.prepare", "transport.request", "transport.request_zero_copy",
                     "nrmi.complete")
    )
    client_us = {
        "nrmi.call_us": client.total_us("nrmi.call", calls),
        "nrmi.client_glue_us": client.self_us("nrmi.client_call", calls),
        "nrmi.prepare_us": client.total_us("nrmi.prepare", calls),
        "nrmi.retain_us": client.total_us("nrmi.retain", calls),
        "serde.client_encode_us": client.total_us("serde.encode", calls),
        "nrmi.complete_us": client.total_us("nrmi.complete", calls),
        "core.parse_reply_us": client.total_us("core.parse_reply", calls),
        "core.restore_us": client.total_us("core.restore", calls),
        "serde.client_decode_us": client.total_us("serde.decode", calls),
        "transport.request_us": (
            client.total_us("transport.request", calls)
            + client.total_us("transport.request_zero_copy", calls)
        ),
        "rmi.dispatch_us": server.total_us("rmi.dispatch", calls),
        "rmi.dispatch_self_us": server.self_us("rmi.dispatch", calls),
        "nrmi.handle_us": server.total_us("nrmi.handle", calls),
        "nrmi.server_retain_us": server.total_us("nrmi.retain", calls),
        "nrmi.execute_us": server.total_us("nrmi.execute", calls),
        "serde.server_decode_us": server.total_us("serde.decode", calls),
        "serde.server_encode_us": server.total_us("serde.encode", calls),
        "core.build_reply_us": server.total_us("core.build_reply", calls),
    }
    metrics: Metrics = {name: (value, "us", calls) for name, value in client_us.items()}
    metrics.update({
        "transport.wait_us": (statistics.fmean(waits) / 1e3 if waits else 0.0, "us", len(waits)),
        "trace.client_span_coverage": (
            covered / max(client.total_ns.get("nrmi.call", 0), 1), "share", calls),
        "nrmi.path_zero_copy_share": (
            client.count.get("transport.request_zero_copy", 0) / calls, "share", calls),
        "transport.request_bytes_per_call": (wire["bytes_sent"] / requests, "B", requests),
        "transport.reply_bytes_per_call": (wire["bytes_received"] / requests, "B", requests),
        "serde.objects_per_call": (tracer.counts.get("serde.objects", 0) / calls, "count", calls),
        "serde.codegen_fallbacks": (float(fallbacks), "count", 1),
        "core.old_overwritten_per_call": (
            counters.get("restore.old_overwritten", 0) / calls, "count", calls),
        "core.new_adopted_per_call": (
            counters.get("restore.new_adopted", 0) / calls, "count", calls),
        "transport.busy_share": (shed / submitted, "share", submitted),
        "transport.server_threads": (float(session.threads), "count", 1),
    })
    return metrics


# -------------------------------------------------------------------- output


def print_metrics(title: str, metrics: Metrics) -> None:
    print(title)
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<34} {value:>14.4f} {unit:<6} samples={samples}")


def print_failures(tally: Tally) -> None:
    for number, reason in enumerate(tally.failures, 1):
        print(f"failure {number}/{tally.failed}: {reason}")


# ---------------------------------------------------------------------- main


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Cross-process NRMI benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: one timed round per caller, one set-up")
    parser.add_argument("--cpus", default="one", choices=["one", "all"],
                        help="'all' leaves client and server unpinned (defect reproductions)")
    parser.add_argument("--services", default="clean", choices=["clean", "corrupt"],
                        help="'corrupt' binds services whose replies are wrong (self-tests)")
    args = parser.parse_args(argv)
    args.setups = 1 if args.quick else SETUPS
    if args.quick:
        args.seconds = 0.0
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the library sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    if args.cpus == "one":
        # Client and server share one vCPU (the server inherits the mask).
        # On a 2-vCPU guest the host could not keep two busy vCPUs
        # scheduled: steal rose to ~30% within a second and calls/s swung
        # 2-4x between runs.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out_dir = BENCH_DIR / "_out"
    out_dir.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    # Rendezvous sockets (shm) go under the run directory; a relative path
    # keeps them inside the unix-socket path limit.
    tempfile.tempdir = os.path.relpath(run_dir, ROOT)
    try:
        return run(args, workload, run_dir, started)
    except RuntimeError as exc:
        print(f"error: {exc}")
        return 1
    finally:
        tempfile.tempdir = None
        shutil.rmtree(run_dir, ignore_errors=True)


def run(args: argparse.Namespace, workload: Any, run_dir: Path, started: float) -> int:
    steal_before = cpu_ticks()
    calibration = calibration_seconds()
    affinity = ",".join(str(cpu) for cpu in sorted(os.sched_getaffinity(0)))
    print(f"env nproc={os.cpu_count()} affinity={affinity} python={platform.python_version()} "
          f"git_rev={git_rev()} calibration_s={calibration:.4f}")
    print(f"workload {workload.name}: transport={workload.transport} "
          f"callers={workload.callers} closed loop, seed={args.seed}, "
          f"seconds={args.seconds:g}, trace={args.trace}, cpus={args.cpus}")
    runner = Runner(workload, args.seed, started)
    if args.trace:
        # The untraced and the traced session share the run's time.
        session = run_session(runner, run_dir, args, 1, args.seconds / 2)
    else:
        session = run_session(runner, run_dir, args, args.setups, args.seconds)
    tally = session.tally
    if not tally.latencies_ns:
        print_failures(tally)
        print("error: no timed call was verified")
        return 1
    metrics = end_to_end(session)
    print_metrics("end-to-end (untraced)", metrics)
    print("  setup_s samples: " + " ".join(f"{value:.3f}" for value in session.setups))
    print(f"  {'failed_share':<34} {tally.failed / tally.attempted:>14.4f} share  "
          f"samples={tally.attempted}")
    print(f"  {'latency_p99_us':<34} {percentile(latency_us(tally), 0.99):>14.4f} us     "
          f"samples={len(tally.latencies_ns)}")
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        trace_out = run_dir / "server-spans.json"
        traced = run_session(runner, run_dir, args, 0, args.seconds / 2, tracer, trace_out)
        tally.absorb(traced.tally)
        if not traced.tally.latencies_ns:
            print_failures(tally)
            print("error: no traced call was verified")
            return 1
        if not trace_out.exists():
            raise RuntimeError("the traced server exited without writing its spans")
        metrics = layer_metrics(tracer, json.loads(trace_out.read_text(encoding="utf-8")), traced)
        coverage = metrics["trace.client_span_coverage"][0]
        if coverage < MIN_COVERAGE:
            print(f"error: the client layer spans cover {coverage:.1%} of the traced call "
                  f"time, below {MIN_COVERAGE:.0%}; a layer is no longer traced")
            return 1
        traced_p50 = percentile(latency_us(traced.tally), 0.5)
        untraced_p50 = percentile(latency_us(session.tally), 0.5)
        calls = len(session.tally.latencies_ns)
        metrics.update({
            "trace.latency_p50_us": (traced_p50, "us", len(traced.tally.latencies_ns)),
            "trace.untraced_latency_p50_us": (untraced_p50, "us", calls),
            "trace.overhead_share": (traced_p50 / untraced_p50 - 1, "share", 2),
            "proc.client_cpu_us_per_call": (
                session.tally.client_cpu_s * 1e6 / calls, "us", calls),
        })
    steal_after = cpu_ticks()
    steal = (steal_after[0] - steal_before[0]) / max(steal_after[1] - steal_before[1], 1)
    if args.trace:
        metrics["env.cpu_steal_share"] = (steal, "share", 1)
        metrics["env.calibration_s"] = (calibration, "s", 1)
        print_metrics("per-layer (traced)", metrics)
    print(f"env cpu_steal_share={steal:.4f}")
    print_failures(tally)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _samples) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
