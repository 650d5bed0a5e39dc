"""The ``serve-mixed`` workload: a real daemon under open-loop load.

Chosen because it is the warm-start client's path and shares almost
nothing with the batch workloads: it stresses the ``api``/``serve``
codecs, micro-batching and ``BasisStore.match_batch`` on small
candidate lists, writes refines into an mmap-loaded store, and draws no
Monte Carlo samples at all.

The daemon is ``python -m repro serve`` on a seeded fixture snapshot
(``build_fixture_session``) serving the seeded ``build_request_stream``
mix: ~70% hit probes, match/estimate probes, one refine per distinct
basis, periodic stats.  Load is open loop from this one process (pinned
to one CPU, the daemon to the other) over one connection: a sender
thread sends every request when it is due on a
seeded Poisson schedule (batching requests that are already due into
one write, and recording how late it ran) and a receiver thread stamps
each response as it arrives.  Latency counts from the *scheduled* send
time, so a stall also delays every request queued behind it.  Phases:

* light: a fixed 1000 rps -> p50/p90/p99, and correct answers per
  second of daemon CPU time (the gated ``answers_per_s``).  1000 rps is
  a quarter of saturation when the shared host is slow and an eighth
  when it is fast;
* overload: a fixed rate far past saturation -> correct answers per
  second (refused requests are counted, not answered, so admission
  control shows up as refusals, not as failures);
* ladder: fixed rates from low to high; the highest that keeps p99
  within ``P99_LIMIT_MS`` and its backlog flat (answered within the
  step at >= 95% of the offered rate) is ``serve_max_rps``.

Light and overload alternate in ROUNDS rounds, and the host pace (see
pace.py) is taken on both CPUs between phases.  Only the CPU rate is
gated.  Latency and wall-clock rates are printed but move with the
host far more than the pace can correct: on a shared two-CPU host the
light-load p50 moved between 0.5 and 6 ms as other tenants came and
went, and the paced saturation spread by 0.35 of its median over five
runs.  Daemon CPU time leaves out the time the host kept the daemon
off its CPU, and the pace corrects for how fast the CPU ran.

Every answer is checked afterwards against a sequential in-process
replay of the same requests through ``Session.handle`` (the
``expected_responses`` reference), stats responses excepted.  One
connection keeps the daemon's order equal to the replay's order.
"""

from __future__ import annotations

import gc
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

from pace import REFERENCE_S, host_pace, paced

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench-tmp")

FIXTURE_BASES = 24
LIGHT_RATE = 1000.0
#: Far past saturation (5,000-12,000 rps on a shared two-CPU host), so
#: the daemon is never idle while a round's backlog lasts.
OVERLOAD_RATE = 20000.0
LADDER = (1000.0, 2000.0, 3000.0, 4000.0, 5000.0, 6000.0, 7000.0, 8000.0,
          9000.0, 10000.0)
P99_LIMIT_MS = 50.0
ACHIEVED_MIN = 0.95
SETUPS = 3
ROUNDS = 16
WARMUP_SECONDS = 0.5
#: Shares of ``--seconds``: all light rounds, all overload rounds (as
#: offered; the backlog then takes ~2.5x as long to answer), and each
#: ladder step (the ladder stops at its first failing rate).
LIGHT_SHARE, OVERLOAD_SHARE, LADDER_STEP_SHARE = 0.25, 0.06, 0.02
#: The host is shared and its speed shifts for seconds at a time, so a
#: light-load tail percentile is the median of per-window values (a
#: window has 10 requests beyond its p99).
LATENCY_WINDOW = 1000
DRAIN_TIMEOUT = 20.0
SPIN_SECONDS = 0.002
READY_TIMEOUT = 60.0
REFUSAL_CODES = frozenset({"Overloaded"})
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# -- daemon lifecycle -------------------------------------------------------


def split_cpus():
    """(load generator CPUs, daemon CPUs): one CPU each when there are two.

    On the shared two-CPU host, letting the scheduler mix the daemon's
    and the generator's threads on both CPUs halved saturation in slow
    spells (about 3,900 vs 5,700-7,700 rps pinned, same seed, alternating
    runs).  Pinning keeps the generator off the daemon's CPU, as a
    separate load-generator machine would.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, {cpus[1]}


class Daemon:
    """One serving process, started from its command, stopped by SIGTERM."""

    def __init__(self, command, log_path, cpus):
        self._log = open(log_path, "wb")
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=dict(os.environ, PYTHONPATH=SRC),
            cwd=ROOT,
        )
        try:
            os.sched_setaffinity(self.process.pid, cpus)
        except ProcessLookupError:
            pass  # it died at start; the readiness check reports it
        ready, _, _ = select.select(
            [self.process.stdout], [], [], READY_TIMEOUT
        )
        line = self.process.stdout.readline().decode() if ready else ""
        if not line.startswith("SERVE_READY "):
            self.kill()
            raise RuntimeError(f"daemon did not become ready: {line!r}")
        fields = dict(part.split("=", 1) for part in line.split()[1:])
        self.host, self.port = fields["host"], int(fields["port"])

    def cpu_seconds(self) -> float:
        """User plus system CPU time the daemon has used so far, every
        thread (clock ticks, so 10 ms resolution)."""
        with open(f"/proc/{self.process.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def stop(self, timeout: float = 60.0):
        """SIGTERM (a draining shutdown); returns (exit code, peak RSS MB)."""
        self.process.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.process.pid, os.WNOHANG)
            if pid:
                self.process.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                self.kill()
                return -1, 0.0
            time.sleep(0.02)
        self._close()
        return self.process.returncode, usage.ru_maxrss / 1024.0

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        self._close()

    def _close(self) -> None:
        self.process.stdout.close()
        self._log.close()


def serve_command(snapshot: str, flushed: str):
    return [sys.executable, "-m", "repro", "serve", "--store", snapshot,
            "--port", "0", "--save-store", flushed]


def traced_command(snapshot: str, flushed: str, out: str):
    return [sys.executable, os.path.join(HERE, "traced_daemon.py"),
            "--store", snapshot, "--save-store", flushed, "--out", out]


# -- open-loop driver -------------------------------------------------------


class Phase:
    """One open-loop burst of ``frames`` at ``rate`` over one socket."""

    def __init__(self, name, start, frames, rate, rng):
        self.name = name
        self.start = start  # index of the first request in the stream
        self.count = len(frames)
        self.rate = rate
        self.scheduled = np.cumsum(rng.exponential(1.0 / rate, self.count))
        self.sent = np.zeros(self.count)
        self.received = np.full(self.count, np.inf)
        self.bodies = [None] * self.count
        self.pace = (REFERENCE_S, REFERENCE_S)
        self.daemon_cpu = 0.0
        self._frames = frames

    def drive(self, sock) -> None:
        got = [0]
        t_zero = time.perf_counter() + 0.01
        sending_done = threading.Event()

        def receive():
            buffer = bytearray()
            while got[0] < self.count:
                readable, _, _ = select.select([sock], [], [], 0.25)
                if not readable:
                    if sending_done.is_set() and (
                        time.perf_counter() > receive_deadline[0]
                    ):
                        return
                    continue
                chunk = sock.recv(1 << 18)
                if not chunk:
                    return
                now = time.perf_counter() - t_zero
                buffer += chunk
                position = 0
                while len(buffer) - position >= 4:
                    size = int.from_bytes(buffer[position:position + 4], "big")
                    end = position + 4 + size
                    if end > len(buffer):
                        break
                    index = got[0]
                    self.bodies[index] = bytes(buffer[position + 4:end])
                    self.received[index] = now
                    got[0] = index + 1
                    position = end
                del buffer[:position]

        # Until the last send the receiver has no deadline to wait for;
        # if sending fails it stops at once.
        receive_deadline = [0.0]
        receiver = threading.Thread(target=receive, name="perfbench-recv")
        receiver.start()
        try:
            scheduled, frames = self.scheduled, self._frames
            index = 0
            while index < self.count:
                now = time.perf_counter() - t_zero
                gap = scheduled[index] - now
                if gap > 0:
                    # Sleep until just before the due time, then yield in
                    # a loop: a timed sleep alone woke up to 2 ms late on
                    # this host, and lateness counts in every latency.
                    time.sleep(gap - SPIN_SECONDS if gap > SPIN_SECONDS else 0)
                    continue
                due = max(index + 1, int(np.searchsorted(scheduled, now, "right")))
                sock.sendall(b"".join(frames[index:due]))
                self.sent[index:due] = now
                index = due
            receive_deadline[0] = time.perf_counter() + DRAIN_TIMEOUT
        finally:
            sending_done.set()
            receiver.join()
        self.received -= self.scheduled  # latency from the scheduled time
        self.answered = got[0]

    @property
    def latency_ms(self):
        return 1000.0 * self.received

    @property
    def late_ms(self):
        return 1000.0 * (self.sent - self.scheduled)

    def window(self) -> float:
        return float(self.scheduled[-1])


def open_socket(daemon):
    import socket

    sock = socket.create_connection((daemon.host, daemon.port), timeout=10.0)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def pace_both(cpus) -> tuple:
    """The host pace on the generator's CPU and on the daemon's CPU.

    Taken between phases, when the daemon is idle, so the probe on its
    CPU runs alone there.
    """
    generator, daemon = cpus
    mine = host_pace()
    if daemon == generator:
        return mine, mine
    os.sched_setaffinity(0, daemon)
    try:
        return mine, host_pace()
    finally:
        os.sched_setaffinity(0, generator)


def run_phases(daemon, frames, plan, seed, cpus):
    """Drive ``plan`` [(name, rate, count)] in order over one connection.

    Stops early (leaving later phases unsent) when a phase leaves
    requests unanswered, since a later response could then not be told
    apart from a late one.  Ladder phases stop at the first failing rate.
    Each phase's pace is the mean of the host paces (generator CPU,
    daemon CPU) measured just before and after it.
    """
    phases = []
    cursor = 0
    sock = open_socket(daemon)
    # The stream is ~10^5 live objects; a collector pass over them would
    # stall the sender and receiver threads and show up as daemon latency.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        before = pace_both(cpus)
        for number, (name, rate, count) in enumerate(plan):
            rng = np.random.default_rng([seed, number])
            phase = Phase(name, cursor, frames[cursor:cursor + count], rate, rng)
            cpu = daemon.cpu_seconds()
            phase.drive(sock)
            phase.daemon_cpu = daemon.cpu_seconds() - cpu
            after = pace_both(cpus)
            phase.pace = tuple((a + b) / 2 for a, b in zip(before, after))
            before = after
            phases.append(phase)
            cursor += count
            if phase.answered < phase.count:
                break
            if name == "ladder" and not ladder_step_ok(phase):
                break
    finally:
        gc.enable()
        gc.unfreeze()
        sock.close()
    return phases


def ladder_step_ok(phase) -> bool:
    """p99 within the limit and no growing backlog: answers came back at
    >= ACHIEVED_MIN of the rate this step's schedule actually offered."""
    p99 = float(np.percentile(phase.latency_ms, 99, method="inverted_cdf"))
    last_answer = float(np.max(phase.received + phase.scheduled))
    return p99 <= P99_LIMIT_MS and phase.window() >= ACHIEVED_MIN * last_answer


# -- correctness ------------------------------------------------------------


def verify(snapshot, requests, phases):
    """Compare every answer with the sequential in-process replay.

    Returns (per-request verdicts over the sent prefix, failure notes):
    verdict 1 = correct, 0 = wrong or unanswered, -1 = refused.  Stats
    answers are counted as correct without comparison (their counters
    are session-wide and compared by no reference).
    """
    from repro.api import Session
    from repro.api.messages import ErrorResponse, StatsRequest, decode_response

    reference = Session.open(snapshot)
    verdicts = []
    failures = []
    for phase in phases:
        for offset in range(phase.count):
            request = requests[phase.start + offset]
            body = phase.bodies[offset]
            if body is None:
                verdicts.append(0)
                failures.append(f"{phase.name}: request {request.request_id} unanswered")
                continue
            response = decode_response(json.loads(body))
            if isinstance(response, ErrorResponse) and response.code in REFUSAL_CODES:
                verdicts.append(-1)
                continue
            expected = reference.handle(request)
            if isinstance(request, StatsRequest) or response == expected:
                verdicts.append(1)
            else:
                verdicts.append(0)
                failures.append(
                    f"{phase.name}: request {request.request_id} answered "
                    f"{response!r}, expected {expected!r}"
                )
    return np.array(verdicts), failures


# -- the workload -----------------------------------------------------------


def _setup_once(seed, directory, cpus, command_for):
    """Build the fixture, save it, and boot a daemon on it (timed, and
    paced by the host pace of both CPUs taken right after)."""
    from repro.serve import build_fixture_session

    started = time.monotonic()
    session = build_fixture_session(bases=FIXTURE_BASES, seed=seed)
    snapshot = os.path.join(directory, "fixture")
    save_started = time.perf_counter()
    session.save(snapshot)
    save_seconds = time.perf_counter() - save_started
    daemon = Daemon(
        command_for(snapshot, os.path.join(directory, "flushed")),
        os.path.join(directory, "daemon.log"),
        cpus[1],
    )
    seconds = time.monotonic() - started
    pace = sum(pace_both(cpus)) / 2
    return daemon, snapshot, paced(seconds, pace), save_seconds


def _plan(seconds, traced):
    share = 0.5 if traced else 1.0
    light = int(LIGHT_RATE * seconds * LIGHT_SHARE * share)
    overload = int(OVERLOAD_RATE * seconds * OVERLOAD_SHARE * share)
    # A short unmeasured (but checked) warm-up first: a daemon is long
    # lived, so its first requests' lazy set-up is not what users see.
    warmup = int(LIGHT_RATE * WARMUP_SECONDS)
    # Light and overload alternate in rounds, so each samples the host
    # at several moments of the run rather than at one.
    plan = [("warmup", LIGHT_RATE, warmup)]
    plan += [
        ("light", LIGHT_RATE, light // ROUNDS),
        ("overload", OVERLOAD_RATE, overload // ROUNDS),
    ] * ROUNDS
    if not traced:
        step = seconds * LADDER_STEP_SHARE
        plan += [("ladder", rate, int(rate * step)) for rate in LADDER]
    return plan


def _stream(snapshot, seed, plan):
    from repro.api import Session
    from repro.api.messages import encode_request
    from repro.serve import build_request_stream
    from repro.serve.protocol import encode_frame

    total = sum(count for _, _, count in plan)
    requests = build_request_stream(Session.open(snapshot), total, seed=seed)
    return requests, [encode_frame(encode_request(r)) for r in requests]


def _session_run(seed, seconds, directory, traced_run, traced_daemon, cpus):
    """Set up, drive the plan, stop, verify.

    An untraced run sets up SETUPS times (the last daemon serves); a
    traced run sets up once per daemon and drives a shorter plan twice,
    on the real daemon and on the traced one.
    """
    from run import median

    out = os.path.join(directory, "trace.json")
    if traced_daemon:
        def command_for(snapshot, flushed):
            return traced_command(snapshot, flushed, out)
    else:
        command_for = serve_command
    setup_times, save_times = [], []
    setups = 1 if traced_run else SETUPS
    for attempt in range(setups):
        workdir = os.path.join(directory, f"setup{attempt}")
        os.makedirs(workdir)
        daemon, snapshot, setup_s, save_s = _setup_once(
            seed, workdir, cpus, command_for
        )
        setup_times.append(setup_s)
        save_times.append(save_s)
        if attempt < setups - 1:
            daemon.stop()
    try:
        plan = _plan(seconds, traced_run)
        requests, frames = _stream(snapshot, seed, plan)
        phases = run_phases(daemon, frames, plan, seed, cpus)
    finally:
        code, rss = daemon.stop()
    verdicts, failures = verify(snapshot, requests, phases)
    if code != 0:
        failures.append(f"daemon exited {code} on SIGTERM, not 0")
    return {
        "phases": phases,
        "fixed_planned": sum(c for name, _, c in plan if name != "ladder"),
        "verdicts": verdicts,
        "failures": failures,
        "setup_s": median(setup_times),
        "save_s": median(save_times),
        "rss_mb": rss,
        "trace": _read_json(out) if traced_daemon else None,
    }


def _read_json(path):
    with open(path) as handle:
        return json.load(handle)


def _phase_stats(result):
    """Per-phase verdict counts and latencies (a miss counts as inf).

    Returns ({name: [stats]} for the fixed phases, [stats] for the ladder).
    """
    verdicts = result["verdicts"]
    fixed, ladder = {}, []
    for phase in result["phases"]:
        mine = verdicts[phase.start:phase.start + phase.count]
        arrived = phase.received + phase.scheduled
        entry = {
            "phase": phase,
            "correct": int(np.sum(mine == 1)),
            "refused": int(np.sum(mine == -1)),
            "missed": int(np.sum(mine == 0)),
            "latency": np.where(mine == 1, phase.latency_ms, np.inf),
            "arrived": np.where(mine == 1, arrived, np.inf),
            "achieved": float(np.sum(mine == 1)) / float(np.max(arrived)),
            "pace": phase.pace,
        }
        if phase.name == "ladder":
            ladder.append(entry)
        else:
            fixed.setdefault(phase.name, []).append(entry)
    return fixed, ladder


def _pct(values, pct):
    return float(np.percentile(values, pct, method="inverted_cdf"))


def _light(fixed, pct, pace=True):
    """Light-load latency percentile, paced by each round's host pace
    (the mean over both CPUs: a request crosses both):
    over all requests for the median, the median of per-window values
    for the tail."""
    if "light" not in fixed:
        return float("inf")
    latency = np.concatenate([
        entry["latency"] * (2 * REFERENCE_S / sum(entry["pace"]) if pace else 1.0)
        for entry in fixed["light"]
    ])
    if pct <= 50:
        return _pct(latency, pct)
    windows = max(1, len(latency) // LATENCY_WINDOW)
    return float(np.median([
        _pct(window, pct) for window in np.array_split(latency, windows)
    ]))


def _saturation(fixed, pace=True):
    """Correct answers per second while the overload rate was offered,
    paced by the daemon CPU's pace: each round counts from its first
    scheduled send to its last answer, a span in which its backlog kept
    the daemon busy."""
    answered, busy = 0, 0.0
    for entry in fixed.get("overload", []):
        phase = entry["phase"]
        arrived = phase.received + phase.scheduled
        finite = arrived[np.isfinite(arrived)]
        if not finite.size:
            continue
        seconds = float(np.max(finite)) - float(phase.scheduled[0])
        busy += paced(seconds, entry["pace"][1]) if pace else seconds
        answered += entry["correct"]
    return answered / busy if busy > 0 else 0.0


def _cpu_rate(fixed, name="light", pace=True):
    """Correct answers per second of daemon CPU time (all its threads)
    in the ``name`` phases, paced by the daemon CPU's pace."""
    answered = sum(entry["correct"] for entry in fixed.get(name, []))
    cpu = sum(
        paced(entry["phase"].daemon_cpu, entry["pace"][1]) if pace
        else entry["phase"].daemon_cpu
        for entry in fixed.get(name, [])
    )
    return answered / cpu if cpu > 0 else 0.0


def _max_rps(ladder):
    best = 0.0
    for entry in ladder:
        if entry["correct"] < entry["phase"].count or not ladder_step_ok(entry["phase"]):
            break
        best = entry["achieved"]
    return best


def run(seed: int, seconds: float, traced: bool) -> dict:
    os.makedirs(SCRATCH, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="serve-", dir=SCRATCH)
    try:
        return _run(seed, seconds, traced, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _run(seed, seconds, traced, directory):
    plain_dir = os.path.join(directory, "plain")
    os.makedirs(plain_dir)
    cpus = split_cpus()
    os.sched_setaffinity(0, cpus[0])
    plain = _session_run(seed, seconds, plain_dir, traced, False, cpus)
    results = [plain]
    if traced:
        traced_dir = os.path.join(directory, "traced")
        os.makedirs(traced_dir)
        results.append(
            _session_run(seed, seconds, traced_dir, traced, True, cpus)
        )
    failures = [f for r in results for f in r["failures"]]
    attempted = sum(p.count for r in results for p in r["phases"])
    failed = sum(int(np.sum(r["verdicts"] == 0)) for r in results)
    for r in results:
        # A stalled phase leaves the fixed phases after it unsent: those
        # requests were due, so they count as attempted and failed.
        unsent = r["fixed_planned"] - sum(
            p.count for p in r["phases"] if p.name != "ladder"
        )
        attempted += unsent
        failed += unsent

    fixed, ladder = _phase_stats(plain)
    measured = [
        e for name, entries in fixed.items() if name != "warmup" for e in entries
    ] + ladder
    late = np.concatenate([e["phase"].late_ms for e in measured] or [[0.0]])
    p50, p90, p99 = (_light(fixed, pct) for pct in (50, 90, 99))
    sat = _saturation(fixed)
    per_cpu = _cpu_rate(fixed)
    lines = [
        f"workload serve-mixed seed {seed}: {FIXTURE_BASES}-basis fixture, "
        f"one connection, open loop (latency and rates per phase unpaced; the "
        f"summary is paced: at a fixed host speed, see pace.py)",
    ]
    for entry in measured:
        phase = entry["phase"]
        lines.append(
            f"  {phase.name:<8} {phase.rate:7.0f} rps offered  "
            f"{phase.count:6d} sent  {entry['correct']:6d} correct "
            f"({entry['achieved']:7.0f}/s)  "
            f"{entry['refused']:5d} refused  {entry['missed']:5d} wrong/unanswered  "
            f"p50 {_pct(entry['latency'], 50):8.3f} ms  "
            f"p99 {_pct(entry['latency'], 99):8.3f} ms  "
            f"pace {1000.0 * entry['pace'][0]:.3f}/{1000.0 * entry['pace'][1]:.3f} ms"
        )
    light_count = sum(e["phase"].count for e in fixed.get("light", []))
    lines += [
        f"  serve_p50_ms       {p50:.4f} ms (at {LIGHT_RATE:.0f} rps offered; "
        f"unpaced {_light(fixed, 50, pace=False):.4f})",
        f"  serve_p90_ms       {p90:.4f} ms (median of per-{LATENCY_WINDOW}-request "
        f"window p90s; {light_count} requests)",
        f"  serve_p99_ms       {p99:.4f} ms (median of per-{LATENCY_WINDOW}-request "
        f"window p99s)",
        f"  serve_sat_rps      {sat:.2f} 1/s (correct answers at {OVERLOAD_RATE:.0f} rps "
        f"offered, over {ROUNDS} rounds; unpaced {_saturation(fixed, pace=False):.2f}; "
        f"per daemon CPU second {_cpu_rate(fixed, 'overload'):.2f})",
        f"  answers_per_cpu_s  {per_cpu:.2f} 1/s (correct answers per daemon CPU second at "
        f"{LIGHT_RATE:.0f} rps offered; unpaced {_cpu_rate(fixed, pace=False):.2f})",
        f"  serve_max_rps      {_max_rps(ladder):.2f} 1/s (p99 <= {P99_LIMIT_MS:.0f} ms, "
        f"achieved >= {ACHIEVED_MIN:.0%})"
        + (" [no ladder in traced runs]" if traced else ""),
        f"  setup_s            {plain['setup_s']:.4f} s (median of {SETUPS})",
        f"  peak_rss_mb        {plain['rss_mb']:.2f} MB (daemon)",
        f"  failed_fraction    {failed / max(attempted, 1):.6f} ({failed} of {attempted})",
        f"  loadgen late p99   {_pct(late, 99):.4f} ms",
    ]
    if traced:
        metrics, layer_lines = _serve_layers(plain, results[1], late)
        lines += layer_lines
    else:
        metrics = {
            "setup_s": plain["setup_s"],
            "answers_per_s": per_cpu,
            "peak_rss_mb": plain["rss_mb"],
        }
    return dict(metrics=metrics, lines=lines, failures=failures,
                attempted=attempted, failed=failed)


def _serve_layers(plain, traced, late):
    from run import empty_layers, format_layers, layer_table
    from spans import store_ratios

    trace = traced["trace"]
    spans = trace["spans"]
    calls, total, counts = spans["calls"], spans["total"], spans["counts"]
    base = trace["cpu_window_s"]
    rows, other = layer_table(spans, 1, base)
    lines = format_layers(
        rows, other, base,
        base="daemon CPU time from first decode to last encode; spans in thread CPU time,",
    )

    def us_per_call(name):
        return 1e6 * total.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    requests = calls.get("api.decode", 0)
    batches = calls.get("api.handle_batch", 0)
    sizes = sorted(
        int(size) for size, n in trace["batch_sizes"].items() for _ in range(n)
    )
    traced_fixed, _ = _phase_stats(traced)
    plain_fixed, _ = _phase_stats(plain)
    handle_ms = 1000.0 * total.get("api.handle_batch", 0.0) / batches if batches else 0.0
    lookups = trace["store_counters"].get("lookups", 0)
    traced_rate = _cpu_rate(traced_fixed)
    metrics = empty_layers()
    metrics.update(store_ratios(trace["store_counters"]))
    metrics.update({
        "trace.base_s": base,
        "trace.other_s": other,
        "trace.overhead": _cpu_rate(plain_fixed) / traced_rate - 1.0 if traced_rate else 0.0,
        "loadgen.late_ms.p99": _pct(late, 99),
        "api.decode.us_per_req": us_per_call("api.decode"),
        "api.encode.us_per_req": us_per_call("api.encode"),
        "serve.frame.us_per_req": (
            1e6 * total.get("serve.frame", 0.0) / requests if requests else 0.0
        ),
        "api.handle_batch.calls": batches,
        "api.handle_batch.s": total.get("api.handle_batch", 0.0),
        "api.batch_size.p50": float(sizes[len(sizes) // 2]) if sizes else 0.0,
        "api.batch_size.max": float(sizes[-1]) if sizes else 0.0,
        "serve.residual_ms.p50": _light(traced_fixed, 50) - handle_ms,
        "core.basis.match_batch.s": total.get("core.basis.match_batch", 0.0),
        "core.basis.match.self_s": spans["self"].get("core.basis.match", 0.0),
        "core.index.candidates.calls": calls.get("core.index.candidates", 0),
        "core.index.candidates.s": total.get("core.index.candidates", 0.0),
        "core.index.candidates_per_probe": (
            counts.get("core.index.candidates", 0) / lookups if lookups else 0.0
        ),
        "core.mapping.validate.calls": calls.get("core.mapping.validate", 0),
        "core.mapping.validate.s": total.get("core.mapping.validate", 0.0),
        "core.mapping.rows_validated": counts.get("core.mapping.rows", 0),
        "core.estimator.estimate.s": total.get("core.estimator.estimate", 0.0),
        "core.estimator.remap.s": total.get("core.estimator.remap", 0.0),
        "core.persist.save.s": plain["save_s"],
        "core.persist.open.s": trace["open_s"],
    })
    for kernel in ("draw_block", "affine_validate", "sid_orders", "normal_forms"):
        metrics[f"core.backend.{kernel}.calls"] = calls.get(f"core.backend.{kernel}", 0)
        metrics[f"core.backend.{kernel}.s"] = total.get(f"core.backend.{kernel}", 0.0)
    return metrics, lines
