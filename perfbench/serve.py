"""The ``serve-open`` workload: ``repro-mc serve --jobs 1`` under open-loop load.

The server runs in its own process (``python -m repro serve``), driven
by one separate load-generator process (``loadgen.py``).  Each request
is a single-set ``wait: true`` ``POST /analyze`` of a Fig.-6-sized set
with the Fig.-6 options.  Every :data:`REPEAT_EVERY`-th position repeats,
byte for byte, the body of a set sent at least :data:`REPEAT_MIN_BACK`
positions earlier, which the server coalesces without computing; the
other positions carry a new set, computed on the n = 1 per-set path.
Repeats are a third, not a half: a repeat takes ~1.3 ms and a new set
~6 ms, so with half of each the median fell in the gap between the two
and moved by a third from run to run.

A run serves :data:`REF_RATE` req/s for :data:`REF_SHARE` of
``--seconds``; latency runs from each request's due time.  The traced
run serves that rate for :data:`TRACED_REF_SHARE` of ``--seconds``,
then drives the server closed loop for :data:`SAT_SHARE` of it, with
two connections always in flight so the server never waits for work
(``max_rps``).  ``max_rps`` is per-layer, not end-to-end: its closed
loop's rate moves with the stretches in which the shared host runs
other work or the load generator.  Over ten seeds it spread by 0.19 of
its median as a wall-clock rate (median over blocks of completions) and
by 0.26 per server CPU second, against 0.07 for ``sets_per_s`` of the
same runs.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

import common
from tracing import LayerTotals, Tracer

REF_RATE = 100.0
#: Requests due this early in a phase are sent but not measured.
SETTLE_S = 0.5
REF_SHARE = 0.95
TRACED_REF_SHARE = 0.7
SAT_SHARE = 0.25
#: Bodies prepared for the closed-loop phase, per second of it, as a
#: multiple of the CPU-bound capacity the reference phase measured.
SAT_MARGIN = 1.5
REPEAT_EVERY = 3
WARM_REQUESTS = 24
REPEAT_MIN_BACK = 8
REPEAT_MAX_BACK = 200
CHECK_SAMPLE = 16

_PORT_LINE = re.compile(r"http://[^:/]+:(\d+)")


class Server:
    """One ``python -m repro serve --jobs 1 --port 0`` process."""

    def __init__(self) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--jobs", "1", "--port", "0"],
            cwd=str(common.ROOT),
            env=common.child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        match = _PORT_LINE.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(match.group(1))

    def get(self, path: str) -> Tuple[int, Any]:
        try:
            with urllib.request.urlopen(f"http://127.0.0.1:{self.port}{path}", timeout=10) as r:
                return r.status, json.loads(r.read())
        except urllib.error.HTTPError as error:
            return error.code, None

    def wait_ready(self) -> float:
        """Seconds from spawn until ``/readyz`` answers 200."""
        deadline = self.started + 60
        while time.perf_counter() < deadline:
            try:
                if self.get("/readyz")[0] == 200:
                    return time.perf_counter() - self.started
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("server never became ready")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _cold_start() -> float:
    server = Server()
    try:
        return server.wait_ready()
    finally:
        server.stop()


class LoadGen:
    def __init__(self, port: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(common.HERE / "loadgen.py"), str(port)],
            cwd=str(common.ROOT),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def phase(self, rate: Optional[float], bodies: List[str], keep=(),
              seconds: Optional[float] = None) -> Dict[str, Any]:
        """One phase; ``rate=None`` runs closed loop for ``seconds``."""
        command = {"rate": rate, "bodies": bodies, "keep": list(keep), "seconds": seconds}
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("load generator died")
        return json.loads(line)

    def stop(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _body(taskset) -> str:
    """The ``/analyze`` body of one set: Fig.-6 options, wait for the result."""
    import repro.io

    document = {
        "wire_version": 1,
        "taskset": json.loads(repro.io.taskset_to_json(taskset)),
        "options": common.FIG6_OPTIONS,
        "wait": True,
    }
    return json.dumps(document)


class Inputs:
    """Seeded Fig.-6-sized sets and the request bodies that carry them."""

    def __init__(self, seed: int) -> None:
        import numpy as np

        self.seed = seed
        self.sets: List[Any] = []
        self.bodies: List[str] = []
        self.used = 0
        self._rng = np.random.default_rng([seed, 99])
        self._block = 0

    def _extend(self) -> None:
        # Block k holds 6 x 20 sets; block indices start far above the
        # round indices of the in-process workloads.
        fresh = common.fig6_sets(self.seed, 10_000 + self._block, per_point=20)
        self._block += 1
        for index in self._rng.permutation(len(fresh)):
            ts = fresh[int(index)]
            self.sets.append(ts)
            self.bodies.append(_body(ts))

    def schedule(self, n: int) -> Tuple[List[str], List[int], List[bool]]:
        """``n`` bodies: (bodies, set index of each, True where the set is new)."""
        bodies, owners, unique = [], [], []
        for position in range(n):
            if position % REPEAT_EVERY != REPEAT_EVERY - 1 or self.used <= REPEAT_MIN_BACK:
                if self.used >= len(self.sets):
                    self._extend()
                index = self.used
                self.used += 1
                unique.append(True)
            else:
                back = int(
                    self._rng.integers(
                        REPEAT_MIN_BACK, min(REPEAT_MAX_BACK, self.used) + 1
                    )
                )
                index = self.used - back
                unique.append(False)
            owners.append(index)
            bodies.append(self.bodies[index])
        return bodies, owners, unique


class Phase:
    """One constant-rate phase as the load generator saw it.

    Requests due in the first :data:`SETTLE_S` seconds are sent but left
    out of every statistic: after the idle gap between phases the first
    few requests stalled for tens of ms in one run and not in the next,
    which alone moved p99 at 100 req/s by a half.
    """

    def __init__(self, rate: float, result: Dict[str, Any], owners, unique,
                 cpu_s: float) -> None:
        self.rate = rate
        self.all_records = result["records"]
        self.kept = {int(k): v for k, v in result["kept"].items()}
        self.owners = owners
        self.unique = unique
        self.cpu_s = cpu_s
        self.errors = sum(1 for r in self.all_records if not 200 <= r[5] < 300)
        # A short phase (small --seconds) keeps three quarters of its span.
        settle = min(SETTLE_S, 0.25 * self.all_records[-1][0])
        #: Positions the statistics cover.
        self.measured = [i for i, r in enumerate(self.all_records) if r[0] >= settle]
        self.records = [self.all_records[i] for i in self.measured]
        self.latency_ms = [1e3 * (r[4] - r[0]) for r in self.records]

    @property
    def p99_ms(self) -> float:
        return common.percentile(self.latency_ms, 99.0)

    def new_sets_per_cpu_s(self) -> float:
        """New (computed) sets per second of server CPU time, whole phase."""
        return sum(1 for u in self.unique if u) / self.cpu_s


def _cpu_s(pid: int) -> float:
    """User plus system CPU seconds a process has used so far."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _run_phase(loadgen: LoadGen, server: Server, inputs: Inputs, rate: float,
               seconds: float, keep_rng=None) -> Phase:
    n = max(1, int(round(rate * seconds)))
    bodies, owners, unique = inputs.schedule(n)
    keep = ()
    if keep_rng is not None:
        keep = sorted(int(i) for i in keep_rng.choice(n, size=min(CHECK_SAMPLE, n), replace=False))
    cpu0 = _cpu_s(server.proc.pid)
    result = loadgen.phase(rate, bodies, keep)
    phase = Phase(rate, result, owners, unique, _cpu_s(server.proc.pid) - cpu0)
    time.sleep(0.2)  # let the server settle between phases
    return phase


def _run_saturated(loadgen: LoadGen, server: Server, inputs: Inputs,
                   ref: Phase, seconds: float) -> Tuple[float, int, int]:
    """Closed loop, two connections in flight, for ``seconds``.

    Returns (requests answered per second, first sent to last answered;
    requests sent; errors).
    """
    capacity = len(ref.all_records) / ref.cpu_s
    bodies, _owners, _unique = inputs.schedule(int(SAT_MARGIN * capacity * seconds) + 50)
    records = loadgen.phase(None, bodies, seconds=seconds)["records"]
    time.sleep(0.2)
    errors = sum(1 for r in records if not 200 <= r[5] < 300)
    span = max(r[4] for r in records) - min(r[1] for r in records)
    return len(records) / span, len(records), errors


def _expected(taskset) -> Dict[str, Any]:
    """The in-process report of one set, as JSON would carry it."""
    from repro import api

    report = api.evaluate_request(api.AnalysisRequest(taskset=taskset, **common.FIG6_OPTIONS))
    return json.loads(json.dumps(report.to_dict()))


def _check(phase: Phase, inputs: Inputs, expected: Optional[Dict[int, Any]] = None) -> int:
    """Mismatches between sampled responses and the in-process reports."""
    mismatches = 0
    for position, body in phase.kept.items():
        index = phase.owners[position]
        want = expected[index] if expected and index in expected else _expected(inputs.sets[index])
        try:
            got = json.loads(body)["results"][0]
        except (ValueError, KeyError, IndexError, TypeError):
            got = None
        if got != want:
            mismatches += 1
    return mismatches


def _start(seed: int):
    inputs = Inputs(seed)
    server = Server()
    try:
        server.wait_ready()
        loadgen = LoadGen(server.port)
    except BaseException:
        server.stop()
        raise
    return inputs, server, loadgen


def run_measured(seed: int, seconds: float) -> Dict[str, Any]:
    import numpy as np

    setup_s = common.median_setup_s(_cold_start)
    inputs, server, loadgen = _start(seed)
    try:
        warm = _run_phase(loadgen, server, inputs, 50.0, WARM_REQUESTS / 50.0)
        ref = _run_phase(loadgen, server, inputs, REF_RATE, REF_SHARE * seconds,
                         keep_rng=np.random.default_rng([seed, 5]))
        rss = common.peak_rss_mb(server.proc.pid)
    finally:
        loadgen.stop()
        server.stop()
    mismatches = _check(ref, inputs)
    errors = warm.errors + ref.errors
    attempted = len(warm.all_records) + len(ref.all_records)
    return {
        "metrics": {
            "setup_s": setup_s,
            "sets_per_s": ref.new_sets_per_cpu_s(),
            "latency_ms_p50": common.median(ref.latency_ms),
            "peak_rss_mb": rss,
        },
        "attempted": attempted,
        "failed": errors + mismatches,
        "correct": mismatches == 0,
        "notes": f"{len(ref.records)} latency samples at {REF_RATE:g} req/s",
    }


def run_traced(seed: int, seconds: float) -> Dict[str, Any]:
    """Reference phase over HTTP, then the same sets replayed in process."""
    import numpy as np

    from repro import api
    from repro.pipeline.core import job_fingerprint
    from repro.service import schema

    common.fig6_sets(seed, 0, per_point=1)  # imports, outside the timing
    t0 = time.perf_counter()
    generated = common.fig6_sets(seed, 10_000, per_point=20)
    gen_ms = 1e3 * (time.perf_counter() - t0) / len(generated)

    inputs, server, loadgen = _start(seed)
    try:
        warm = _run_phase(loadgen, server, inputs, 50.0, WARM_REQUESTS / 50.0)
        before = server.get("/metrics")[1]["service"]
        ref = _run_phase(loadgen, server, inputs, REF_RATE, TRACED_REF_SHARE * seconds,
                         keep_rng=np.random.default_rng([seed, 5]))
        after = server.get("/metrics")[1]["service"]
        max_rps, sat_sent, sat_errors = _run_saturated(
            loadgen, server, inputs, ref, SAT_SHARE * seconds
        )
    finally:
        loadgen.stop()
        server.stop()
    repeats = sum(1 for u in ref.unique if not u)  # the whole phase, as /metrics
    coalesced = after["jobs_coalesced"] - before["jobs_coalesced"]

    replay = sorted({ref.owners[i] for i in ref.measured if ref.unique[i]})

    def one_pass(tracer: Optional[Tracer] = None):
        """Each set as the server handles it: parse the body, run the core,
        encode the response as ``Server._send_json`` does."""
        span = tracer.span if tracer is not None else _no_span
        common.reset_caches([inputs.sets[i] for i in replay])
        core = api.WorkQueueCore(jobs=1)
        core_s: Dict[int, float] = {}
        responses: Dict[int, bytes] = {}
        perf_before = common.perf_snapshot()
        start = time.perf_counter()
        try:
            for index in replay:
                body = inputs.bodies[index].encode()
                if tracer is not None:
                    tracer.rid = index
                with span("request"):
                    requests, _wait = schema.parse_analyze_payload(body)
                    c0 = time.perf_counter()
                    with span("pipeline"):
                        core.run(requests)
                    core_s[index] = time.perf_counter() - c0
                    with span("io.encode"):
                        handle = core.get_job(job_fingerprint(requests))
                        payload = schema.job_payload(handle, include_results=True)
                        responses[index] = json.dumps(payload).encode("utf-8")
        finally:
            core.close()
        elapsed = time.perf_counter() - start
        reports = {i: json.loads(body)["results"][0] for i, body in responses.items()}
        return elapsed, core_s, reports, common.perf_delta(perf_before)

    untraced_s, core_s, expected, _ = one_pass()
    tracer = Tracer()
    tracer.patch()
    try:
        traced_s, _, traced_reports, perf = one_pass(tracer)
    finally:
        tracer.unpatch()
    # Untraced again after the traced pass: the host's speed drifts by
    # more than the tracing costs, and the mean of the passes before and
    # after cancels a steady drift.
    untraced_s = (untraced_s + one_pass()[0]) / 2

    mismatches = _check(ref, inputs, expected)
    mismatches += sum(1 for i in replay if traced_reports[i] != expected[i])
    errors = warm.errors + ref.errors + sat_errors

    frontend = [
        latency - 1e3 * core_s[ref.owners[p]]
        for p, latency in zip(ref.measured, ref.latency_ms)
        if ref.unique[p]
    ]
    records = ref.records
    attempted = len(warm.all_records) + len(ref.all_records) + sat_sent
    totals = LayerTotals(tracer.spans)
    report_objs = [api.AnalysisReport.from_dict(expected[i]) for i in replay]
    metrics = {
        "generator.ms_per_set": gen_ms,
        **common.span_layer_metrics(totals),
        **common.kernel_layer_metrics(perf),
        **common.report_metrics(report_objs),
        "pipeline.core.coalesce_ratio": common.ratio(coalesced, repeats),
        "service.wire.req_bytes": sum(r[6] for r in records) / len(records),
        "service.wire.resp_bytes": sum(r[7] for r in records) / len(records),
        "service.http.connect_ms": common.median([1e3 * (r[2] - r[1]) for r in records]),
        "service.http.ttfb_ms": common.median([1e3 * (r[3] - r[2]) for r in records]),
        "service.http.read_ms": common.median([1e3 * (r[4] - r[3]) for r in records]),
        "service.frontend_ms": common.median(frontend),
        "max_rps": max_rps,
        "latency_ms_p90": common.percentile(ref.latency_ms, 90.0),
        "latency_ms_p99": ref.p99_ms,
        "loadgen.lag_ms_p99": common.percentile([1e3 * (r[1] - r[0]) for r in records], 99.0),
        "unattributed_ms": totals.self_ms("request"),
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
        "fail_frac": common.ratio(errors + mismatches, attempted),
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": errors + mismatches,
        "correct": mismatches == 0,
        "notes": (
            f"{len(records)} requests at {REF_RATE:g} req/s, {repeats} repeats, "
            f"{coalesced} coalesced; {sat_sent} requests closed loop; "
            f"{len(replay)} sets replayed in process"
            + (f"; missing layer functions: {tracer.missing}" if tracer.missing else "")
        ),
    }


def _no_span(name: str):
    return contextlib.nullcontext()
