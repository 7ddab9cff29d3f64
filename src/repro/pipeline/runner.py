"""The work-queue core's execution path: chunked, supervised, exactly-once.

:class:`~repro.pipeline.core.WorkQueueCore` settles every submission
through :func:`execute`, which evaluates the
:class:`~repro.pipeline.request.AnalysisRequest` items inline (one
worker) or across the core's :class:`PersistentPool` with

* **chunking** — requests ship to workers in chunks so per-task-set IPC
  overhead amortises over the pseudo-polynomial analysis cost; one
  chunk evaluator (:func:`evaluate_chunk`) serves the inline path and
  the pool workers alike;
* **content-addressed caching** — results land in a
  :class:`~repro.pipeline.cache.ResultCache` under the request key, so
  re-running a sweep (or sharing task sets between sweeps) recomputes
  nothing; a corrupt cache entry degrades to a miss, never a crash;
* **error capture** — an :class:`~repro.analysis.budget.
  AnalysisBudgetExceeded` or a degenerate task set becomes a structured
  failure record on that item's report, never a crashed sweep;
* **infrastructure fault tolerance** — the run survives its own
  machinery failing (see :mod:`repro.pipeline.fault_tolerance`):

  - a dead worker or broken pool rebuilds the pool and requeues
    in-flight items exactly once per break, with bounded, seeded
    exponential backoff (:class:`~repro.pipeline.fault_tolerance.
    RetryPolicy`, overridable per request);
  - a hung worker is killed by a wall-clock watchdog
    (``retry.timeout`` seconds per item) and its chunk retried;
  - an item that keeps breaking the pool is escalated to *solitary*
    execution (run alone, so collateral chunks stop paying for it) and,
    after exhausting its attempts, lands in a structured
    ``quarantine.jsonl`` with its attempt history — the batch finishes;
  - checkpoint/cache IO errors are retried and then degrade
    (checkpointing disables itself, a cache write is skipped) rather
    than abort the run;
* **durable checkpoint/resume** — every settled item is appended to a
  JSONL checkpoint as a CRC-wrapped line, flushed *and fsynced* per
  settle batch, so a process kill at any byte offset loses at most
  unsettled in-flight items.  On resume, torn tails and corrupt lines
  are detected (CRC) and treated as "recompute"; duplicate keys resolve
  last-wins; infrastructure failures (worker death, quarantine) are
  transient, not verdicts, and are recomputed.  The file is truncated
  on a non-resume run and compacted atomically on resume;
* **graceful shutdown** — SIGINT/SIGTERM stop scheduling, flush the
  checkpoint and metrics, and raise :class:`~repro.pipeline.
  fault_tolerance.BatchAborted` carrying the resume path — an
  interrupted sweep is a resumable sweep, not a traceback;
* **observability** — with a :class:`~repro.obs.metrics.MetricsRegistry`
  on the core, every run folds in batch statistics, cache hit/miss
  totals, kernel perf counters, per-worker chunk timings and the
  fault-handling counters (``faults.*``: retries, timeouts, pool
  rebuilds, corruption detections — all zero on an undisturbed run).

The evaluation itself (:func:`~repro.pipeline.request.evaluate_request`)
is deterministic and order-independent, so ``jobs=1`` and ``jobs=N``
produce byte-identical reports — the property the pipeline test suite
pins down, and which the chaos harness (:mod:`repro.pipeline.chaos`)
extends to "byte-identical *under injected infrastructure faults*".
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    cast,
)

from repro.obs import trace
from repro.pipeline.cache import ResultCache
from repro.pipeline.fault_tolerance import (
    BatchAborted,
    CheckpointIO,
    DurableAppender,
    FaultStats,
    GracefulShutdown,
    InjectionSpec,
    Quarantine,
    RetryPolicy,
    chaos_pool_initializer,
    decode_durable_line,
    encode_durable_line,
    maybe_inject,
)
from repro.pipeline.payload import (
    AttemptRecord,
    CheckpointEntry,
    ReportPayload,
    WorkerMeta,
)
from repro.pipeline.request import (
    AnalysisFailure,
    AnalysisReport,
    AnalysisRequest,
    evaluate_request,
)

if TYPE_CHECKING:
    from repro.pipeline.core import WorkQueueCore, _Submission

ProgressCallback = Callable[[int, int], None]
ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: Version stamped into every checkpoint entry.  Version 2 entries are
#: CRC-wrapped durable lines; version 1 (pre-CRC) lines are still
#: accepted on resume.  Unknown versions are skipped rather than
#: misinterpreted.  Unlike ``cache.CACHE_FORMAT_VERSION`` it does not
#: track analysis changes: a checkpoint only resumes the run that wrote
#: it, so its reports never outlive the code that computed them.
CHECKPOINT_VERSION = 2

#: Checkpoint entry versions accepted on resume.
_RESUMABLE_VERSIONS = frozenset({1, CHECKPOINT_VERSION})

#: Exceptions converted into per-item failure records instead of
#: aborting the batch.  Deliberately narrow: programming errors
#: (AttributeError, TypeError, ...) still surface immediately.
CAPTURED_ERRORS: Tuple[Type[BaseException], ...] = (ValueError, ArithmeticError)

#: Fixed slack added to a chunk's wall-clock deadline on top of
#: ``timeout * items``: absorbs fork/pickle/dispatch latency so the
#: watchdog measures the work, not the plumbing.
_TIMEOUT_GRACE = 0.5

#: Pool breaks with an unidentified culprit before an item is run in
#: solitary (alone in the pool, so the next break convicts it).
_SUSPECT_THRESHOLD = 2

#: Consecutive pool rebuilds without a single settled chunk before the
#: infrastructure itself is declared dead (not an item's fault).
_MAX_CONSECUTIVE_REBUILDS = 16

#: Upper bound on any single watchdog wait, so signal drain requests
#: and backoff expiries are noticed promptly.
_MAX_POLL_SECONDS = 0.5


def _captured_errors() -> Tuple[Type[BaseException], ...]:
    from repro.analysis.budget import AnalysisBudgetExceeded
    from repro.model.task import ModelError

    return CAPTURED_ERRORS + (AnalysisBudgetExceeded, ModelError)


def evaluate_captured(request: AnalysisRequest) -> AnalysisReport:
    """Evaluate one request, converting analysis errors to failure reports."""
    try:
        return evaluate_request(request)
    except _captured_errors() as error:
        stage = str(getattr(error, "operation", "analysis"))
        return AnalysisReport.failed(
            request, AnalysisFailure.from_exception(stage, error)
        )


#: Failure stages that describe the batch machinery rather than the
#: analysis verdict.  They are transient: resume recomputes them and
#: checkpoint compaction drops them.
INFRASTRUCTURE_STAGES = frozenset({"worker", "quarantine"})


def _is_infrastructure_failure(payload: ReportPayload) -> bool:
    """True when a report payload records a transient machinery failure."""
    failure = payload.get("failure")
    return failure is not None and failure["stage"] in INFRASTRUCTURE_STAGES


#: One unit of work: (request key, request).
_ChunkItem = Tuple[str, AnalysisRequest]

#: Items settled together and committed as one durable batch:
#: (request key, report payload, quarantined).
_Batch = List[Tuple[str, ReportPayload, bool]]


def _kill_executor(executor: ProcessPoolExecutor) -> None:
    """Terminate a pool *now*, including hung workers.

    ``shutdown`` alone would join workers, which never returns while
    one is stuck in an injected (or real) infinite stall — so the
    worker processes are killed first.  ``_processes`` is internal
    to ``ProcessPoolExecutor`` but has been stable across supported
    versions; when absent the shutdown below still detaches us.
    """
    processes = getattr(executor, "_processes", None)
    if processes:
        for process in list(processes.values()):
            try:
                process.kill()
            except (OSError, AttributeError):
                pass
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except (OSError, RuntimeError):
        pass


class PersistentPool:
    """The core's supervised worker pool, kept warm across submissions.

    A long-lived work-queue core (the analysis service) would otherwise
    pay the full fork/spawn cost on every submission.  The pool owns the
    ``ProcessPoolExecutor`` *across* runs:

    * :meth:`acquire` lazily creates the executor (and recreates it after
      a :meth:`discard`) — an inline-only core never forks;
    * :meth:`discard` kills a broken or hung executor — the supervised
      run calls it on every pool break, so fault recovery (rebuild,
      requeue, quarantine) always goes through here;
    * :meth:`close` shuts the executor down for good.

    The pool itself is not thread-safe; the work-queue core serialises
    runs over it (one executing submission at a time — parallelism comes
    from the worker processes, not from concurrent runs).
    """

    def __init__(
        self, jobs: int, injection: Optional[InjectionSpec] = None
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.injection = injection
        self._executor: Optional[ProcessPoolExecutor] = None

    def acquire(self) -> ProcessPoolExecutor:
        """The live executor, building one if necessary."""
        if self._executor is None:
            if self.injection is not None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    initializer=chaos_pool_initializer,
                    initargs=(self.injection,),
                )
            else:
                self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    def discard(self, executor: ProcessPoolExecutor) -> None:
        """Kill a broken executor and forget it (next acquire rebuilds)."""
        _kill_executor(executor)
        if executor is self._executor:
            self._executor = None

    def alive(self) -> bool:
        """False only when the held executor is marked broken.

        A pool that has not been built yet is healthy by definition —
        the next :meth:`acquire` will create it.
        """
        executor = self._executor
        return executor is None or not bool(getattr(executor, "_broken", False))

    def close(self) -> None:
        """Shut the executor down and release its workers."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


def _chunk_size(count: int, jobs: int, configured: Optional[int]) -> int:
    """Items per chunk: ``configured``, else ~4 chunks per worker, capped at 32."""
    return configured or max(1, min(32, math.ceil(count / (jobs * 4))))


def evaluate_chunk(
    chunk: Sequence[_ChunkItem],
    grouped: bool,
    injection: Optional[InjectionSpec] = None,
) -> List[ReportPayload]:
    """Evaluate one chunk into report payloads, in chunk order.

    The one evaluator behind the inline path and the pool workers.
    ``grouped`` routes the chunk through the grouped population
    evaluator (:func:`~repro.pipeline.grouping.evaluate_chunk_grouped`)
    — per-item payloads are byte-identical to the per-item path, only
    the kernel dispatch fuses across the chunk.

    ``injection`` is the chaos harness's deterministic fault seam: when
    armed, an item can SIGKILL its own worker or hang it before any
    evaluation runs (:func:`~repro.pipeline.fault_tolerance.
    maybe_inject`).
    """
    for key, _request in chunk:
        maybe_inject(injection, key)
    requests = [request for _key, request in chunk]
    if grouped:
        from repro.pipeline import grouping

        reports = grouping.evaluate_chunk_grouped(requests)
    else:
        reports = [evaluate_captured(request) for request in requests]
    return [report.to_dict() for report in reports]


def _worker_chunk(
    chunk: Sequence[_ChunkItem],
    trace_enabled: bool,
    injection: Optional[InjectionSpec],
    grouped: bool,
) -> Tuple[List[ReportPayload], WorkerMeta]:
    """Process-pool entry point: evaluate a chunk, return JSON payloads.

    Workers hand back plain dictionaries (the ``to_dict`` encoding), the
    same currency the cache and checkpoint use, so nothing
    analysis-specific ever crosses the process boundary on the way out.
    Alongside the results travels a metadata dict with the worker's
    kernel perf-counter delta for the chunk (kernel counters are per
    process and forked workers inherit the parent's totals, hence the
    delta), the chunk wall time, and — when the parent had tracing on —
    the span records the chunk produced.
    """
    from repro.analysis.kernels import PERF

    if trace_enabled:
        trace.enable()
        trace.drain()  # discard records inherited from the parent via fork
    perf_before = PERF.snapshot()
    t0 = time.perf_counter()
    payloads = evaluate_chunk(chunk, grouped, injection)
    meta: WorkerMeta = {
        "pid": os.getpid(),
        "items": len(chunk),
        "seconds": time.perf_counter() - t0,
        "perf": PERF.delta_since(perf_before),
        "spans": trace.drain() if trace_enabled else [],
    }
    return payloads, meta


@dataclass
class BatchStats:
    """Bookkeeping for one executed submission.

    The settle paths reconcile exactly:
    ``computed + cache_hits + resumed + deduplicated + quarantined ==
    total`` — the exactly-once accounting invariant the chaos harness
    asserts under every injected fault family.

    Instances merge with ``+``: a work-queue core serving many
    submissions aggregates per-job stats into a global tally, and the
    invariant is preserved by the merge (each term is additive and every
    item is settled by exactly one job).
    """

    total: int = 0
    computed: int = 0
    cache_hits: int = 0
    resumed: int = 0
    deduplicated: int = 0
    quarantined: int = 0
    failures: int = 0

    def __add__(self, other: "BatchStats") -> "BatchStats":
        """Field-wise merge of two per-run tallies.

        Because every settled item is counted by exactly one run (the
        core never executes the same submission twice — duplicates
        coalesce onto one job), the merged stats satisfy the same
        exactly-once invariant the per-run stats do.
        """
        return BatchStats(
            total=self.total + other.total,
            computed=self.computed + other.computed,
            cache_hits=self.cache_hits + other.cache_hits,
            resumed=self.resumed + other.resumed,
            deduplicated=self.deduplicated + other.deduplicated,
            quarantined=self.quarantined + other.quarantined,
            failures=self.failures + other.failures,
        )

    def reconciles(self) -> bool:
        """True when the exactly-once accounting invariant holds."""
        return self.settled() == self.total

    def to_dict(self) -> Dict[str, int]:
        return {
            "total": self.total,
            "computed": self.computed,
            "cache_hits": self.cache_hits,
            "resumed": self.resumed,
            "deduplicated": self.deduplicated,
            "quarantined": self.quarantined,
            "failures": self.failures,
        }

    def settled(self) -> int:
        """Items accounted for so far (the left side of the invariant)."""
        return (
            self.computed
            + self.cache_hits
            + self.resumed
            + self.deduplicated
            + self.quarantined
        )


@dataclass
class _Tracked:
    """Parent-side state of one pending unique key in the pool path."""

    key: str
    request: AnalysisRequest
    policy: RetryPolicy
    attempts: List[AttemptRecord] = field(default_factory=list)
    counted: int = 0  # attempts charged toward quarantine
    suspect_breaks: int = 0  # pool breaks with this item in flight, culprit unknown
    solitary: bool = False

    def record(self, stage: str, error: Optional[BaseException], counted: bool) -> None:
        self.attempts.append(
            {
                "attempt": len(self.attempts) + 1,
                "stage": stage,
                "error_type": type(error).__name__ if error is not None else stage,
                "message": str(error) if error is not None else stage,
            }
        )
        if counted:
            self.counted += 1

    def exhausted(self) -> bool:
        return self.counted >= self.policy.max_attempts


@dataclass
class _Flight:
    """One submitted chunk: its items and (optional) watchdog deadline."""

    chunk: List[_Tracked]
    deadline: Optional[float]
    solitary: bool


# ----------------------------------------------------------------------
# Checkpoint and cache plumbing
# ----------------------------------------------------------------------
def _load_checkpoint(
    path: Path, io: CheckpointIO, faults: FaultStats
) -> Dict[str, ReportPayload]:
    """Completed payloads by key; corruption-tolerant.

    Every line is CRC-verified (:func:`~repro.pipeline.
    fault_tolerance.decode_durable_line`); a torn tail, a flipped
    bit or a truncated line counts as corrupt and that item is
    simply recomputed.  Duplicate keys resolve last-wins (an
    append-mode file can hold a failed attempt followed by a later
    success).  Infrastructure failures — a worker died, an item was
    quarantined — are transient, not verdicts: they are dropped so
    resume retries those items against (hopefully) healthier
    machinery.
    """
    completed: Dict[str, ReportPayload] = {}
    if not path.exists():
        return completed
    try:
        text = io.read_text(path)
    except OSError:
        faults.checkpoint_io_errors += 1
        return completed
    for line in text.splitlines():
        if not line.strip():
            continue
        entry = decode_durable_line(line)
        if entry is None:
            faults.checkpoint_corrupt_lines += 1
            continue
        if entry.get("checkpoint_version") not in _RESUMABLE_VERSIONS:
            continue
        key = entry.get("key")
        report = entry.get("report")
        if not isinstance(key, str) or not isinstance(report, dict):
            faults.checkpoint_corrupt_lines += 1
            continue
        payload = cast(ReportPayload, report)
        if _is_infrastructure_failure(payload):
            completed.pop(key, None)
            continue
        completed[key] = payload
    return completed


def _open_appender(
    path: Path,
    resume: bool,
    completed: Dict[str, ReportPayload],
    core: "WorkQueueCore",
    faults: FaultStats,
) -> DurableAppender:
    """Open the durable checkpoint appender.

    Not resuming: truncate — stale entries from an unrelated earlier
    run must not leak into a later resume.  Resuming: rewrite the
    file as one compacted CRC line per surviving key (atomically,
    via a temp file) before reopening for append, so duplicates and
    infrastructure failures don't accumulate across interruptions.
    A failed compaction is not fatal: the appender falls back to
    plain append and last-wins resume absorbs the duplicates.
    """
    if resume and path.exists():
        lines = []
        # Canonical compaction order: the append order of the dying
        # file reflects jobs=N scheduling, so a key-sorted rewrite
        # keeps compacted checkpoints byte-identical across runs.
        for key, payload in sorted(completed.items()):
            entry: CheckpointEntry = {
                "checkpoint_version": CHECKPOINT_VERSION,
                "key": key,
                "report": payload,
            }
            lines.append(encode_durable_line(entry))
        try:
            core.io.write_text_atomic(path, "".join(line + "\n" for line in lines))
        except OSError:
            faults.checkpoint_io_errors += 1
        return DurableAppender(path, io=core.io, policy=core.retry)
    return DurableAppender(path, io=core.io, policy=core.retry, truncate=True)


def _cache_put(
    cache: ResultCache,
    key: str,
    payload: ReportPayload,
    retry: RetryPolicy,
    faults: FaultStats,
) -> None:
    """Store in the cache, retrying IO errors; a lost entry is not fatal."""
    for attempt in range(1, retry.max_attempts + 1):
        try:
            cache.put(key, payload)
            return
        except OSError:
            faults.cache_io_errors += 1
            if attempt >= retry.max_attempts:
                return  # cache is an optimisation: degrade, don't abort
            time.sleep(retry.delay(f"cache:{key}", attempt))


# ----------------------------------------------------------------------
# The settle loop
# ----------------------------------------------------------------------
def execute(
    core: "WorkQueueCore",
    submission: "_Submission",
    progress: ProgressCallback,
    install_signal_handlers: bool,
) -> List[ReportPayload]:
    """Settle every request of ``submission`` exactly once, in request order.

    Checkpoint and cache hits settle first, duplicate keys collapse to
    one evaluation, and the rest is evaluated inline (one worker, or a
    single pending key) or on the core's supervised pool.  The per-run
    tallies accumulate into ``submission.stats``/``submission.faults``
    as items settle, so an interrupted run still reports what it did.
    ``progress(done, total)`` is called after every settled item.

    Raises :class:`~repro.pipeline.fault_tolerance.BatchAborted`
    when a trapped SIGINT/SIGTERM drains the run early; everything
    settled up to that point is flushed and resumable.
    """
    from repro.analysis.kernels import PERF

    requests = submission.requests
    stats, faults = submission.stats, submission.faults
    stats.total = len(requests)
    cache, metrics = core.cache, core.metrics
    checkpoint = Path(submission.checkpoint) if submission.checkpoint is not None else None
    payloads: List[Optional[ReportPayload]] = [None] * len(requests)

    perf_before = PERF.snapshot()
    cache_before = (
        (cache.hits, cache.misses, cache.corrupt, cache.io_errors)
        if cache is not None
        else (0, 0, 0, 0)
    )
    t_run = time.perf_counter()
    resumed: Dict[str, ReportPayload] = (
        _load_checkpoint(checkpoint, core.io, faults)
        if submission.resume and checkpoint is not None
        else {}
    )

    # Settle cache/checkpoint hits and dedup the rest by key: a
    # population containing the same configured task set twice costs
    # one evaluation.  A failure payload counts as a failure however
    # it arrives — computed, cached, resumed or quarantined.
    pending: Dict[str, List[int]] = {}
    pending_request: Dict[str, AnalysisRequest] = {}
    for index, request in enumerate(requests):
        key = request.key
        payload = resumed.get(key)
        if payload is not None:
            payloads[index] = payload
            stats.resumed += 1
            if payload.get("failure") is not None:
                stats.failures += 1
            continue
        if cache is not None:
            payload = cache.get(key)
            if payload is not None:
                payloads[index] = payload
                stats.cache_hits += 1
                if payload.get("failure") is not None:
                    stats.failures += 1
                continue
        if key in pending:
            pending[key].append(index)
        else:
            pending[key] = [index]
            pending_request[key] = request

    done = len(requests) - sum(len(v) for v in pending.values())
    if done:
        progress(done, len(requests))

    appender = (
        _open_appender(checkpoint, submission.resume, resumed, core, faults)
        if checkpoint is not None
        else None
    )
    quarantine_file = (
        Quarantine(core.quarantine, io=core.io, policy=core.retry)
        if core.quarantine is not None
        else None
    )

    def settle(key: str, payload: ReportPayload, quarantined: bool) -> None:
        nonlocal done
        indices = pending[key]
        if payloads[indices[0]] is not None:
            raise RuntimeError(
                f"batch item {key} settled twice — exactly-once "
                f"accounting would be violated"
            )
        for index in indices:
            payloads[index] = payload
        done += len(indices)
        if quarantined:
            stats.quarantined += 1
        else:
            stats.computed += 1
        stats.deduplicated += len(indices) - 1
        if payload.get("failure") is not None:
            stats.failures += 1
        if cache is not None and not quarantined:
            # A quarantined verdict is transient; caching it would
            # resurface an infrastructure hiccup as a cached fact.
            _cache_put(cache, key, payload, core.retry, faults)
        if appender is not None:
            entry: CheckpointEntry = {
                "checkpoint_version": CHECKPOINT_VERSION,
                "key": key,
                "report": payload,
            }
            appender.append(entry)
        progress(done, len(requests))

    work = [(key, pending_request[key]) for key in pending]
    try:
        with GracefulShutdown(install=install_signal_handlers) as shutdown:
            batches = (
                _inline_batches(core, work, shutdown)
                if core.jobs == 1 or len(work) <= 1
                else _pool_batches(core, work, shutdown, faults, quarantine_file)
            )
            for batch in batches:
                for key, payload, quarantined in batch:
                    settle(key, payload, quarantined)
                if appender is not None:
                    appender.commit()
            if shutdown.requested and done < len(requests):
                raise BatchAborted(
                    shutdown.signal_name or "signal", done, len(requests), checkpoint
                )
    finally:
        if appender is not None:
            appender.close()
            faults.checkpoint_io_errors += appender.io_errors
        if quarantine_file is not None:
            quarantine_file.close()
            faults.checkpoint_io_errors += quarantine_file.io_errors
        if cache is not None:
            faults.cache_corrupt += cache.corrupt - cache_before[2]
            faults.cache_io_errors += cache.io_errors - cache_before[3]
        if metrics is not None:
            # The main-process kernel delta covers the inline path (and
            # is zero under a pool); worker deltas were folded in per
            # chunk.  Folding in ``finally`` means an aborted run still
            # flushes everything it measured.
            metrics.record_kernel_perf(PERF.delta_since(perf_before))
            metrics.record_batch_stats(stats.to_dict())
            metrics.record_fault_stats(faults.to_dict())
            if cache is not None:
                metrics.record_cache(
                    cache.hits - cache_before[0], cache.misses - cache_before[1]
                )
            metrics.timing("batch.wall_seconds", time.perf_counter() - t_run)

    settled: List[ReportPayload] = []
    for index, payload in enumerate(payloads):
        if payload is None:  # unreachable unless settle logic regresses
            raise RuntimeError(
                f"batch item {index} ({requests[index].key}) never settled"
            )
        settled.append(payload)
    return settled


def _inline_batches(
    core: "WorkQueueCore", work: Sequence[_ChunkItem], shutdown: GracefulShutdown
) -> Iterator[_Batch]:
    """Evaluate in the calling process: item by item, or in population chunks."""
    grouped = core.population and len(work) > 1
    size = _chunk_size(len(work), core.jobs, core.chunk_size) if grouped else 1
    for start in range(0, len(work), size):
        if shutdown.requested:
            return
        chunk = work[start : start + size]
        t0 = time.perf_counter()
        payloads = evaluate_chunk(chunk, grouped)
        yield [(key, payload, False) for (key, _), payload in zip(chunk, payloads)]
        if core.metrics is not None:
            core.metrics.record_chunk("inline", len(chunk), time.perf_counter() - t0)


def _chunk_deadline(chunk: List[_Tracked], now: float) -> Optional[float]:
    """Watchdog deadline for a chunk, or None when any item opts out."""
    total = 0.0
    for item in chunk:
        timeout = item.policy.timeout
        if timeout is None:
            return None
        total += timeout
    return now + total + _TIMEOUT_GRACE


def _pool_batches(
    core: "WorkQueueCore",
    work: Sequence[_ChunkItem],
    shutdown: GracefulShutdown,
    faults: FaultStats,
    quarantine_file: Optional[Quarantine],
) -> Iterator[_Batch]:
    """Evaluate on the core's supervised pool; one batch per settled chunk.

    Items that exhaust their attempts settle as quarantine failure
    reports (recorded in ``quarantine_file`` when configured).  A drain
    request kills the pool and stops without settling in-flight work.
    """
    pool, metrics = core.pool, core.metrics
    tracked = [
        _Tracked(
            key=key,
            request=request,
            policy=request.retry if request.retry is not None else core.retry,
        )
        for key, request in work
    ]
    size = _chunk_size(len(tracked), core.jobs, core.chunk_size)
    ready: Deque[List[_Tracked]] = deque(
        tracked[i : i + size] for i in range(0, len(tracked), size)
    )
    delayed: List[Tuple[float, List[_Tracked]]] = []
    solitary: Deque[_Tracked] = deque()
    exhausted: _Batch = []
    in_flight: Dict["Future[Tuple[List[ReportPayload], WorkerMeta]]", _Flight] = {}
    trace_enabled = trace.is_enabled()
    executor: Optional[ProcessPoolExecutor] = None
    consecutive_rebuilds = 0

    def quarantine(item: _Tracked) -> None:
        last = item.attempts[-1] if item.attempts else None
        failure = AnalysisFailure(
            stage="quarantine",
            error_type=last["error_type"] if last else "Unknown",
            message=(
                f"quarantined after {item.counted} counted attempts "
                f"({len(item.attempts)} recorded: "
                + ", ".join(a["stage"] for a in item.attempts)
                + ")"
            ),
        )
        if quarantine_file is not None:
            quarantine_file.record(item.key, item.request.taskset.name, item.attempts)
        report = AnalysisReport.failed(item.request, failure)
        exhausted.append((item.key, report.to_dict(), True))

    def requeue(item: _Tracked, delay: float) -> None:
        """Route one item back into the right queue (or quarantine)."""
        if item.exhausted():
            quarantine(item)
            return
        item.solitary = item.solitary or item.suspect_breaks >= _SUSPECT_THRESHOLD
        if item.solitary:
            solitary.append(item)
        elif delay > 0.0:
            delayed.append((time.perf_counter() + delay, [item]))
        else:
            ready.append([item])

    def break_pool(culprit_known: bool) -> None:
        """Kill + forget the pool; requeue everything in flight once."""
        nonlocal executor, consecutive_rebuilds
        faults.pool_rebuilds += 1
        consecutive_rebuilds += 1
        if executor is not None:
            pool.discard(executor)
            executor = None
        collateral = list(in_flight.values())
        in_flight.clear()
        for flight in collateral:
            for item in flight.chunk:
                # Exactly-once requeue per break: the item goes back
                # into a queue a single time, as a singleton so one
                # bad chunk-mate cannot keep dragging it down.
                item.record("pool", None, counted=False)
                if not culprit_known:
                    item.suspect_breaks += 1
                requeue(item, 0.0)
        if consecutive_rebuilds > _MAX_CONSECUTIVE_REBUILDS:
            raise RuntimeError(
                f"process pool broke {consecutive_rebuilds} times without "
                f"settling a single chunk; infrastructure is unusable"
            )

    def submit(chunk: List[_Tracked], is_solitary: bool) -> None:
        """Submit one chunk; a pool broken at submit time requeues it."""
        nonlocal executor
        if executor is None:
            executor = pool.acquire()
        items: List[_ChunkItem] = [(item.key, item.request) for item in chunk]
        try:
            future = executor.submit(
                _worker_chunk, items, trace_enabled, core.injection, core.population
            )
        except BrokenProcessPool:
            # The chunk never ran: requeue it for free, recycle the
            # pool, and charge the break to whatever was in flight.
            if is_solitary:
                solitary.extendleft(reversed(chunk))
            else:
                ready.appendleft(chunk)
            break_pool(culprit_known=False)
            return
        in_flight[future] = _Flight(
            chunk=chunk,
            deadline=_chunk_deadline(chunk, time.perf_counter()),
            solitary=is_solitary,
        )

    def handle_failure(flight: _Flight, error: BaseException) -> None:
        """A chunk future completed exceptionally (pool still alive)."""
        chunk = flight.chunk
        if len(chunk) > 1:
            # Culprit unknown inside the chunk: isolate to singletons
            # without charging anyone an attempt yet.
            for item in chunk:
                item.record("isolate", error, counted=False)
                requeue(item, 0.0)
            return
        item = chunk[0]
        stage = "worker" if flight.solitary else "compute"
        item.record(stage, error, counted=True)
        faults.retries += 1
        requeue(item, item.policy.delay(item.key, item.counted))

    while ready or delayed or solitary or in_flight or exhausted:
        if exhausted:
            batch = list(exhausted)
            exhausted.clear()
            yield batch
        if shutdown.requested:
            if executor is not None:
                pool.discard(executor)
            return

        now = time.perf_counter()
        if delayed:
            due = [chunk for when, chunk in delayed if when <= now]
            delayed[:] = [(when, c) for when, c in delayed if when > now]
            ready.extend(due)

        # Fill the window: at most ``jobs`` chunks in flight, so every
        # submitted chunk is actually running and its watchdog deadline
        # measures work, not queueing.  Solitary items run strictly
        # alone — the next pool break convicts them beyond doubt.
        while ready and len(in_flight) < core.jobs:
            submit(ready.popleft(), is_solitary=False)
        if not ready and not delayed and not in_flight and solitary:
            submit([solitary.popleft()], is_solitary=True)

        if not in_flight:
            if delayed and not ready:
                next_due = min(when for when, _chunk in delayed)
                time.sleep(
                    min(max(next_due - time.perf_counter(), 0.0), _MAX_POLL_SECONDS)
                )
            continue

        poll = _MAX_POLL_SECONDS
        deadlines = [
            flight.deadline
            for flight in in_flight.values()
            if flight.deadline is not None
        ]
        if deadlines:
            poll = min(poll, max(min(deadlines) - time.perf_counter(), 0.01))
        finished, _pending = wait(
            set(in_flight), timeout=poll, return_when=FIRST_COMPLETED
        )

        broken = False
        for future in finished:
            flight = in_flight.pop(future)
            error = future.exception()
            if error is None:
                payloads, meta = future.result()
                consecutive_rebuilds = 0
                if metrics is not None:
                    metrics.record_chunk(
                        f"pid{meta['pid']}", meta["items"], meta["seconds"]
                    )
                    metrics.record_kernel_perf(meta["perf"])
                if meta["spans"]:
                    trace.extend(meta["spans"])
                yield [
                    (item.key, payload, False)
                    for item, payload in zip(flight.chunk, payloads)
                ]
            elif isinstance(error, BrokenProcessPool):
                # The whole pool died; every in-flight chunk is a
                # casualty and none of them is provably the cause.
                for item in flight.chunk:
                    item.record("pool", error, counted=flight.solitary)
                    if flight.solitary:
                        # Ran alone: the conviction is definitive.
                        faults.retries += 1
                        requeue(item, item.policy.delay(item.key, item.counted))
                    else:
                        item.suspect_breaks += 1
                        requeue(item, 0.0)
                broken = True
            else:
                handle_failure(flight, error)
        if broken:
            break_pool(culprit_known=False)
            continue

        # Watchdog: a chunk past its wall-clock deadline means a hung
        # worker.  Kill the pool (the only way to reclaim the process),
        # charge the expired chunk a timeout attempt, and requeue the
        # innocent bystander chunks for free.
        now = time.perf_counter()
        expired = [
            future
            for future, flight in in_flight.items()
            if flight.deadline is not None and now >= flight.deadline
        ]
        if expired:
            faults.timeouts += len(expired)
            for future in expired:
                flight = in_flight.pop(future)
                for item in flight.chunk:
                    item.record(
                        "timeout",
                        TimeoutError(f"exceeded {item.policy.timeout}s/item watchdog"),
                        counted=True,
                    )
                    faults.retries += 1
                    requeue(item, item.policy.delay(item.key, item.counted))
            break_pool(culprit_known=True)


def map_items(
    fn: Callable[[ItemT], ResultT],
    items: Iterable[ItemT],
    jobs: int,
    progress: Optional[ProgressCallback] = None,
) -> List[ResultT]:
    """Map a picklable top-level function over items in ``jobs`` processes, in order.

    No caching, checkpointing or failure capture — exceptions propagate
    and the caller owns the item semantics.  A ``BrokenProcessPool``
    rebuilds the pool and recomputes the not-yet-consumed tail, bounded
    by the default :class:`~repro.pipeline.fault_tolerance.RetryPolicy`
    attempt budget, so a dead worker does not end the sweep.
    """
    items = list(items)
    retry = RetryPolicy()
    size = _chunk_size(len(items), jobs, None)
    results: List[ResultT] = []
    breaks = 0
    while len(results) < len(items):
        remaining = items[len(results):]
        try:
            with ProcessPoolExecutor(max_workers=jobs) as executor:
                for result in executor.map(fn, remaining, chunksize=size):
                    results.append(result)
                    if progress is not None:
                        progress(len(results), len(items))
        except BrokenProcessPool as error:
            breaks += 1
            if breaks >= retry.max_attempts:
                raise RuntimeError(
                    f"map_items pool broke {breaks} times; giving up"
                ) from error
            time.sleep(retry.delay("map_items", breaks))
    return results
