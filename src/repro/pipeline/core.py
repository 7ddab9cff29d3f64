"""The work-queue core: the one executor every client shares.

:class:`WorkQueueCore` is the long-lived heart of the pipeline.  It owns
every cross-run resource — the content-addressed
:class:`~repro.pipeline.cache.ResultCache`, a
:class:`~repro.pipeline.runner.PersistentPool` of worker processes, the
core-wide :class:`~repro.pipeline.fault_tolerance.RetryPolicy`, the
quarantine sink and the :class:`~repro.obs.metrics.MetricsRegistry` —
and settles every submission through one execution path
(:func:`repro.pipeline.runner.execute`: chunked fan-out,
retry/watchdog/pool-rebuild fault handling, durable checkpoints).  The
figure sweeps and :func:`repro.api.analyze_many` use a one-shot core,
``repro-mc batch`` is one synchronous client and the HTTP service the
asynchronous one.

Two client shapes:

* **Synchronous** (the CLI, ``analyze_many``): :meth:`WorkQueueCore.run`
  executes the submission in the calling thread — signal handlers stay
  installable (main thread only), ``BatchAborted`` propagates for the
  resume-hint path, and per-run checkpoint/resume arguments apply
  directly.
* **Asynchronous** (the HTTP service): :meth:`WorkQueueCore.submit`
  enqueues the submission and returns a :class:`JobHandle`
  immediately; a single dispatcher thread drains the queue FIFO, so
  submissions never race each other over the shared pool and the
  global accounting stays exactly-once.

Both paths **coalesce duplicate work** at two levels:

* *job level* — a submission's identity is the SHA-256 over its ordered
  request keys (:func:`job_fingerprint`).  Submitting a byte-identical
  job while the first is queued, running, or still in the bounded
  completed-job registry returns the *same* :class:`JobHandle` — the
  same job id over the wire — and executes nothing.
* *request level* — distinct jobs that share individual request keys
  settle the overlap from the shared cache (``cache_hits``) or as
  within-job duplicates (``deduplicated``); only genuinely new keys are
  computed.

Per-job stats reconcile exactly (``computed + cache_hits + resumed +
deduplicated + quarantined == total``) and the core's global tally is
their :meth:`~repro.pipeline.runner.BatchStats.__add__` sum — each item
is charged to exactly one executed job, and coalesced submissions are
counted separately (:attr:`WorkQueueCore.jobs_coalesced`), never folded
into batch accounting, so the invariant holds globally as well.
"""

from __future__ import annotations

import hashlib
import json
import queue
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import MetricsRegistry
from repro.pipeline.cache import ResultCache
from repro.pipeline.fault_tolerance import (
    CheckpointIO,
    FaultStats,
    InjectionSpec,
    RetryPolicy,
)
from repro.pipeline.payload import ReportPayload
from repro.pipeline.request import AnalysisReport, AnalysisRequest
from repro.pipeline.runner import (
    BatchStats,
    PersistentPool,
    ProgressCallback,
    execute,
)

PathLike = Union[str, Path]

#: States a job moves through: ``queued`` (accepted, not yet picked up
#: by the dispatcher), ``running`` (executing on the shared pool),
#: ``done`` (payloads available) and ``error`` (the run itself failed —
#: infrastructure declared dead or the submission was aborted; per-item
#: analysis failures are *not* job errors, they are failure reports).
JOB_STATES = ("queued", "running", "done", "error")

#: Completed jobs kept for duplicate-submission dedup and result
#: retrieval before eviction (oldest-first).
COMPLETED_CAPACITY = 1024


def job_fingerprint(requests: Sequence[AnalysisRequest]) -> str:
    """Content address of a submission: SHA-256 over its ordered request keys.

    Request keys are themselves content hashes (task set + options,
    ``FINGERPRINT_VERSION`` 2), so two submissions carrying the same
    task sets with the same options in the same order get the same job
    id — the property the service's dedup/coalescing relies on.
    """
    digest = hashlib.sha256()
    digest.update(
        json.dumps([request.key for request in requests]).encode("ascii")
    )
    return digest.hexdigest()


class JobHandle:
    """Observable state of one submitted job.

    Written by the dispatcher thread, read from any other thread (the
    service's event loop, a CLI progress line): plain attribute writes
    are ordered before the terminal :meth:`wait` event is set, so a
    reader that observed :meth:`is_done` always sees the final payloads
    and stats.
    """

    def __init__(self, job_id: str, total: int) -> None:
        self.job_id = job_id
        self.total = total
        self.state: str = "queued"
        self.done_count: int = 0
        #: Duplicate submissions that coalesced onto this job.
        self.coalesced: int = 0
        self.stats: Optional[BatchStats] = None
        self.error: Optional[str] = None
        self._payloads: Optional[List[ReportPayload]] = None
        self._event = threading.Event()
        self._callback_lock = threading.Lock()
        self._callbacks: List[Callable[[], None]] = []

    def is_done(self) -> bool:
        """True once the job settled (successfully or not)."""
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job settles; False on timeout."""
        return self._event.wait(timeout)

    def add_done_callback(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the job settles.

        Fires immediately (in the calling thread) when the job already
        settled, otherwise from the thread that settles it — the bridge
        an event loop uses (``loop.call_soon_threadsafe``) to await a
        job without polling.
        """
        with self._callback_lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback()

    def _finish(self) -> None:
        """Mark the job settled and fire the registered callbacks."""
        self._event.set()
        with self._callback_lock:
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback()

    def payloads(self) -> List[ReportPayload]:
        """The settled report payloads (raises until :meth:`is_done`)."""
        if not self._event.is_set():
            raise RuntimeError(f"job {self.job_id} has not settled yet")
        if self._payloads is None:
            raise RuntimeError(f"job {self.job_id} failed: {self.error}")
        return self._payloads

    def result(self) -> List[AnalysisReport]:
        """The settled reports, revived from their payloads."""
        return [AnalysisReport.from_dict(payload) for payload in self.payloads()]


@dataclass
class _Submission:
    """One unit of work: a handle, its per-run options and its tallies."""

    handle: JobHandle
    requests: List[AnalysisRequest]
    checkpoint: Optional[PathLike]
    resume: bool
    progress: Optional[ProgressCallback]
    stats: BatchStats = field(default_factory=BatchStats)
    faults: FaultStats = field(default_factory=FaultStats)


class WorkQueueCore:
    """The executor: a long-lived, supervised submission queue.

    The constructor holds every shared-resource option; per-run options
    (``checkpoint``, ``resume``, ``progress`` and, for :meth:`run`,
    ``install_signal_handlers``) travel with each submission.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` (default) runs inline with no pool —
        the two paths produce identical reports.
    cache:
        Optional :class:`ResultCache`; hits skip evaluation entirely.
        Corrupt entries degrade to misses; failed writes are retried
        under ``retry`` and then skipped.
    retry:
        Core-wide :class:`~repro.pipeline.fault_tolerance.RetryPolicy`
        (attempt budget, backoff, per-item watchdog timeout) for
        infrastructure failures; ``request.retry`` overrides it per
        item.
    quarantine:
        Optional JSONL path: items that exhaust their attempts are
        recorded there (with full attempt history) and settle as
        ``stage="quarantine"`` failure reports instead of aborting the
        batch.  Without a path, quarantining still happens — only the
        forensic file is skipped.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; every run
        folds in batch stats, cache totals, kernel perf deltas (summed
        across workers), per-worker chunk timings and fault counters.
    chunk_size:
        Requests per worker chunk (default: balance ~4 chunks per
        worker, capped at 32).
    io:
        Injectable filesystem seam for the durable writes (checkpoint,
        quarantine); the chaos harness substitutes a failing one.
    injection:
        Deterministic worker-fault injection spec (chaos/testing only).
    population:
        Evaluate chunks through the grouped population path
        (:func:`~repro.pipeline.grouping.evaluate_chunk_grouped`): one
        fused kernel dispatch per analysis stage per chunk instead of
        per item.  Reports, caching, checkpointing and the exactly-once
        stats are byte-identical to the per-item path at any ``jobs``
        count; only the kernel perf counters (``kernel_evals``,
        ``cells``) group differently, which is why this is opt-in.

    The core is thread-safe: ``submit`` may be called from any thread,
    and one dispatcher thread executes submissions FIFO over the shared
    :class:`~repro.pipeline.runner.PersistentPool`.  :meth:`run` is the
    synchronous client path and serialises against the dispatcher
    through the same execution lock.  :meth:`close` releases the pool's
    worker processes.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        retry: Optional[RetryPolicy] = None,
        quarantine: Optional[PathLike] = None,
        metrics: Optional[MetricsRegistry] = None,
        chunk_size: Optional[int] = None,
        io: Optional[CheckpointIO] = None,
        injection: Optional[InjectionSpec] = None,
        population: bool = False,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.jobs = jobs
        self.cache = cache
        self.retry = retry if retry is not None else RetryPolicy()
        self.quarantine = quarantine
        self.metrics = metrics
        self.chunk_size = chunk_size
        self.io = io if io is not None else CheckpointIO()
        self.injection = injection
        self.population = population
        #: Shared supervised pool; its executor is built on first use,
        #: so an inline (jobs=1) core never forks.
        self.pool = PersistentPool(jobs, injection)
        #: Executed submissions (coalesced duplicates excluded).
        self.jobs_executed = 0
        #: Submissions answered by an existing queued/running/completed job.
        self.jobs_coalesced = 0
        self._stats = BatchStats()
        self._faults = FaultStats()
        self._registry_lock = threading.Lock()
        self._exec_lock = threading.Lock()
        self._active: Dict[str, JobHandle] = {}
        self._completed: "OrderedDict[str, JobHandle]" = OrderedDict()
        self._queue: "queue.SimpleQueue[Optional[_Submission]]" = queue.SimpleQueue()
        self._dispatcher: Optional[threading.Thread] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Aggregate views
    # ------------------------------------------------------------------
    @property
    def stats(self) -> BatchStats:
        """Global exactly-once tally: the ``+``-sum of every executed job."""
        return self._stats

    @property
    def faults(self) -> FaultStats:
        """Fault-handling counters summed over every executed job."""
        return self._faults

    def active_count(self) -> int:
        """Jobs currently queued or running (coalesced targets included once)."""
        with self._registry_lock:
            return len(self._active)

    def get_job(self, job_id: str) -> Optional[JobHandle]:
        """Look a job up by id in the active set or the completed registry."""
        with self._registry_lock:
            handle = self._active.get(job_id)
            if handle is None:
                handle = self._completed.get(job_id)
            return handle

    def alive(self) -> bool:
        """Liveness probe: dispatcher (if started) and pool are healthy."""
        if self._closed:
            return False
        dispatcher = self._dispatcher
        if dispatcher is not None and not dispatcher.is_alive():
            return False
        return self.pool.alive()

    # ------------------------------------------------------------------
    # Submission paths
    # ------------------------------------------------------------------
    def submit(
        self,
        requests: Sequence[AnalysisRequest],
        *,
        checkpoint: Optional[PathLike] = None,
        resume: bool = False,
        progress: Optional[ProgressCallback] = None,
    ) -> Tuple[JobHandle, bool]:
        """Enqueue a job; returns ``(handle, coalesced)`` immediately.

        ``coalesced`` is True when an identical job (same
        :func:`job_fingerprint`) was already queued, running, or still
        in the completed registry — the existing handle is returned and
        nothing is executed or re-counted.  Per-run options
        (``checkpoint``/``resume``/``progress``) apply only when this
        call actually creates the job.
        """
        items = list(requests)
        handle, coalesced = self._register(items, dispatch=True)
        if not coalesced:
            self._queue.put(
                _Submission(handle, items, checkpoint, resume, progress)
            )
        return handle, coalesced

    def run(
        self,
        requests: Sequence[AnalysisRequest],
        *,
        checkpoint: Optional[PathLike] = None,
        resume: bool = False,
        progress: Optional[ProgressCallback] = None,
        install_signal_handlers: bool = True,
    ) -> List[AnalysisReport]:
        """Execute a submission synchronously in the calling thread.

        This is the CLI client: signal handlers can be installed (main
        thread), :class:`~repro.pipeline.fault_tolerance.BatchAborted`
        propagates so the caller can print the resume command, and the
        reports come back in request order.  Duplicate submissions
        coalesce exactly as in :meth:`submit` (an identical in-flight
        job is awaited, a completed one answers from the registry).
        """
        items = list(requests)
        handle, coalesced = self._register(items, dispatch=False)
        if coalesced:
            handle.wait()
        else:
            submission = _Submission(handle, items, checkpoint, resume, progress)
            self._execute(submission, install_signal_handlers=install_signal_handlers)
        return handle.result()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: Optional[float] = None) -> None:
        """Drain queued submissions, stop the dispatcher, shut the pool.

        New submissions are rejected from the moment ``close`` is
        called; work already in the queue still executes (the stop
        sentinel sits behind it, FIFO), which is the graceful-drain
        contract the service's SIGTERM path relies on.
        """
        with self._registry_lock:
            already_closed = self._closed
            self._closed = True
            dispatcher = self._dispatcher
        if not already_closed and dispatcher is not None:
            self._queue.put(None)
            dispatcher.join(timeout)
        if self.pool is not None:
            self.pool.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _register(
        self, items: List[AnalysisRequest], *, dispatch: bool
    ) -> Tuple[JobHandle, bool]:
        """The job for ``items``: ``(existing, True)`` or ``(new, False)``.

        A new job joins the active set; with ``dispatch`` the dispatcher
        thread is started under the same lock, so a concurrent
        :meth:`close` either rejects the job or drains it.
        """
        job_id = job_fingerprint(items)
        with self._registry_lock:
            if self._closed:
                raise RuntimeError("work-queue core is closed")
            existing = self._lookup_locked(job_id)
            if existing is not None:
                existing.coalesced += 1
                self.jobs_coalesced += 1
                return existing, True
            handle = JobHandle(job_id, total=len(items))
            self._active[job_id] = handle
            if dispatch:
                self._ensure_dispatcher_locked()
        return handle, False

    def _lookup_locked(self, job_id: str) -> Optional[JobHandle]:
        """Find an existing job by id; refreshes completed-registry LRU."""
        handle = self._active.get(job_id)
        if handle is not None:
            return handle
        done = self._completed.get(job_id)
        if done is not None:
            self._completed.move_to_end(job_id)
        return done

    def _ensure_dispatcher_locked(self) -> None:
        if self._dispatcher is None:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop,
                name="workqueue-dispatcher",
                daemon=True,
            )
            self._dispatcher.start()

    def _dispatch_loop(self) -> None:
        while True:
            submission = self._queue.get()
            if submission is None:
                return
            try:
                self._execute(submission)
            except Exception:
                # Recorded on the handle by _settle; the dispatcher must
                # outlive any single job, else the queue starves.
                pass

    def _execute(
        self, submission: _Submission, *, install_signal_handlers: bool = False
    ) -> None:
        handle = submission.handle
        client_progress = submission.progress

        def progress(done: int, total: int) -> None:
            handle.done_count = done
            if client_progress is not None:
                client_progress(done, total)

        with self._exec_lock:
            handle.state = "running"
            try:
                payloads = execute(
                    self, submission, progress, install_signal_handlers
                )
            except BaseException as error:
                self._settle(submission, None, error)
                raise
            self._settle(submission, payloads, None)

    def _settle(
        self,
        submission: _Submission,
        payloads: Optional[List[ReportPayload]],
        error: Optional[BaseException],
    ) -> None:
        handle = submission.handle
        with self._registry_lock:
            self._stats = self._stats + submission.stats
            for name, value in submission.faults.to_dict().items():
                setattr(self._faults, name, getattr(self._faults, name) + value)
            self.jobs_executed += 1
            handle.stats = submission.stats
            self._active.pop(handle.job_id, None)
            if error is None:
                handle._payloads = payloads
                handle.state = "done"
                # Only successful jobs join the dedup registry: a job
                # that died to infrastructure (or was aborted) is
                # transient, and a resubmission must retry it rather
                # than coalesce onto the stale failure.
                self._completed[handle.job_id] = handle
                self._completed.move_to_end(handle.job_id)
                while len(self._completed) > COMPLETED_CAPACITY:
                    self._completed.popitem(last=False)
            else:
                handle.error = f"{type(error).__name__}: {error}"
                handle.state = "error"
        handle._finish()
