"""Seeded chaos harness for the batch pipeline's fault tolerance.

The fault-handling machinery in :mod:`repro.pipeline.fault_tolerance`
and the :class:`~repro.pipeline.core.WorkQueueCore` execution path is
only trustworthy if it is *exercised*: every recovery path here is
driven by deterministic, seeded fault injection against a real
population sweep, and two properties are asserted after every
disturbance:

1. **Exactly-once accounting** — ``computed + cache_hits + resumed +
   deduplicated + quarantined == total``: no item is lost, none settles
   twice, whatever the machinery went through.
2. **Byte-identical reports** — every item not deliberately poisoned
   produces exactly the payload an undisturbed serial run produces.
   Fault handling may cost time; it may never change an answer.

Fault families (each a :class:`FaultFamily`, each against a fresh
working directory and the same seeded population):

``worker-kill``
    Selected items SIGKILL their worker once (an OOM-kill stand-in);
    the pool must rebuild and the in-flight items retry exactly once.
``worker-hang``
    One item stalls far past its wall-clock budget; the watchdog must
    kill the pool and retry the chunk.
``fork-crash``
    Fresh pool workers die in their initializer, breaking the pool
    before any work runs.
``poison``
    One item kills its worker on *every* attempt; it must escalate to
    solitary execution, exhaust its budget and land in quarantine while
    every other item stays byte-identical.
``corruption``
    A finished checkpoint gets a torn tail, a flipped bit and a corrupt
    cache entry; resume must detect all three (CRC) and recompute.
``disk-full``
    The durable IO layer raises ``ENOSPC`` — first transiently (retry
    must absorb it, resumability preserved), then persistently
    (checkpointing must degrade to disabled, results still correct).

Everything is seeded — the population, the fault placement, the retry
jitter — so a chaos failure reproduces exactly.  One-shot faults are
claimed through atomic marker files (see
:class:`~repro.pipeline.fault_tolerance.InjectionSpec`), which is what
lets a retried item find a healthy world and the byte-identity
assertion hold.

CLI: ``repro-mc chaos [--quick] [--jobs N]`` (exit 0 only when every
family's assertions hold).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from repro.pipeline.cache import ResultCache
from repro.pipeline.core import WorkQueueCore
from repro.pipeline.fault_tolerance import (
    CheckpointIO,
    InjectionSpec,
    RetryPolicy,
    decode_durable_line,
    disk_full_error,
    load_quarantine,
)
from repro.pipeline.payload import ReportPayload
from repro.pipeline.request import AnalysisRequest
from repro.pipeline.runner import evaluate_captured

#: Population size of the full chaos sweep (and its ``--quick`` cut).
FULL_SETS = 200
QUICK_SETS = 60


class FlakyIO(CheckpointIO):
    """IO seam that fails a scripted subset of durable calls with ENOSPC.

    Calls (``write_line`` + ``commit`` + ``write_text_atomic``) are
    counted; the first ``fail_first`` raise, and every call after
    ``fail_after`` (when set) raises — the transient-glitch and the
    disk-stays-full schedules.  Fully deterministic: same schedule,
    same failures.
    """

    def __init__(
        self, fail_first: int = 0, fail_after: Optional[int] = None
    ) -> None:
        self.fail_first = fail_first
        self.fail_after = fail_after
        self.calls = 0
        self.failures = 0

    def _gate(self) -> None:
        self.calls += 1
        if self.calls <= self.fail_first or (
            self.fail_after is not None and self.calls > self.fail_after
        ):
            self.failures += 1
            raise disk_full_error()

    def write_line(self, handle: TextIO, line: str) -> None:
        self._gate()
        super().write_line(handle, line)

    def commit(self, handle: TextIO) -> None:
        self._gate()
        super().commit(handle)

    def write_text_atomic(self, path: Path, text: str) -> None:
        self._gate()
        super().write_text_atomic(path, text)


@dataclass
class FamilyOutcome:
    """Result of one fault family's run: assertions plus the evidence."""

    family: str
    ok: bool
    seconds: float
    stats: Dict[str, int]
    faults: Dict[str, int]
    notes: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


@dataclass
class ChaosResult:
    """Aggregate verdict of a chaos sweep."""

    sets: int
    jobs: int
    seed: int
    outcomes: List[FamilyOutcome]

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)


def _payload_bytes(payload: ReportPayload) -> str:
    return json.dumps(payload, sort_keys=True)


class _Checker:
    """Collects assertion failures instead of stopping at the first."""

    def __init__(self) -> None:
        self.errors: List[str] = []

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.errors.append(message)

    def check_invariant(self, core: WorkQueueCore) -> None:
        stats = core.stats
        self.check(
            stats.settled() == stats.total,
            f"exactly-once invariant violated: computed={stats.computed} "
            f"+ cache_hits={stats.cache_hits} + resumed={stats.resumed} "
            f"+ deduplicated={stats.deduplicated} "
            f"+ quarantined={stats.quarantined} != total={stats.total}",
        )

    def check_identical(
        self,
        baseline: Sequence[ReportPayload],
        observed: Sequence[ReportPayload],
        exclude: Tuple[str, ...] = (),
    ) -> None:
        """Byte-identity of every report whose key is not excluded."""
        self.check(
            len(baseline) == len(observed),
            f"report count differs: {len(baseline)} != {len(observed)}",
        )
        differing = [
            payload["key"][:12]
            for ref, payload in zip(baseline, observed)
            if payload["key"] not in exclude
            and _payload_bytes(ref) != _payload_bytes(payload)
        ]
        self.check(
            not differing,
            f"{len(differing)} reports differ from the undisturbed run: "
            + ", ".join(differing[:5]),
        )


def _build_population(sets: int, seed: int) -> List[AnalysisRequest]:
    from repro.generator.taskgen import GeneratorConfig, generate_taskset

    rng = np.random.default_rng(seed)
    return [
        AnalysisRequest(
            taskset=generate_taskset(0.6, rng, GeneratorConfig(), name=f"chaos{i}"),
            speedup=2.0,
        )
        for i in range(sets)
    ]


#: A fault family: (name, callable(requests, baseline, workdir, jobs,
#: seed, checker) -> (stats, faults, notes)).
_FamilyFn = Callable[
    [
        List[AnalysisRequest],
        List[ReportPayload],
        Path,
        int,
        int,
        "_Checker",
    ],
    Tuple[Dict[str, int], Dict[str, int], List[str]],
]


def _policy(seed: int, timeout: Optional[float] = None) -> RetryPolicy:
    return RetryPolicy(
        max_attempts=3,
        backoff_base=0.01,
        backoff_max=0.2,
        seed=seed,
        timeout=timeout,
    )


def _run(
    requests: List[AnalysisRequest],
    workdir: Path,
    jobs: int,
    policy: RetryPolicy,
    injection: Optional[InjectionSpec] = None,
    cache: Optional[ResultCache] = None,
    io: Optional[CheckpointIO] = None,
    resume: bool = False,
    chunk_size: Optional[int] = None,
    quarantine: bool = False,
) -> Tuple[WorkQueueCore, List[ReportPayload]]:
    """One run on a fresh core; returns the closed core (its stats and
    faults are this run's) and the report payloads."""
    core = WorkQueueCore(
        jobs=jobs,
        cache=cache,
        chunk_size=chunk_size,
        retry=policy,
        quarantine=(workdir / "quarantine.jsonl") if quarantine else None,
        io=io,
        injection=injection,
    )
    try:
        reports = core.run(
            requests,
            checkpoint=workdir / "checkpoint.jsonl",
            resume=resume,
            install_signal_handlers=False,
        )
    finally:
        core.close()
    return core, [report.to_dict() for report in reports]


def _armed(workdir: Path) -> Path:
    armed = workdir / "armed"
    armed.mkdir(parents=True, exist_ok=True)
    return armed


def _family_worker_kill(
    requests: List[AnalysisRequest],
    baseline: List[ReportPayload],
    workdir: Path,
    jobs: int,
    seed: int,
    checker: _Checker,
) -> Tuple[Dict[str, int], Dict[str, int], List[str]]:
    rng = np.random.default_rng(seed + 1)
    victims = tuple(
        requests[i].key for i in rng.choice(len(requests), size=3, replace=False)
    )
    spec = InjectionSpec(armed_dir=str(_armed(workdir)), kill_keys=victims)
    core, observed = _run(
        requests, workdir, jobs, _policy(seed, timeout=30.0), injection=spec
    )
    checker.check_invariant(core)
    checker.check_identical(baseline, observed)
    checker.check(
        core.faults.pool_rebuilds >= 1,
        f"worker kills never broke the pool (rebuilds="
        f"{core.faults.pool_rebuilds})",
    )
    checker.check(core.stats.quarantined == 0, "kill victims were quarantined")
    return (
        core.stats.to_dict(),
        core.faults.to_dict(),
        [f"{len(victims)} one-shot worker kills injected"],
    )


def _family_worker_hang(
    requests: List[AnalysisRequest],
    baseline: List[ReportPayload],
    workdir: Path,
    jobs: int,
    seed: int,
    checker: _Checker,
) -> Tuple[Dict[str, int], Dict[str, int], List[str]]:
    rng = np.random.default_rng(seed + 2)
    victim = requests[int(rng.integers(len(requests)))].key
    spec = InjectionSpec(
        armed_dir=str(_armed(workdir)), hang_keys=(victim,), hang_seconds=120.0
    )
    core, observed = _run(
        requests,
        workdir,
        jobs,
        _policy(seed, timeout=1.0),
        injection=spec,
        chunk_size=4,
    )
    checker.check_invariant(core)
    checker.check_identical(baseline, observed)
    checker.check(
        core.faults.timeouts >= 1,
        f"watchdog never fired on the hung worker (timeouts="
        f"{core.faults.timeouts})",
    )
    checker.check(core.stats.quarantined == 0, "hang victim was quarantined")
    return (
        core.stats.to_dict(),
        core.faults.to_dict(),
        ["1 worker hang injected (120s stall vs 1s/item watchdog)"],
    )


def _family_fork_crash(
    requests: List[AnalysisRequest],
    baseline: List[ReportPayload],
    workdir: Path,
    jobs: int,
    seed: int,
    checker: _Checker,
) -> Tuple[Dict[str, int], Dict[str, int], List[str]]:
    spec = InjectionSpec(armed_dir=str(_armed(workdir)), fork_crashes=max(1, jobs - 1))
    core, observed = _run(
        requests, workdir, jobs, _policy(seed, timeout=30.0), injection=spec
    )
    checker.check_invariant(core)
    checker.check_identical(baseline, observed)
    checker.check(
        core.faults.pool_rebuilds >= 1,
        f"fork crashes never broke the pool (rebuilds="
        f"{core.faults.pool_rebuilds})",
    )
    return (
        core.stats.to_dict(),
        core.faults.to_dict(),
        [f"{spec.fork_crashes} fork-time worker crashes injected"],
    )


def _family_poison(
    requests: List[AnalysisRequest],
    baseline: List[ReportPayload],
    workdir: Path,
    jobs: int,
    seed: int,
    checker: _Checker,
) -> Tuple[Dict[str, int], Dict[str, int], List[str]]:
    rng = np.random.default_rng(seed + 3)
    poison = requests[int(rng.integers(len(requests)))].key
    spec = InjectionSpec(armed_dir=str(_armed(workdir)), poison_keys=(poison,))
    core, observed = _run(
        requests,
        workdir,
        jobs,
        _policy(seed, timeout=30.0),
        injection=spec,
        quarantine=True,
    )
    checker.check_invariant(core)
    checker.check_identical(baseline, observed, exclude=(poison,))
    checker.check(
        core.stats.quarantined == 1,
        f"poison item was not quarantined (quarantined="
        f"{core.stats.quarantined})",
    )
    entries = load_quarantine(workdir / "quarantine.jsonl")
    checker.check(
        len(entries) == 1 and entries[0]["key"] == poison,
        "quarantine.jsonl does not record exactly the poison item",
    )
    checker.check(
        bool(entries) and len(entries[0]["attempts"]) >= 3,
        "quarantine record lacks the attempt history",
    )
    poisoned = [p for p in observed if p["key"] == poison]
    checker.check(
        bool(poisoned)
        and poisoned[0]["failure"] is not None
        and poisoned[0]["failure"]["stage"] == "quarantine",
        "poison item's report does not carry a quarantine failure record",
    )
    return (
        core.stats.to_dict(),
        core.faults.to_dict(),
        ["1 every-attempt worker killer injected (quarantine expected)"],
    )


def _family_corruption(
    requests: List[AnalysisRequest],
    baseline: List[ReportPayload],
    workdir: Path,
    jobs: int,
    seed: int,
    checker: _Checker,
) -> Tuple[Dict[str, int], Dict[str, int], List[str]]:
    cache = ResultCache(workdir / "cache")
    first, _observed = _run(
        requests, workdir, jobs, _policy(seed, timeout=30.0), cache=cache
    )
    checker.check_invariant(first)

    # Disturb the durable state the way real crashes and bad disks do:
    # keep half the checkpoint plus a torn final line, flip a character
    # inside one surviving line, and truncate on-disk cache entries —
    # picking entries whose keys will *not* resume from the checkpoint,
    # so the resumed run is guaranteed to look them up and must detect
    # the damage.
    ckpt = workdir / "checkpoint.jsonl"
    lines = ckpt.read_text().splitlines()
    keep = max(2, len(lines) // 2)
    kept = lines[:keep]
    kept[keep // 2] = kept[keep // 2][:-8] + "X" + kept[keep // 2][-7:]
    ckpt.write_text("\n".join(kept) + "\n" + lines[keep][: len(lines[keep]) // 2])
    surviving = {
        entry["key"]
        for entry in (decode_durable_line(line) for line in kept)
        if entry is not None and isinstance(entry.get("key"), str)
    }
    truncated = 0
    for request in requests:
        if truncated >= 3 or request.key in surviving:
            continue
        entry_file = workdir / "cache" / request.key[:2] / f"{request.key}.json"
        if entry_file.exists():
            entry_file.write_text(entry_file.read_text()[:40])
            truncated += 1

    fresh_cache = ResultCache(workdir / "cache")
    resumed, observed = _run(
        requests,
        workdir,
        jobs,
        _policy(seed, timeout=30.0),
        cache=fresh_cache,
        resume=True,
    )
    checker.check_invariant(resumed)
    checker.check_identical(baseline, observed)
    checker.check(
        resumed.faults.checkpoint_corrupt_lines >= 2,
        f"CRC missed the corrupt checkpoint lines (detected="
        f"{resumed.faults.checkpoint_corrupt_lines})",
    )
    checker.check(
        resumed.stats.resumed < len(requests),
        "nothing was recomputed despite a truncated checkpoint",
    )
    checker.check(
        resumed.faults.cache_corrupt >= 1,
        f"CRC missed the truncated cache entries (cache_corrupt="
        f"{resumed.faults.cache_corrupt})",
    )
    return (
        resumed.stats.to_dict(),
        resumed.faults.to_dict(),
        [
            f"checkpoint cut to {keep} lines + torn tail + 1 bit flip; "
            f"{truncated} cache entries truncated",
            f"resumed {resumed.stats.resumed}, recomputed "
            f"{resumed.stats.computed}, cache hits {resumed.stats.cache_hits}",
        ],
    )


def _family_disk_full(
    requests: List[AnalysisRequest],
    baseline: List[ReportPayload],
    workdir: Path,
    jobs: int,
    seed: int,
    checker: _Checker,
) -> Tuple[Dict[str, int], Dict[str, int], List[str]]:
    # Transient ENOSPC: the first two durable calls fail, retry absorbs
    # them, and the checkpoint must come out complete (resumable).
    transient_dir = workdir / "transient"
    transient_dir.mkdir(parents=True, exist_ok=True)
    transient_io = FlakyIO(fail_first=2)
    core, observed = _run(
        requests, transient_dir, jobs, _policy(seed, timeout=30.0), io=transient_io
    )
    checker.check_invariant(core)
    checker.check_identical(baseline, observed)
    checker.check(
        core.faults.checkpoint_io_errors >= 1,
        "transient ENOSPC schedule never fired",
    )
    replay, _payloads = _run(
        requests, transient_dir, 1, _policy(seed), resume=True
    )
    checker.check(
        replay.stats.resumed == len(requests),
        f"checkpoint not fully resumable after transient ENOSPC "
        f"(resumed={replay.stats.resumed}/{len(requests)})",
    )

    # Disk stays full: checkpointing must degrade to disabled while the
    # sweep still completes with byte-identical results.
    persistent_dir = workdir / "persistent"
    persistent_dir.mkdir(parents=True, exist_ok=True)
    persistent_io = FlakyIO(fail_after=10)
    full_core, full_observed = _run(
        requests, persistent_dir, jobs, _policy(seed, timeout=30.0), io=persistent_io
    )
    checker.check_invariant(full_core)
    checker.check_identical(baseline, full_observed)
    checker.check(
        full_core.faults.checkpoint_io_errors >= 3,
        f"persistent ENOSPC never exhausted the retry budget "
        f"(io_errors={full_core.faults.checkpoint_io_errors})",
    )
    stats = full_core.stats.to_dict()
    faults = full_core.faults.to_dict()
    faults["checkpoint_io_errors"] += core.faults.checkpoint_io_errors
    return (
        stats,
        faults,
        [
            f"transient: {transient_io.failures} injected failures, "
            f"checkpoint resumable",
            f"persistent: {persistent_io.failures} injected failures, "
            f"checkpointing degraded, results intact",
        ],
    )


FAMILIES: Dict[str, _FamilyFn] = {
    "worker-kill": _family_worker_kill,
    "worker-hang": _family_worker_hang,
    "fork-crash": _family_fork_crash,
    "poison": _family_poison,
    "corruption": _family_corruption,
    "disk-full": _family_disk_full,
}


def run_chaos(
    workdir: Path,
    sets: Optional[int] = None,
    jobs: int = 4,
    seed: int = 42,
    quick: bool = False,
    families: Optional[Sequence[str]] = None,
) -> ChaosResult:
    """Run every requested fault family against a seeded population.

    ``workdir`` holds each family's checkpoint/cache/quarantine files
    (one subdirectory per family; the caller owns cleanup — a temp
    directory in tests and the CLI).  Unknown family names raise
    ``ValueError`` so a typo cannot silently pass as "all green".
    """
    chosen = list(families) if families is not None else list(FAMILIES)
    unknown = [name for name in chosen if name not in FAMILIES]
    if unknown:
        raise ValueError(
            f"unknown fault families: {', '.join(unknown)} "
            f"(known: {', '.join(FAMILIES)})"
        )
    population_size = sets if sets is not None else (QUICK_SETS if quick else FULL_SETS)
    requests = _build_population(population_size, seed)
    baseline = [evaluate_captured(request).to_dict() for request in requests]

    outcomes: List[FamilyOutcome] = []
    for name in chosen:
        family_dir = workdir / name
        family_dir.mkdir(parents=True, exist_ok=True)
        checker = _Checker()
        t0 = time.perf_counter()
        try:
            stats, faults, notes = FAMILIES[name](
                requests, baseline, family_dir, jobs, seed, checker
            )
        except Exception as error:  # a crash is a chaos failure, not an abort
            checker.errors.append(
                f"harness raised {type(error).__name__}: {error}"
            )
            stats, faults, notes = {}, {}, []
        outcomes.append(
            FamilyOutcome(
                family=name,
                ok=not checker.errors,
                seconds=time.perf_counter() - t0,
                stats=stats,
                faults=faults,
                notes=notes,
                errors=checker.errors,
            )
        )
    return ChaosResult(sets=population_size, jobs=jobs, seed=seed, outcomes=outcomes)


def render(result: ChaosResult) -> str:
    """Human-readable chaos verdict table."""
    out = [
        f"Chaos sweep: {result.sets} task sets, jobs={result.jobs}, "
        f"seed={result.seed}",
        "",
    ]
    for outcome in result.outcomes:
        flag = "PASS" if outcome.ok else "FAIL"
        out.append(f"[{flag}] {outcome.family:<12} ({outcome.seconds:.1f}s)")
        for note in outcome.notes:
            out.append(f"       {note}")
        interesting = {k: v for k, v in outcome.faults.items() if v}
        if interesting:
            out.append(
                "       faults: "
                + ", ".join(f"{k}={v}" for k, v in sorted(interesting.items()))
            )
        for error in outcome.errors:
            out.append(f"       ERROR: {error}")
    out.append("")
    verdict = "all families PASS" if result.ok else "CHAOS FAILURES DETECTED"
    out.append(
        f"{verdict}: exactly-once accounting and byte-identical reports "
        f"{'held' if result.ok else 'were violated'} under every injected fault"
        if result.ok
        else f"{verdict} — see errors above"
    )
    return "\n".join(out)
