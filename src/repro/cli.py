"""Command-line entry point: regenerate any paper table/figure.

Usage::

    repro-mc table1 | fig1 | fig3 | fig4 | fig5 | validate
    repro-mc fig6 | fig7 | multiproc [--quick] [--jobs N] [--population]
    repro-mc resilience [--quick] [--jobs N] [--csv out.csv]
    repro-mc all [--quick] [--jobs N] [--population] [--csv out.csv]
    repro-mc analyze --taskset my_tasks.json [--speedup 2] [--budget 5000]
                     [--report]
    repro-mc batch --tasksets dir/ [--jobs N] [--population] [--speedup S]
                   [--budget B] [--checkpoint ckpt.jsonl] [--resume ckpt.jsonl]
                   [--cache DIR] [--retries N] [--timeout SECS]
                   [--quarantine out.jsonl] [--out DIR] [--csv out.csv]
                   [--verbose] [--metrics out.json] [--trace out.jsonl]
    repro-mc serve [--host H] [--port P] [--jobs N] [--cache DIR]
                   [--quarantine out.jsonl]
    repro-mc chaos [--quick] [--jobs N] [--families kill,poison,...]
                   [--chaos-seed N]
    repro-mc lint [paths ...] [--format text|json|sarif]
                  [--baseline FILE] [--write-baseline] [--rules RL001,...]
                  [--contracts FILE] [--write-contracts]

Each command accepts only the flags listed for it; any other flag is a
usage error (exit status 2).
``--quick`` shrinks the synthetic population sizes so the whole
evaluation finishes in about a minute (the benchmark harness under
``benchmarks/`` runs the paper-scale versions).  ``analyze`` runs the
full dual-mode analysis on a user-supplied JSON task set (see
:mod:`repro.io` for the format); ``batch`` runs it over a directory of
task-set files through the parallel pipeline (:mod:`repro.pipeline`)
with caching, durable checkpointing, per-file failure capture and
infrastructure fault tolerance (``--retries``/``--timeout`` bound the
retry budget and per-item watchdog; ``--quarantine`` collects poison
items instead of aborting; Ctrl-C drains gracefully and prints the
resume command).  ``--jobs`` fans the synthetic-population figures, the
resilience sweep and ``batch`` over worker processes; results are
identical to ``--jobs 1``.  ``chaos`` runs the seeded fault-injection
harness (:mod:`repro.pipeline.chaos`) and exits non-zero unless
exactly-once accounting and byte-identical reports hold under every
fault family.  ``serve`` starts the analysis-as-a-service HTTP front-end
(:mod:`repro.service`) over the same work-queue core as ``batch`` —
POST task sets to ``/analyze``, poll ``/jobs/{id}``, scrape
``/metrics``; SIGTERM drains gracefully.  ``lint`` runs the repro-lint
static-analysis pack
(:mod:`repro.lint`) over the given paths (default ``src``) and exits
non-zero on any non-baselined finding.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from typing import Callable, Dict, Optional, Sequence, Tuple


def _run_table1() -> str:
    from repro.api import min_speedup, resetting_time
    from repro.experiments import table1

    out = [table1.render(), ""]
    ts, tsd = table1.table1_taskset(), table1.table1_degraded_taskset()
    out.append(f"Example 1: s_min            = {min_speedup(ts).s_min:.6g} (paper: 4/3)")
    out.append(f"Example 1: s_min (degraded) = {min_speedup(tsd).s_min:.6g} (paper: 0.875)")
    out.append(
        f"Example 2: Delta_R(s=2)     = {resetting_time(ts, 2.0).delta_r:.6g} (paper: 6)"
    )
    out.append(
        f"Example 2: Delta_R(s=4/3)   = {resetting_time(ts, 4.0 / 3.0).delta_r:.6g}"
    )
    return "\n".join(out)


def _render(module: str) -> Callable[[argparse.Namespace], str]:
    """Runner for an experiment module whose ``render()`` needs no flags."""

    def run(_args: argparse.Namespace) -> str:
        return importlib.import_module(f"repro.experiments.{module}").render()

    return run


def _run_fig6(args: argparse.Namespace) -> str:
    from repro.experiments import fig6

    n = 60 if args.quick else 500
    n_sweep = 30 if args.quick else 200
    points = fig6.run(sets_per_point=n, jobs=args.jobs, population=args.population)
    sweep = fig6.run_sweep(
        sets_per_point=n_sweep, jobs=args.jobs, population=args.population
    )
    return fig6.render(points, sweep)


def _run_fig7(args: argparse.Namespace) -> str:
    from repro.experiments import fig7

    n = 20 if args.quick else 100
    grid = fig7.run(sets_per_point=n, jobs=args.jobs, population=args.population)
    return fig7.render(grid)


def _run_multiproc(args: argparse.Namespace) -> str:
    from repro.experiments import figM

    if args.quick:
        cells = figM.run(
            u_bounds=(0.5, 0.7),
            core_counts=(2, 4),
            speedup_caps=(2.0, 3.0),
            sets_per_point=12,
            jobs=args.jobs,
            population=args.population,
        )
    else:
        cells = figM.run(jobs=args.jobs, population=args.population)
    return figM.render(cells)


def _run_validate() -> str:
    from repro.experiments.table1 import table1_degraded_taskset, table1_taskset
    from repro.sim.validate import validate_bounds

    out = ["Simulator-vs-analysis validation (Table I example):"]
    for name, ts in (
        ("no degradation", table1_taskset()),
        ("with degradation", table1_degraded_taskset()),
    ):
        report = validate_bounds(ts, speedup=2.0, horizon=400.0)
        out.append(
            f"  {name}: s_min={report.s_min:.4g}, Delta_R(2)={report.delta_r:.4g}, "
            f"misses@2x={report.misses_at_s_min}, "
            f"max episode={report.max_episode:.4g}, "
            f"bounds hold: {report.bounds_hold}"
        )
    return "\n".join(out)


def _run_resilience(args: argparse.Namespace) -> str:
    from repro.io import write_records_csv
    from repro.sim.resilience import render, run_suite

    verdicts = run_suite(quick=args.quick, jobs=args.jobs)
    if args.csv:
        write_records_csv(args.csv, [v.to_record() for v in verdicts])
    out = render(verdicts)
    if args.csv:
        out += f"\nverdicts written to {args.csv}"
    return out


def _run_analyze(path: str, speedup, budget) -> str:
    """Dual-mode analysis report for a user-supplied JSON task set."""
    import math

    from repro.api import (
        load_taskset,
        max_tolerable_gamma,
        min_speedup_margin,
        system_schedulable,
    )

    taskset = load_taskset(path)
    out = [f"Task set {taskset.name!r} ({len(taskset)} tasks):", taskset.table(), ""]
    report = system_schedulable(taskset, s=speedup)
    out.append(f"LO mode schedulable at nominal speed: {report.lo_ok}")
    out.append(f"Theorem 2 minimum HI-mode speedup:    {report.s_min.s_min:.6g}")
    if speedup is not None:
        out.append(f"HI mode schedulable at s = {speedup:g}:      {report.hi_ok}")
        if report.resetting is not None:
            out.append(
                f"Corollary 5 resetting time at s = {speedup:g}: "
                f"{report.resetting.delta_r:.6g}"
            )
            if budget is not None:
                ok = report.within_reset_budget(budget)
                out.append(f"Within recovery budget {budget:g}:        {ok}")
        out.append(
            f"Speedup margin (headroom):            "
            f"{min_speedup_margin(taskset, speedup):.6g}"
        )
        if report.schedulable:
            gamma = max_tolerable_gamma(
                taskset, speedup,
                reset_budget=budget if budget is not None else math.inf,
            )
            if gamma is not None:
                out.append(f"Max tolerable WCET ratio gamma:       {gamma:.4g}")
    return "\n".join(out)


def _batch_command(args, parser) -> int:
    """Analyse every task-set JSON in a directory through the pipeline.

    Prints the report table and returns the process exit code: 0 on a
    completed run, ``128 + signum`` when SIGINT/SIGTERM drained the run
    early (after printing the resume command).
    """
    from pathlib import Path

    from repro import api
    from repro.io import write_records_csv
    from repro.pipeline.fault_tolerance import BatchAborted, RetryPolicy

    directory = Path(args.tasksets)
    if not directory.is_dir():
        parser.error(f"--tasksets: {directory} is not a directory")
    files = sorted(directory.glob("*.json"))
    if not files:
        parser.error(f"--tasksets: no .json task sets in {directory}")
    tasksets = [api.load_taskset(f) for f in files]

    from repro.obs import MetricsRegistry, ProgressLine, trace
    from repro.pipeline.core import WorkQueueCore

    checkpoint = args.resume if args.resume else args.checkpoint
    metrics = MetricsRegistry() if args.metrics else None
    progress_line = ProgressLine(label="analysed") if args.verbose else None
    retry = RetryPolicy(
        max_attempts=args.retries,
        timeout=args.timeout,
    )
    # The CLI is one client of the shared work-queue core (the HTTP
    # service is the other); core.run executes in this thread so signal
    # handlers install and BatchAborted propagates for the resume hint.
    core = WorkQueueCore(
        jobs=args.jobs,
        cache=api.ResultCache(args.cache) if args.cache else None,
        retry=retry,
        quarantine=args.quarantine,
        metrics=metrics,
        population=args.population,
    )
    requests = [
        api.AnalysisRequest(
            taskset=ts, speedup=args.speedup, reset_budget=args.budget
        )
        for ts in tasksets
    ]
    if args.trace:
        trace.enable()
        trace.clear()
    try:
        reports = core.run(
            requests,
            checkpoint=checkpoint,
            resume=bool(args.resume),
            progress=progress_line.update if progress_line is not None else None,
        )
    except BatchAborted as aborted:
        import signal as signal_module

        ckpt = aborted.checkpoint
        print(
            f"\ninterrupted by {aborted.signal_name}: "
            f"{aborted.done}/{aborted.total} items settled and flushed"
        )
        if ckpt is not None:
            print(
                f"resume with: repro-mc batch --tasksets {directory} "
                f"--resume {ckpt} --jobs {args.jobs}"
            )
        else:
            print(
                "no checkpoint was configured; pass --checkpoint to make "
                "interrupted runs resumable"
            )
        if metrics is not None:
            metrics.write_json(args.metrics)
        try:
            signum = int(getattr(signal_module.Signals, aborted.signal_name))
        except (AttributeError, ValueError):
            signum = 2
        return 128 + signum
    finally:
        core.close()
        if progress_line is not None:
            progress_line.close()
        if args.trace:
            trace.disable()

    header = (
        f"{'taskset':<24}{'lo':>4}{'s_min':>10}{'hi':>4}{'Delta_R':>10}"
        f"{'budget':>7}{'status':>8}"
    )
    out = [
        f"Batch analysis of {len(files)} task sets from {directory} "
        f"(s = {args.speedup:g}"
        + (f", budget = {args.budget:g}" if args.budget is not None else "")
        + f", jobs = {args.jobs})",
        header,
        "-" * len(header),
    ]

    def flag(verdict) -> str:
        return "-" if verdict is None else ("y" if verdict else "N")

    for report in reports:
        status = "failed" if report.failure is not None else ("ok" if report.ok else "no")
        out.append(
            f"{report.name:<24}{flag(report.lo_ok):>4}{report.s_min:>10.4g}"
            f"{flag(report.hi_ok):>4}{report.delta_r:>10.4g}"
            f"{flag(report.within_budget):>7}{status:>8}"
        )
    for report in reports:
        if report.failure is not None:
            out.append(
                f"  {report.name}: {report.failure.error_type} "
                f"in {report.failure.stage}: {report.failure.message}"
            )
    stats = core.stats
    out.append(
        f"{stats.total} analysed: {stats.computed} computed, "
        f"{stats.cache_hits} cache hits, {stats.resumed} resumed, "
        f"{stats.deduplicated} deduplicated, {stats.quarantined} quarantined, "
        f"{stats.failures} failures"
    )
    if core.faults.any_faults():
        out.append(
            "fault handling: "
            + ", ".join(
                f"{key}={value}"
                for key, value in sorted(core.faults.to_dict().items())
                if value
            )
        )
    if args.quarantine and stats.quarantined:
        out.append(f"quarantined item details in {args.quarantine}")
    if metrics is not None:
        metrics.write_json(args.metrics)
        out.append(f"metrics written to {args.metrics} ({metrics.summary()})")
    if args.trace:
        spans = trace.write_jsonl(args.trace)
        trace.clear()
        out.append(f"{spans} trace spans written to {args.trace}")
    if args.csv:
        write_records_csv(args.csv, [r.to_record() for r in reports])
        out.append(f"records written to {args.csv}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for path, report in zip(files, reports):
            api.save_report(report, out_dir / f"{path.stem}.report.json")
        out.append(f"{len(reports)} reports written to {out_dir}")
    print("\n".join(out))
    return 0


def _chaos_command(args) -> int:
    """Run the seeded fault-injection harness; non-zero on any failure."""
    import tempfile
    from pathlib import Path

    from repro.pipeline import chaos

    families = (
        [name.strip() for name in args.families.split(",") if name.strip()]
        if args.families
        else None
    )
    # Injection happens inside pool workers, so chaos always uses a
    # real pool even when --jobs was left at its serial default.
    jobs = args.jobs if args.jobs > 1 else 4
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        result = chaos.run_chaos(
            Path(tmp),
            jobs=jobs,
            seed=args.chaos_seed,
            quick=args.quick,
            families=families,
        )
    print(chaos.render(result))
    return 0 if result.ok else 1


#: The paper artefacts, in ``all`` order: name -> (runner, the shared
#: flag groups it reads, help line).
_EXPERIMENTS: Dict[str, Tuple[Callable[[argparse.Namespace], str], Tuple[str, ...], str]] = {
    "table1": (lambda _: _run_table1(), (), "Table I running example"),
    "fig1": (_render("fig1"), (), "Figure 1 speedup and HI-mode demand"),
    "fig3": (_render("fig3"), (), "Figure 3 resetting time"),
    "fig4": (_render("fig4"), (), "Figure 4 closed-form trade-offs"),
    "fig5": (_render("fig5"), (), "Figure 5 flight-management contours"),
    "fig6": (_run_fig6, ("quick", "jobs", "population"), "Figure 6 synthetic sweeps"),
    "fig7": (_run_fig7, ("quick", "jobs", "population"), "Figure 7 schedulability regions"),
    "multiproc": (
        _run_multiproc,
        ("quick", "jobs", "population"),
        "Figure M multiprocessor region maps",
    ),
    "validate": (lambda _: _run_validate(), (), "simulator-vs-analysis cross-check"),
    "resilience": (_run_resilience, ("quick", "jobs"), "fault-scenario sweeps"),
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value:g}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each accepting only the flags it reads."""
    shared = {
        group: argparse.ArgumentParser(add_help=False)
        for group in ("quick", "jobs", "population", "verdict")
    }
    shared["quick"].add_argument(
        "--quick",
        action="store_true",
        help="smaller synthetic populations (seconds instead of minutes)",
    )
    shared["jobs"].add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes (default 1; results are independent of the "
        "job count)",
    )
    shared["population"].add_argument(
        "--population",
        action="store_true",
        help="group compatible analyses into population-batched kernel "
        "evaluations (faster on many small task sets; results are "
        "byte-identical)",
    )
    shared["verdict"].add_argument(
        "--speedup",
        type=float,
        default=2.0,
        help="HI-mode speedup to evaluate (default 2.0)",
    )
    shared["verdict"].add_argument(
        "--budget",
        type=float,
        default=None,
        help="recovery-time budget to check (same unit as the task sets)",
    )

    parser = argparse.ArgumentParser(
        prog="repro-mc",
        description="Reproduce the tables and figures of 'Run and Be Safe' (DATE 2015).",
    )
    commands = parser.add_subparsers(
        dest="experiment", required=True, metavar="command"
    )

    def command(
        name: str, help_text: str, groups: Sequence[str] = ()
    ) -> argparse.ArgumentParser:
        return commands.add_parser(
            name,
            help=help_text,
            description=help_text,
            parents=[shared[group] for group in groups],
        )

    for name, (_runner, groups, help_text) in _EXPERIMENTS.items():
        command(name, help_text, groups)
    csv_help = "write resilience verdict records to this CSV file"
    commands.choices["resilience"].add_argument("--csv", help=csv_help)
    command(
        "all", "every experiment above, in order", ("quick", "jobs", "population")
    ).add_argument("--csv", help=csv_help)

    analyze = command(
        "analyze", "dual-mode analysis of one JSON task-set file", ("verdict",)
    )
    analyze.add_argument(
        "--taskset", required=True, help="JSON task-set file (see repro.io)"
    )
    analyze.add_argument(
        "--report",
        action="store_true",
        help="emit the full design report (analysis + sensitivity + simulated "
        "worst case) instead of the short summary",
    )

    batch = command(
        "batch",
        "analyse a directory of task-set files through the pipeline",
        ("verdict", "jobs", "population"),
    )
    batch.add_argument(
        "--tasksets", required=True, help="directory of task-set JSON files"
    )
    batch.add_argument(
        "--checkpoint", help="JSONL checkpoint appended per completed item"
    )
    batch.add_argument(
        "--resume",
        metavar="CKPT",
        help="resume from this JSONL checkpoint (implies --checkpoint)",
    )
    batch.add_argument("--cache", help="on-disk result-cache directory")
    batch.add_argument(
        "--retries",
        type=_positive_int,
        default=3,
        help="attempts per item before quarantine (worker crashes, pool "
        "breaks, watchdog timeouts; default 3)",
    )
    batch.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        help="per-item wall-clock watchdog in seconds for pool workers "
        "(default: no watchdog)",
    )
    batch.add_argument(
        "--quarantine",
        metavar="OUT.jsonl",
        help="record items that exhaust their retries here (with full "
        "attempt history) instead of aborting",
    )
    batch.add_argument(
        "--out", help="directory for per-task-set report JSON files"
    )
    batch.add_argument(
        "--csv", help="write one record per task set to this CSV file"
    )
    batch.add_argument(
        "--verbose",
        action="store_true",
        help="print per-item progress with rate and ETA to stderr",
    )
    batch.add_argument(
        "--metrics",
        metavar="OUT.json",
        help="write a unified metrics snapshot (batch stats, cache totals, "
        "kernel perf counters, per-worker timings)",
    )
    batch.add_argument(
        "--trace",
        metavar="OUT.jsonl",
        help="enable span tracing and write the spans as JSONL",
    )

    serve = command("serve", "serve the analysis over HTTP", ("jobs",))
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8787, help="TCP port (default 8787)"
    )
    serve.add_argument("--cache", help="on-disk result-cache directory")
    serve.add_argument(
        "--quarantine",
        metavar="OUT.jsonl",
        help="record items that exhaust their retries here",
    )

    chaos = command(
        "chaos", "run the seeded fault-injection harness", ("quick", "jobs")
    )
    chaos.add_argument(
        "--families",
        metavar="NAME,NAME,...",
        help="subset of fault families to run (default: all)",
    )
    chaos.add_argument(
        "--chaos-seed",
        type=int,
        default=42,
        help="seed of the population and fault placement (default 42)",
    )

    lint = command("lint", "lint the source tree with repro-lint")
    lint.add_argument(
        "paths", nargs="*", help="files/directories to lint (default: src)"
    )
    lint.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="report format (default text)",
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE.json",
        help="baseline file (default lint-baseline.json)",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="record current findings as the new baseline and exit 0 "
        "(refused while RL006 contract-drift findings are present)",
    )
    lint.add_argument(
        "--rules",
        metavar="RL001,RL002,...",
        help="comma-separated subset of lint rules to run (default: all)",
    )
    lint.add_argument(
        "--contracts",
        metavar="FILE.json",
        help="serialized-surface contract file consumed by RL006 "
        "(default lint-contracts.json when present)",
    )
    lint.add_argument(
        "--write-contracts",
        action="store_true",
        help="regenerate the contract file from the current tree and exit 0",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI dispatcher; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.experiment == "lint":
        from repro.lint.cli import run_lint_command

        return run_lint_command(
            args.paths,
            output_format=args.format,
            baseline_path=args.baseline,
            update_baseline=args.write_baseline,
            rules=args.rules,
            contracts_path=args.contracts,
            write_contracts=args.write_contracts,
        )

    if args.experiment == "batch":
        return _batch_command(args, parser)

    if args.experiment == "serve":
        from repro.service import serve

        serve(
            args.host,
            args.port,
            jobs=args.jobs,
            cache=args.cache,
            quarantine=args.quarantine,
        )
        return 0

    if args.experiment == "chaos":
        return _chaos_command(args)

    if args.experiment == "analyze":
        if args.report:
            from repro.io import load_taskset
            from repro.report import build_report

            print(
                build_report(
                    load_taskset(args.taskset),
                    args.speedup,
                    reset_budget=args.budget,
                )
            )
        else:
            print(_run_analyze(args.taskset, args.speedup, args.budget))
        return 0

    names = list(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        start = time.perf_counter()
        print(f"=== {name} " + "=" * max(0, 66 - len(name)))
        print(_EXPERIMENTS[name][0](args))
        print(f"--- {name} done in {time.perf_counter() - start:.1f}s\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
