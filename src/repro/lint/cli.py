"""``repro-mc lint``: run the repro-lint rule pack from the command line.

Usage::

    repro-mc lint src/                      # text report, exit 1 on findings
    repro-mc lint src/ --format json        # machine-readable
    repro-mc lint src/ --format sarif       # SARIF 2.1.0 (CI upload)
    repro-mc lint src/ --rules RL001,RL003  # a subset of the pack
    repro-mc lint src/ --write-contracts    # regenerate lint-contracts.json
    repro-mc lint src/ --write-baseline     # grandfather current findings
    repro-mc lint src/ --baseline other.json

Exit status: **0** when the tree is clean, **1** on any fresh (non-
baselined) finding, **2** on usage errors, **3** when every finding is
baselined — clean-but-grandfathered is distinguishable from clean, so
CI can track baseline burn-down without re-parsing reports.

The run summary (checked/analyzed counts, duration) always goes to
stderr so stdout stays pure JSON under ``--format json``/``sarif``.

``--write-baseline`` refuses to run while RL006 (contract drift)
findings are present: a drifted serialized surface must be fixed or
re-versioned, never grandfathered.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.baseline import (
    DEFAULT_BASELINE_NAME,
    load_baseline,
    write_baseline,
)
from repro.lint.contracts import DEFAULT_CONTRACTS_NAME, compute_contracts
from repro.lint.engine import (
    available_rules,
    iter_python_files,
    lint_project,
)
from repro.lint.model import build_model
from repro.lint.report import render_json, render_text
from repro.lint.sarif import render_sarif

_CONTRACT_RULE = "RL006"


def _note(message: str) -> None:
    print(f"repro-lint: {message}", file=sys.stderr)


def run_lint_command(
    paths: Sequence[str],
    *,
    output_format: str = "text",
    baseline_path: Optional[str] = None,
    update_baseline: bool = False,
    rules: Optional[str] = None,
    contracts_path: Optional[str] = None,
    write_contracts: bool = False,
) -> int:
    """Execute the lint subcommand; returns the process exit code."""
    targets = [Path(p) for p in (paths or ["src"])]
    for target in targets:
        if not target.exists():
            _note(f"path does not exist: {target}")
            return 2

    selected: Optional[List[str]] = None
    if rules:
        selected = [code.strip() for code in rules.split(",") if code.strip()]
        unknown = sorted(set(selected) - set(available_rules()))
        if unknown:
            _note(
                f"unknown rule(s) {', '.join(unknown)}; "
                f"available: {', '.join(available_rules())}"
            )
            return 2

    contracts_file = (
        Path(contracts_path) if contracts_path
        else Path(DEFAULT_CONTRACTS_NAME)
    )

    if write_contracts:
        model = build_model(list(iter_python_files(targets)))
        document = compute_contracts(model)
        contracts_file.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        _note(
            f"wrote {len(document['surfaces'])} surface contract(s) to "
            f"{contracts_file}"
        )
        return 0

    run = lint_project(
        targets,
        selected,
        contracts_path=contracts_file if contracts_file.is_file() else None,
    )
    _note(
        f"{len(run.checked_files)} file(s) checked, "
        f"{len(run.analyzed_files)} analyzed ({run.duration_s:.2f}s)"
    )

    findings = run.findings

    baseline_file = Path(baseline_path) if baseline_path else Path(
        DEFAULT_BASELINE_NAME
    )
    if update_baseline:
        drifted = [f for f in findings if f.rule == _CONTRACT_RULE]
        if drifted:
            _note(
                f"refusing to baseline {len(drifted)} RL006 contract-"
                f"drift finding(s): bump the version constant (or revert "
                f"the surface change) and regenerate lint-contracts.json "
                f"with --write-contracts instead"
            )
            for finding in drifted:
                _note(f"  {finding.path}:{finding.line} {finding.message}")
            return 1
        write_baseline(baseline_file, findings)
        _note(f"wrote {len(findings)} finding(s) to {baseline_file}")
        return 0

    baseline = load_baseline(baseline_file)
    fresh, grandfathered = baseline.split(findings)

    checked = len(run.checked_files)
    if output_format == "json":
        print(render_json(fresh, grandfathered, checked_files=checked))
    elif output_format == "sarif":
        print(render_sarif(fresh, grandfathered, checked_files=checked))
    else:
        print(render_text(fresh, grandfathered, checked_files=checked))
    if fresh:
        return 1
    return 3 if grandfathered else 0
