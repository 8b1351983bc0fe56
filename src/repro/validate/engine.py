"""End-to-end validation: run experiments, evaluate claims, report.

:func:`validate` is what ``repro validate`` executes.  It regenerates
each claimed experiment through :func:`repro.experiments.run_experiment`
— inheriting the resilience, observability, pool and result-cache
machinery — evaluates every registered claim over the results, runs
the randomized invariant harness, and folds everything into one
:class:`ValidationReport`.

Two reuse levers keep a full validation cheap:

- experiments that accept a ``session=`` share *one* session, so the
  CRF-sweep figures (fig04/05/06/07) characterize each (video, CRF)
  cell once instead of once per figure;
- the session attaches the content-addressed result cache when a
  ``cache_dir`` is configured, so a validation pass over a sweep that
  already ran is served from disk.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..core.report import ExperimentResult
from ..errors import ObservabilityError, ValidationError
from ..experiments.common import fast_mode, make_session
from ..experiments.registry import run_experiment
from ..obs.context import ObsContext, activate_obs
from ..parallel.pool import activate_parallel, current_parallel
from .claims import (
    CLAIMS_SCHEMA_VERSION,
    ClaimVerdict,
    claim_experiments,
    claims_for,
    evaluate_result_claims,
)
from .invariants import DEFAULT_SEED, InvariantOutcome, run_invariants

#: Experiment runners that accept a shared ``session=`` keyword.
SESSION_EXPERIMENTS = frozenset(
    {"fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07",
     "fig11", "table2"}
)


@dataclass
class ValidationReport:
    """Every claim and invariant verdict of one validation run."""

    claims: list[ClaimVerdict] = field(default_factory=list)
    invariants: list[InvariantOutcome] = field(default_factory=list)
    experiments: dict[str, dict[str, Any]] = field(default_factory=dict)
    config: dict[str, Any] = field(default_factory=dict)

    def passed(self, strict: bool = False) -> bool:
        """True when nothing regressed.

        A ``skip`` verdict (missing data) is tolerated by default —
        the claims that *could* evaluate carry the gate — and becomes
        a failure under ``strict``.
        """
        for verdict in self.claims:
            if verdict.status == "fail":
                return False
            if strict and verdict.status == "skip":
                return False
        return all(outcome.passed for outcome in self.invariants)

    def summary(self) -> dict[str, int]:
        statuses = [v.status for v in self.claims]
        return {
            "claims": len(self.claims),
            "passed": statuses.count("pass"),
            "failed": statuses.count("fail"),
            "skipped": statuses.count("skip"),
            "invariants": len(self.invariants),
            "invariants_failed": sum(
                not o.passed for o in self.invariants
            ),
        }

    def to_json(self, indent: int | None = None) -> str:
        payload = {
            "schema_version": CLAIMS_SCHEMA_VERSION,
            "config": self.config,
            "summary": self.summary(),
            "claims": [v.as_dict() for v in self.claims],
            "invariants": [o.as_dict() for o in self.invariants],
            "experiments": self.experiments,
        }
        return json.dumps(payload, indent=indent)

    def format_text(self) -> str:
        """Human-readable verdict listing, claims first."""
        marks = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}
        lines = ["== paper-claims validation =="]
        for v in self.claims:
            lines.append(
                f"[{marks[v.status]}] {v.claim_id} ({v.experiment_id}, "
                f"{v.section}; {v.checker}; {v.pass_fraction:.0%} of "
                f"{len(v.groups) or '?'} group(s))"
            )
            if v.status == "fail":
                for label, outcome in v.groups.items():
                    if not outcome.passed:
                        lines.append(
                            f"       {label}: measured {outcome.measured:g}, "
                            f"expected {outcome.expected}"
                        )
            elif v.status == "skip":
                lines.append(f"       skipped: {v.error}")
        if self.invariants:
            lines.append("== simulator invariants ==")
            for o in self.invariants:
                mark = "PASS" if o.passed else "FAIL"
                lines.append(
                    f"[{mark}] {o.name} ({o.cases} randomized case(s), "
                    f"seed {o.seed})"
                )
                for failure in o.failures[:3]:
                    lines.append(f"       {failure}")
        counts = self.summary()
        lines.append(
            f"{counts['passed']}/{counts['claims']} claims passed, "
            f"{counts['failed']} failed, {counts['skipped']} skipped; "
            f"{counts['invariants'] - counts['invariants_failed']}/"
            f"{counts['invariants']} invariants passed"
        )
        return "\n".join(lines)


def write_report(path: str, report: ValidationReport) -> None:
    """Write the JSON claims report (the CI artifact)."""
    parent = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(report.to_json(indent=2) + "\n")
    except OSError as exc:
        raise ObservabilityError(
            f"cannot write claims report {path!r}: {exc}"
        ) from exc


def validate(
    experiment_ids: Sequence[str] | None = None,
    *,
    workers: int | str | None = None,
    cache_dir: str | None = None,
    seed: int = DEFAULT_SEED,
    invariant_cases: int = 25,
    with_invariants: bool = True,
    obs: ObsContext | None = None,
) -> ValidationReport:
    """Regenerate claimed experiments and evaluate every claim.

    Parameters
    ----------
    experiment_ids:
        Restrict validation to these experiments' claims (default:
        every experiment with registered claims).
    workers / cache_dir:
        Override the installed
        :class:`~repro.parallel.pool.ParallelConfig`; the resulting
        config is installed once around the shared session and every
        :func:`~repro.experiments.run_experiment`, so all of them
        attach the same result cache and repeated validations are
        warm.
    seed / invariant_cases / with_invariants:
        Root seed and per-invariant case count for the randomized
        invariant harness; ``with_invariants=False`` checks claims
        only.
    obs:
        Optional shared observability context (testing); one is
        created otherwise, and claim/invariant counters land in it.
    """
    if experiment_ids is None:
        experiment_ids = claim_experiments()
    else:
        known = set(claim_experiments())
        unknown = [e for e in experiment_ids if e not in known]
        if unknown:
            raise ValidationError(
                f"no claims registered for: {', '.join(sorted(unknown))} "
                f"(claimed experiments: {', '.join(sorted(known))})"
            )

    obs_context = obs if obs is not None else ObsContext()
    parallel = current_parallel().override(
        workers=workers, cache_dir=cache_dir
    )
    report = ValidationReport(
        config={
            "experiments": list(experiment_ids),
            "fast_mode": fast_mode(),
            "workers": parallel.workers,
            "cache_dir": parallel.cache_dir,
            "seed": seed,
            "invariant_cases": invariant_cases if with_invariants else 0,
        }
    )
    with activate_parallel(parallel):
        session = make_session()
        for experiment_id in experiment_ids:
            kwargs: dict[str, Any] = {}
            if experiment_id in SESSION_EXPERIMENTS:
                kwargs["session"] = session
            result = run_experiment(experiment_id, obs=obs_context, **kwargs)
            with activate_obs(obs_context):
                verdicts = evaluate_result_claims(
                    result, claims_for(experiment_id)
                )
            report.claims.extend(verdicts)
            report.experiments[experiment_id] = _experiment_summary(result)
    if with_invariants:
        with activate_obs(obs_context):
            report.invariants = run_invariants(
                seed=seed, cases=invariant_cases
            )
    return report


def _experiment_summary(result: ExperimentResult) -> dict[str, Any]:
    """The per-experiment context block of the JSON report."""
    quarantined = result.provenance.get("quarantined", [])
    return {
        "title": result.title,
        "tables": len(result.tables),
        "series": len(result.series),
        "quarantined_cells": [
            q.get("cell") for q in quarantined
        ] if isinstance(quarantined, list) else [],
    }
