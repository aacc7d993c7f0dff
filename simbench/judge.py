"""Judging benchmark runs: every check a run must pass to count as correct.

A run fails if its child timed out, exited non-zero or printed no result;
if any result breaks the global ledger (succeeded + dropped + unrouted ==
total) or lands more than :data:`workloads.REQUEST_SIGMAS` standard
deviations of a Poisson count off its spec's request target; if a traced
run left a wrapper in place; or if its result digest (or, for traced runs,
its layer counts) differs from the one most runs of the same seed produced.

:func:`selfcheck` feeds fake child runs through :func:`judge_runs`, the same
path real runs take, and reports any fault the judge let through.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from workloads import REQUEST_SIGMAS, request_targets, request_tolerance


@dataclass
class Outcome:
    """One finished child process and the verdict on it."""

    kind: str
    start: float
    returncode: Optional[int]
    timed_out: bool
    payload: Optional[dict]
    stderr_tail: str = ""
    ok: bool = True
    reason: str = ""


def _judge_one(outcome: Outcome, targets: Dict[str, int]) -> str:
    """The first check ``outcome`` fails on its own, or ``""``."""
    if outcome.timed_out:
        return "timed out"
    if outcome.returncode != 0:
        return f"exit code {outcome.returncode}"
    payload = outcome.payload
    if payload is None or "setup_end" not in payload:
        return "no result line"
    if "digest" not in payload:
        return ""  # a set-up-only run
    for result in payload["results"]:
        name, total = result["name"], result["requests_total"]
        counted = (
            result["requests_succeeded"]
            + result["requests_dropped"]
            + result["requests_unrouted"]
        )
        if counted != total:
            return f"{name}: ledger broken ({counted} counted, {total} total)"
        if name not in targets:
            return f"{name}: not a scenario of this workload"
        if abs(total - targets[name]) > request_tolerance(targets[name]):
            return (
                f"{name}: requests_total {total} not within {REQUEST_SIGMAS:g} "
                f"standard deviations of {targets[name]}"
            )
    if payload.get("leaks"):
        return "wrappers not restored: " + ", ".join(payload["leaks"])
    return ""


def _vote(outcomes: List[Outcome], key: Callable[[dict], str], what: str) -> None:
    """Fail every passing run whose ``key`` differs from the most common one."""
    keys = [key(o.payload) for o in outcomes]
    if not keys:
        return
    reference = Counter(keys).most_common(1)[0][0]
    for outcome, value in zip(outcomes, keys):
        if value != reference:
            outcome.ok, outcome.reason = False, f"{what} differs from the other runs"


def _layer_counts(payload: dict) -> str:
    return json.dumps(
        {k: v for k, v in payload["layers"].items() if isinstance(v, int)}, sort_keys=True
    )


def judge_runs(outcomes: List[Outcome], targets: Dict[str, int]) -> None:
    """Set ``ok``/``reason`` on every outcome of one benchmark run (one seed)."""
    for outcome in outcomes:
        outcome.reason = _judge_one(outcome, targets)
        outcome.ok = not outcome.reason
    simulated = [o for o in outcomes if o.ok and "digest" in o.payload]
    _vote(simulated, lambda p: p["digest"], "result digest")
    traced = [o for o in outcomes if o.ok and "layers" in o.payload]
    _vote(traced, _layer_counts, "layer counts")


def report_failures(outcomes: List[Outcome]) -> int:
    """Print each failed run to stderr; returns how many failed."""
    failed = [o for o in outcomes if not o.ok]
    for outcome in failed:
        print(f"FAILED {outcome.kind} run: {outcome.reason}", file=sys.stderr)
        if outcome.stderr_tail:
            print(outcome.stderr_tail, file=sys.stderr)
    return len(failed)


def selfcheck(launch: Callable[[List[str], float], Outcome], workload: str) -> List[str]:
    """Judge fake child runs with known faults; returns what went unnoticed.

    ``launch(argv, timeout)`` is the benchmark's own child launcher, so the
    timeout and kill path is exercised too.
    """
    targets = request_targets(workload)

    def results(scale: float = 1.0, lost: int = 0) -> list:
        return [
            {
                "name": name,
                "requests_total": int(target * scale),
                "requests_succeeded": int(target * scale) - lost,
                "requests_dropped": 0,
                "requests_unrouted": 0,
            }
            for name, target in targets.items()
        ]

    def printing(**overrides) -> str:
        payload = {"setup_end": 0.0, "wall_s": 1.0, "digest": "a" * 64, "results": results()}
        payload.update(overrides)
        return f"print({json.dumps(json.dumps(payload))})"

    # The sleeper is killed at its timeout; every other fake gets time to
    # start an interpreter on a loaded host.
    cases = [
        ("good", printing(), ""),
        ("good", printing(), ""),
        ("raises", "raise RuntimeError('simulated crash')", "exit code"),
        ("times out", "import time; time.sleep(30)", "timed out"),
        ("breaks the ledger", printing(results=results(lost=1)), "ledger broken"),
        ("loses half its requests", printing(results=results(scale=0.5)), "not within"),
        ("returns another digest", printing(digest="b" * 64), "result digest differs"),
        ("leaves a wrapper", printing(leaks=["repro.scenarios.runner.run_scenario"]), "wrappers"),
    ]
    outcomes = [
        launch([sys.executable, "-c", code], 1.0 if label == "times out" else 20.0)
        for label, code, _ in cases
    ]
    judge_runs(outcomes, targets)
    problems = []
    for (label, _, expected), outcome in zip(cases, outcomes):
        if expected and (outcome.ok or expected not in outcome.reason):
            problems.append(f"a run that {label} was judged {outcome.reason or 'correct'}")
        if not expected and not outcome.ok:
            problems.append(f"a good run was judged {outcome.reason}")
    return problems
