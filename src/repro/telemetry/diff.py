"""A/B diffing of run records: aligned deltas plus a regression verdict.

``diff_records`` compares only the *canonical* measurement surface of two
:class:`~repro.telemetry.record.RunRecord` files — counters aligned by
instrument name, series aligned by name and slot index.  Gauges, histograms,
wall-clock trace rows and the host envelope are deliberately out of scope:
gauges duplicate result scalars, histogram shape changes always move a
counter too, and wall clock is never comparable across runs.

The verdict is three-valued:

* ``identical`` — every aligned counter and series matches exactly (the
  contract two same-seed runs must meet).
* ``ok`` — differences exist but every one sits within the configured
  thresholds.
* ``regression`` — at least one counter delta or series divergence exceeds
  its threshold (the CLI exits non-zero on this).

Thresholds default to zero — any difference is a regression unless the
caller says how much drift is acceptable — which makes the same-seed CI
check a plain exit-code assertion.
"""

from __future__ import annotations

import dataclasses
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Sequence

from repro.telemetry.record import RunRecord


@dataclasses.dataclass(frozen=True)
class CounterDelta:
    """One aligned counter: values from both records and their difference."""

    name: str
    a: float
    b: float

    @property
    def delta(self) -> float:
        return self.b - self.a

    @property
    def delta_pct(self) -> Optional[float]:
        """Relative change in percent; ``None`` when the baseline is zero."""
        if self.a == 0:
            return None if self.b == 0 else float("inf")
        return 100.0 * (self.b - self.a) / abs(self.a)


@dataclasses.dataclass(frozen=True)
class SeriesDivergence:
    """One aligned series: elementwise divergence over the shared slot range."""

    name: str
    slots_a: int
    slots_b: int
    max_divergence: float
    mean_divergence: float

    @property
    def length_mismatch(self) -> bool:
        return self.slots_a != self.slots_b


@dataclasses.dataclass(frozen=True)
class RecordDiff:
    """The full comparison of two run records."""

    label_a: str
    label_b: str
    same_spec: bool
    counters: List[CounterDelta]
    series: List[SeriesDivergence]
    only_in_a: List[str]
    only_in_b: List[str]
    max_counter_delta_pct: float
    max_series_divergence: float

    @property
    def changed_counters(self) -> List[CounterDelta]:
        return [entry for entry in self.counters if entry.delta != 0]

    @property
    def diverged_series(self) -> List[SeriesDivergence]:
        return [
            entry
            for entry in self.series
            if entry.max_divergence > 0 or entry.length_mismatch
        ]

    @property
    def identical(self) -> bool:
        return (
            not self.changed_counters
            and not self.diverged_series
            and not self.only_in_a
            and not self.only_in_b
        )

    def _counter_regressions(self) -> List[CounterDelta]:
        flagged = []
        for entry in self.changed_counters:
            pct = entry.delta_pct
            if pct is None:
                continue
            if pct == float("inf") or abs(pct) > self.max_counter_delta_pct:
                flagged.append(entry)
        return flagged

    def _series_regressions(self) -> List[SeriesDivergence]:
        return [
            entry
            for entry in self.series
            if entry.length_mismatch
            or entry.max_divergence > self.max_series_divergence
        ]

    @property
    def verdict(self) -> str:
        if self.identical:
            return "identical"
        if (
            self._counter_regressions()
            or self._series_regressions()
            or self.only_in_a
            or self.only_in_b
        ):
            return "regression"
        return "ok"

    # -- exports --------------------------------------------------------------

    def counter(self, name: str) -> Optional[CounterDelta]:
        for entry in self.counters:
            if entry.name == name:
                return entry
        return None

    def as_dict(self) -> Dict[str, object]:
        return {
            "a": self.label_a,
            "b": self.label_b,
            "same_spec": self.same_spec,
            "verdict": self.verdict,
            "thresholds": {
                "max_counter_delta_pct": self.max_counter_delta_pct,
                "max_series_divergence": self.max_series_divergence,
            },
            "counters": [
                {
                    "name": entry.name,
                    "a": entry.a,
                    "b": entry.b,
                    "delta": entry.delta,
                    "delta_pct": (
                        None
                        if entry.delta_pct in (None, float("inf"))
                        else entry.delta_pct
                    ),
                }
                for entry in self.counters
            ],
            "series": [
                {
                    "name": entry.name,
                    "slots_a": entry.slots_a,
                    "slots_b": entry.slots_b,
                    "max_divergence": entry.max_divergence,
                    "mean_divergence": entry.mean_divergence,
                }
                for entry in self.series
            ],
            "only_in_a": list(self.only_in_a),
            "only_in_b": list(self.only_in_b),
        }

    def summary_lines(self, *, limit: int = 12) -> List[str]:
        """The human-facing report: changed instruments ranked, then verdict."""
        lines = [f"diff {self.label_a}  vs  {self.label_b}"]
        if not self.same_spec:
            lines.append("note: spec hashes differ — comparing different configs")
        changed = sorted(
            self.changed_counters,
            key=lambda entry: abs(entry.delta),
            reverse=True,
        )
        if changed:
            lines.append(f"counters changed ({len(changed)}):")
            for entry in changed[:limit]:
                pct = entry.delta_pct
                rel = (
                    "new"
                    if pct == float("inf")
                    else f"{pct:+.1f}%" if pct is not None else ""
                )
                lines.append(
                    f"  {entry.name:<44} {entry.a:>12g} -> {entry.b:<12g} "
                    f"({entry.delta:+g} {rel})".rstrip()
                )
            if len(changed) > limit:
                lines.append(f"  ... and {len(changed) - limit} more")
        else:
            lines.append("counters: no differences")
        diverged = sorted(
            self.diverged_series,
            key=lambda entry: entry.max_divergence,
            reverse=True,
        )
        if diverged:
            lines.append(f"series diverged ({len(diverged)}/{len(self.series)}):")
            for entry in diverged[:limit]:
                shape = (
                    f" [slots {entry.slots_a} vs {entry.slots_b}]"
                    if entry.length_mismatch
                    else ""
                )
                lines.append(
                    f"  {entry.name:<44} max {entry.max_divergence:g} "
                    f"mean {entry.mean_divergence:g}{shape}"
                )
            if len(diverged) > limit:
                lines.append(f"  ... and {len(diverged) - limit} more")
        else:
            lines.append(f"series: no divergence across {len(self.series)} aligned")
        for side, names in (("a", self.only_in_a), ("b", self.only_in_b)):
            if names:
                lines.append(
                    f"only in {side}: {', '.join(names[:6])}"
                    + (" ..." if len(names) > 6 else "")
                )
        lines.append(f"verdict: {self.verdict}")
        return lines


def _matches(name: str, patterns: Optional[Sequence[str]]) -> bool:
    """Whether ``name`` passes the filter (no patterns = everything passes)."""
    if not patterns:
        return True
    return any(fnmatchcase(name, pattern) for pattern in patterns)


def diff_records(
    a: RunRecord,
    b: RunRecord,
    *,
    max_counter_delta_pct: float = 0.0,
    max_series_divergence: float = 0.0,
    counter_filter: Optional[Sequence[str]] = None,
    series_filter: Optional[Sequence[str]] = None,
) -> RecordDiff:
    """Align two records by instrument name and slot index and compare.

    ``counter_filter``/``series_filter`` restrict the comparison to
    instruments whose names match at least one ``fnmatch`` pattern (e.g.
    ``["slot.*", "requests.*"]``).  Filtered-out instruments are ignored
    entirely — they contribute neither deltas nor only-in-one-side entries —
    so two runs that share a data plane but differ elsewhere (e.g. a
    resilience A/B twin) can be compared on the signals they agree on.
    """
    counter_names = sorted(
        name
        for name in set(a.counters) | set(b.counters)
        if _matches(name, counter_filter)
    )
    counters = [
        CounterDelta(
            name=name,
            a=float(a.counters.get(name, 0.0)),
            b=float(b.counters.get(name, 0.0)),
        )
        for name in counter_names
    ]
    series_a = {name for name in a.series if _matches(name, series_filter)}
    series_b = {name for name in b.series if _matches(name, series_filter)}
    shared_series = sorted(series_a & series_b)
    series = []
    for name in shared_series:
        left, right = a.series[name], b.series[name]
        paired = min(len(left), len(right))
        gaps = [
            abs(float(left[slot]) - float(right[slot])) for slot in range(paired)
        ]
        series.append(
            SeriesDivergence(
                name=name,
                slots_a=len(left),
                slots_b=len(right),
                max_divergence=max(gaps, default=0.0),
                mean_divergence=(sum(gaps) / paired) if paired else 0.0,
            )
        )
    return RecordDiff(
        label_a=a.label,
        label_b=b.label,
        same_spec=a.spec_hash == b.spec_hash,
        counters=counters,
        series=series,
        only_in_a=sorted(series_a - series_b),
        only_in_b=sorted(series_b - series_a),
        max_counter_delta_pct=max_counter_delta_pct,
        max_series_divergence=max_series_divergence,
    )
