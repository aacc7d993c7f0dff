"""Process-local metrics registry: counters, gauges and fixed-bucket histograms.

The registry is the *pull* side of the observability layer: simulation
components publish plain numbers into named instruments and the CLI / JSON
exporters read them back after the run.  Three deliberate constraints keep it
fit for a deterministic simulator:

* **Fixed bucket edges.**  Histograms never rebucket: the edges are part of
  the instrument's identity, chosen at creation time, so two runs with the
  same seed produce bit-identical bucket counts (pinned by the telemetry
  parity suite).  Quantile sketches or auto-ranging buckets would trade that
  determinism for precision the simulator does not need — exact sample
  arrays already exist inside the run; the histogram is the cheap exportable
  summary.
* **Values observed are *simulated* quantities** (response times, queue
  depths, request counts), never wall-clock readings — wall time belongs to
  the tracer (:mod:`repro.telemetry.tracer`), which is allowed to differ
  between runs.
* **No locks, no background thread.**  Scenario runs are single-threaded per
  worker process; campaign workers each build their own registry.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

#: Default edges for millisecond-valued histograms (response times, span-free
#: simulated durations).  Roughly log-spaced from 1 ms to 1 minute.
DEFAULT_MS_EDGES: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1_000.0, 2_000.0, 5_000.0, 10_000.0, 30_000.0, 60_000.0,
)

#: Default edges for small-count histograms (queue depths, in-flight counts).
DEFAULT_DEPTH_EDGES: Tuple[float, ...] = (
    0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1_000.0,
)


class Counter:
    """A monotonically increasing number (events processed, requests dropped)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount


class Gauge:
    """A point-in-time value (pending events, utilization, cost)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A fixed-bucket histogram over simulated values.

    ``edges`` are the *upper* bounds of the finite buckets; one overflow
    bucket catches everything above the last edge, so ``counts`` has
    ``len(edges) + 1`` entries.  The running sum and count make the mean
    recoverable without keeping samples.
    """

    __slots__ = ("name", "edges", "counts", "total", "count")

    def __init__(self, name: str, edges: Sequence[float] = DEFAULT_MS_EDGES) -> None:
        if not edges:
            raise ValueError(f"histogram {name!r} needs at least one bucket edge")
        ordered = tuple(float(edge) for edge in edges)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(
                f"histogram {name!r} edges must be strictly increasing, got {edges}"
            )
        self.name = name
        self.edges = ordered
        self.counts = np.zeros(len(ordered) + 1, dtype=np.int64)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Fold one value into its bucket (values above the last edge overflow)."""
        index = int(np.searchsorted(self.edges, value, side="left"))
        self.counts[index] += 1
        self.total += float(value)
        self.count += 1

    def observe_many(self, values: "np.ndarray | Sequence[float]") -> None:
        """Vectorised :meth:`observe` over an array of values."""
        array = np.asarray(values, dtype=float)
        if array.size == 0:
            return
        indices = np.searchsorted(self.edges, array, side="left")
        self.counts += np.bincount(indices, minlength=self.counts.size)
        self.total += float(array.sum())
        self.count += int(array.size)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def as_dict(self) -> Dict[str, object]:
        return {
            "edges": list(self.edges),
            "counts": [int(count) for count in self.counts],
            "count": self.count,
            "sum": self.total,
        }


class MetricsRegistry:
    """A flat namespace of instruments, created on first use.

    Dotted metric names (``engine.events_processed``,
    ``site.edge.requests_total``) give the namespace its hierarchy; asking
    for an existing name returns the same instrument, and asking for it as a
    different instrument kind is an error — one name, one meaning.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_unique(self, name: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {other_kind}, "
                    f"cannot re-register as a {kind}"
                )

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_unique(name, "counter")
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_unique(name, "gauge")
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, edges: Sequence[float] = DEFAULT_MS_EDGES
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_unique(name, "histogram")
            instrument = self._histograms[name] = Histogram(name, edges)
        elif instrument.edges != tuple(float(edge) for edge in edges):
            raise ValueError(
                f"histogram {name!r} already registered with edges "
                f"{instrument.edges}, got {tuple(edges)}"
            )
        return instrument

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def names(self) -> List[str]:
        return sorted(
            list(self._counters) + list(self._gauges) + list(self._histograms)
        )

    def as_dict(self) -> Dict[str, object]:
        """A JSON-friendly export of every instrument, sorted by name."""
        return {
            "counters": {
                name: self._counters[name].value for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].as_dict()
                for name in sorted(self._histograms)
            },
        }

    def rows(self) -> List[Dict[str, object]]:
        """One display row per instrument (the CLI summary-table schema)."""
        rows: List[Dict[str, object]] = []
        for name in sorted(self._counters):
            rows.append(
                {"metric": name, "kind": "counter",
                 "value": round(self._counters[name].value, 3)}
            )
        for name in sorted(self._gauges):
            rows.append(
                {"metric": name, "kind": "gauge",
                 "value": round(self._gauges[name].value, 3)}
            )
        for name in sorted(self._histograms):
            histogram = self._histograms[name]
            mean = histogram.mean
            rows.append(
                {
                    "metric": name,
                    "kind": "histogram",
                    "value": f"n={histogram.count} mean={mean:.1f}"
                    if histogram.count
                    else "n=0",
                }
            )
        return rows
