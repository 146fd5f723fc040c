"""Measurement collection for experiments.

A :class:`MetricSeries` collects (x, y) points for one curve of a figure;
a :class:`Measurements` object groups the named series of a whole
experiment and renders them the way the paper reports them (one row per
x, one column per series).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass
class MetricSeries:
    """One named curve: ordered (x, y) points."""

    name: str
    points: list[tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.points.append((x, y))

    def xs(self) -> list[float]:
        return [x for x, _ in self.points]

    def ys(self) -> list[float]:
        return [y for _, y in self.points]

    def y_at(self, x: float) -> float:
        for px, py in self.points:
            if px == x:
                return py
        raise KeyError(f"series {self.name!r} has no point at x={x}")


@dataclass
class Measurements:
    """All series of one experiment, plus identifying metadata."""

    experiment: str
    x_label: str
    y_label: str
    series: dict[str, MetricSeries] = field(default_factory=dict)
    #: which clock the y values were measured on: ``"virtual"`` (cost
    #: model seconds — shapes, not speed) or ``"wall"`` (real seconds).
    clock: str = "virtual"

    def series_named(self, name: str) -> MetricSeries:
        if name not in self.series:
            self.series[name] = MetricSeries(name)
        return self.series[name]

    def add(self, series: str, x: float, y: float) -> None:
        self.series_named(series).add(x, y)

    def xs(self) -> list[float]:
        xs: list[float] = []
        for series in self.series.values():
            for x in series.xs():
                if x not in xs:
                    xs.append(x)
        return sorted(xs)

    def to_rows(self) -> list[list[str]]:
        """Rows for printing: header then one row per x value."""
        names = sorted(self.series)
        header = [self.x_label] + names
        rows = [header]
        for x in self.xs():
            row = [_fmt(x)]
            for name in names:
                try:
                    row.append(_fmt(self.series[name].y_at(x)))
                except KeyError:
                    row.append("-")
            rows.append(row)
        return rows

    def render(self) -> str:
        """A fixed-width table, like the paper's figure data."""
        rows = self.to_rows()
        widths = [
            max(len(row[i]) for row in rows) for i in range(len(rows[0]))
        ]
        lines = [f"# {self.experiment}  ({self.y_label})"]
        for r, row in enumerate(rows):
            line = "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
            lines.append(line)
            if r == 0:
                lines.append("-" * len(line))
        return "\n".join(lines)


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Matches numpy's default (``interpolation="linear"``) so reported
    p50/p95/p99 latencies mean what readers of the traffic bench expect.
    Raises ``ValueError`` on an empty sample — a latency percentile over
    nothing is a bug in the caller, not a zero.
    """
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    if len(data) == 1:
        return data[0]
    rank = (q / 100.0) * (len(data) - 1)
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    fraction = rank - low
    return data[low] + (data[high] - data[low]) * fraction


@dataclass(frozen=True)
class LatencySummary:
    """End-to-end latency percentiles of one measured traffic arm."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @staticmethod
    def of(latencies: Iterable[float]) -> "LatencySummary":
        data = sorted(latencies)
        if not data:
            raise ValueError("no latencies to summarize")
        return LatencySummary(
            count=len(data),
            mean=sum(data) / len(data),
            p50=percentile(data, 50),
            p95=percentile(data, 95),
            p99=percentile(data, 99),
            max=data[-1],
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
        }


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e9:
        return str(int(value))
    return f"{value:.2f}"
