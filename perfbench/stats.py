"""Statistics and reporting helpers for the benchmark.

Every number the benchmark prints goes through :class:`Report`: it carries
a validated name, a unit and the number of samples behind it. Latency
percentiles come from :func:`percentile`, which refuses a tail percentile
that fewer than ten samples lie beyond, and failed or refused operations
enter latency samples as ``inf`` so they miss every latency limit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Union

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]+\Z")

#: samples that must rank strictly above a reported percentile
MIN_BEYOND = 10

#: latency sample recorded for a failed or refused operation
FAILED = math.inf


class StatsError(ValueError):
    """A statistic that cannot be reported honestly from its samples."""


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise."""
    if not isinstance(name, str) or not NAME_RE.match(name):
        raise StatsError(f"bad metric name {name!r}: must match "
                         f"{NAME_RE.pattern}")
    return name


def check_unit(unit: str) -> str:
    if not isinstance(unit, str) or not UNIT_RE.match(unit):
        raise StatsError(f"bad unit {unit!r}: must match {UNIT_RE.pattern}")
    return unit


def median(values: Sequence[float]) -> float:
    if not values:
        raise StatsError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half of ``values`` (all of them when fewer
    than four)."""
    if not values:
        raise StatsError("interquartile mean of no samples")
    ordered = sorted(values)
    quarter = len(ordered) // 4
    middle = ordered[quarter:len(ordered) - quarter]
    return sum(middle) / len(middle)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q < 100).

    Refused with :class:`StatsError` unless at least :data:`MIN_BEYOND`
    samples rank above it, so a p90 needs about 100 samples. The median
    is exempt: use :func:`median` for it.
    """
    if not 0 < q < 100:
        raise StatsError(f"percentile {q!r} outside (0, 100)")
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise StatsError(f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
                         f"{n} samples leave {max(0, n - rank)}")
    return sorted(values)[rank - 1]


def fail_ratio(attempted: int, failed: int, refused: int = 0) -> float:
    """Share of attempted operations that failed or were refused."""
    if attempted < 1:
        raise StatsError("fail_ratio needs at least one attempt")
    if failed < 0 or refused < 0 or failed + refused > attempted:
        raise StatsError(f"bad counts: {failed} failed + {refused} refused "
                         f"of {attempted} attempted")
    return (failed + refused) / attempted


@dataclass
class Metric:
    name: str
    unit: str
    value: Union[int, float]
    samples: int

    def line(self) -> str:
        return (f"{self.name:<28} {self.value:>14.6g} {self.unit:<8} "
                f"n={self.samples}")


class Report:
    """Named metrics with units and sample counts, in insertion order."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Metric] = {}

    def add(self, name: str, unit: str, value: float, samples: int) -> None:
        check_name(name)
        check_unit(unit)
        if name in self.metrics:
            raise StatsError(f"metric {name!r} reported twice")
        if not isinstance(samples, int) or samples < 0:
            raise StatsError(f"{name}: sample count must be a whole "
                             f"number, got {samples!r}")
        value = float(value)
        if unit == "count" and value.is_integer():
            value = int(value)          # an exact count prints as one
        self.metrics[name] = Metric(name, unit, value, samples)

    def add_tail(self, name: str, unit: str, values: Sequence[float],
                 q: float) -> bool:
        """Add the ``q``-th percentile of ``values`` when it may be
        reported; return whether it was."""
        try:
            value = percentile(values, q)
        except StatsError:
            return False
        self.add(name, unit, value, len(values))
        return True

    def lines(self) -> List[str]:
        return [metric.line() for metric in self.metrics.values()]

    def select(self, specs: Iterable[dict]) -> Dict[str, dict]:
        """The ``{"value", "unit"}`` map of ``specs`` (BENCHMARK.json
        metric entries); every one must have been reported, in its unit."""
        out = {}
        for spec in specs:
            metric = self.metrics.get(spec["name"])
            if metric is None:
                raise StatsError(f"metric {spec['name']!r} was not measured")
            if metric.unit != spec["unit"]:
                raise StatsError(f"{metric.name}: measured in {metric.unit}, "
                                 f"declared in {spec['unit']}")
            out[metric.name] = {"value": finite_or_none(metric.value),
                                "unit": metric.unit}
        return out


def finite_or_none(value: float) -> Optional[float]:
    """``value``, or ``None`` (JSON ``null``) for the infinite latency
    of a run whose operations failed."""
    return value if math.isfinite(value) else None
