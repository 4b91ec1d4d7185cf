"""What every workload shares: its outcome record and its statistics."""
from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass, field

# Freshness window and session-key validity passed to the program, seconds.
DELTA_T = 5
VT_DURATION = 900
# Set-up runs this many times per run; setup_s is the median.
SETUP_REPS = 3
# Latency figures are medians over this many equal spans of the run, so that
# a burst of noise from other tenants of the host moves one span, not all.
WINDOWS = 10


@dataclass
class Outcome:
    """What one measured phase of a workload attempted, saw and measured."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    problem_count: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    # Raw measurements by kind, seconds for times.
    samples: defaultdict[str, list[float]] = field(default_factory=lambda: defaultdict(list))

    def expect(self, reason: str | None) -> None:
        """Record a failed correctness check; ``None`` means it held."""
        if reason is not None:
            self.problem_count += 1
            if len(self.problems) < 10:
                self.problems.append(reason)

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problem_count += other.problem_count
        self.problems.extend(other.problems[: max(0, 10 - len(self.problems))])
        for kind, xs in other.samples.items():
            self.samples[kind].extend(xs)


def p50(xs: list[float]) -> float:
    return statistics.median(xs)


def p99(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=100)[98] if len(xs) >= 2 else xs[0]


def windowed(stamps: list[float], values: list[float], start: float, end: float) -> list[list[float]]:
    """``values`` grouped into WINDOWS equal spans of [start, end) by their stamps."""
    width = (end - start) / WINDOWS
    groups: list[list[float]] = [[] for _ in range(WINDOWS)]
    for t, x in zip(stamps, values):
        groups[min(max(int((t - start) / width), 0), WINDOWS - 1)].append(x)
    return groups


def ms(seconds: float) -> float:
    return seconds * 1e3
