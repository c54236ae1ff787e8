"""Summary statistics and the failure tally of one benchmark run."""

from __future__ import annotations

import statistics

MIN_BEYOND = 10  # a percentile is reported only with this many samples above it


def percentile(samples, q: float) -> float | None:
    """The q-quantile of samples (0 < q < 1, a whole number of percent), or
    None when fewer than MIN_BEYOND samples would lie beyond it."""
    pct = round(100 * q)
    if len(samples) * (100 - pct) < 100 * MIN_BEYOND:
        return None
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


class Tally:
    """Operations attempted and failed; an operation fails if it raised or if
    its output failed a correctness check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return not problems

    def fail_recorded(self, label: str, problem: str) -> None:
        """Turn an operation already recorded as passing into a failure."""
        self.failed += 1
        self.problems.append(f"{label}: {problem}")

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
