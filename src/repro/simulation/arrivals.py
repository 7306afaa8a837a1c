"""First-request arrival patterns (paper Section 5.1).

The paper drives its evaluation with four arrival patterns of first-time
streaming requests, all contained in the first 72 hours of the run:

* **Pattern 1** — constant arrivals;
* **Pattern 2** — gradually increasing, then gradually decreasing arrivals
  (a symmetric triangle peaking mid-window);
* **Pattern 3** — a burst followed by lower, constant arrivals;
* **Pattern 4** — periodic bursts with a low constant floor between them.

The exact constants lived in the authors' technical report [13], which is
not available; the densities below are this reproduction's reconstruction
(shape and relative magnitudes from the paper's prose and figures).
Each pattern is expressed as a *normalized rate density* over the arrival
window (integrating to 1), from which we generate the ``n`` arrival times
either

* **deterministically** — arrival ``i`` at the ``(i + 0.5)/n`` quantile of
  the cumulative density (smooth, exactly reproducible), or
* **stochastically** — an inhomogeneous Poisson process via thinning with a
  seeded RNG.

Both modes produce exactly ``n`` arrivals inside the window.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError

__all__ = [
    "ArrivalPattern",
    "make_pattern",
    "generate_arrival_times",
    "PATTERN_DESCRIPTIONS",
]

PATTERN_DESCRIPTIONS = {
    1: "constant arrivals",
    2: "gradually increasing then decreasing (triangle)",
    3: "initial burst then lower constant arrivals",
    4: "periodic bursts over a low constant floor",
}

#: pattern 3: share of all arrivals inside the opening burst
PATTERN3_BURST_FRACTION = 0.40
#: pattern 3: length of the opening burst as a share of the window
PATTERN3_BURST_SHARE = 1.0 / 12.0
#: pattern 4: evenly spaced bursts per window
PATTERN4_NUM_BURSTS = 6
#: pattern 4: length of each burst as a share of the window
PATTERN4_BURST_DURATION_FRACTION = 1.0 / 36.0
#: pattern 4: share of all arrivals carried by the bursts
PATTERN4_BURST_TOTAL_FRACTION = 0.60


@dataclass(frozen=True)
class ArrivalPattern:
    """A normalized arrival-rate shape over ``[0, window_seconds)``.

    ``density(t)`` integrates to 1 over the window; ``cumulative(t)`` is its
    integral (0 at the window start, 1 at its end).  Both are piecewise
    closed forms per pattern.
    """

    pattern_id: int
    window_seconds: float
    density: Callable[[float], float]
    cumulative: Callable[[float], float]
    peak_density: float
    #: optional fast path for deterministic generation: the factory inlines
    #: its cumulative form into the bisection loop (same arithmetic, same
    #: op order — bit-identical to ``quantile``, minus 60 closure calls per
    #: arrival).  ``generate_arrival_times`` uses it when present.
    deterministic_times: Callable[[int], list[float]] | None = None

    def rate_per_second(self, t: float, total_arrivals: int) -> float:
        """Instantaneous arrival rate at ``t`` for ``total_arrivals`` peers."""
        return total_arrivals * self.density(t)

    def quantile(self, fraction: float) -> float:
        """Inverse of :meth:`cumulative` by bisection (densities are >= 0).

        Deterministic arrival generation evaluates this once per peer —
        100k times for the population-scale scenarios — so the cumulative
        callable is bound locally for the 60-iteration loop.  The
        arithmetic is unchanged: results stay bit-identical.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in [0,1], got {fraction}")
        cumulative = self.cumulative
        lo, hi = 0.0, self.window_seconds
        for _ in range(60):  # ~1e-18 relative precision; plenty for seconds
            mid = (lo + hi) / 2.0
            if cumulative(mid) < fraction:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0


def _constant_pattern(window: float) -> ArrivalPattern:
    """Pattern 1: uniform density ``1/W``."""
    rate = 1.0 / window

    def deterministic_times(n: int) -> list[float]:
        # quantile() with cumulative() inlined; identical arithmetic
        times = [0.0] * n
        for i in range(n):
            fraction = (i + 0.5) / n
            lo, hi = 0.0, window
            for _ in range(60):
                mid = (lo + hi) / 2.0
                if min(max(mid / window, 0.0), 1.0) < fraction:
                    lo = mid
                else:
                    hi = mid
            times[i] = (lo + hi) / 2.0
        return times

    return ArrivalPattern(
        pattern_id=1,
        window_seconds=window,
        density=lambda t: rate if 0 <= t < window else 0.0,
        cumulative=lambda t: min(max(t / window, 0.0), 1.0),
        peak_density=rate,
        deterministic_times=deterministic_times,
    )


def _triangle_pattern(window: float) -> ArrivalPattern:
    """Pattern 2: symmetric triangle peaking at ``W/2`` with height ``2/W``."""
    half = window / 2.0
    peak = 2.0 / window

    def density(t: float) -> float:
        if t < 0 or t >= window:
            return 0.0
        if t <= half:
            return peak * t / half
        return peak * (window - t) / half

    def cumulative(t: float) -> float:
        if t <= 0:
            return 0.0
        if t >= window:
            return 1.0
        if t <= half:
            return 0.5 * (t / half) ** 2
        remaining = (window - t) / half
        return 1.0 - 0.5 * remaining**2

    def deterministic_times(n: int) -> list[float]:
        # quantile() with cumulative() inlined; identical arithmetic
        times = [0.0] * n
        for i in range(n):
            fraction = (i + 0.5) / n
            lo, hi = 0.0, window
            for _ in range(60):
                mid = (lo + hi) / 2.0
                if mid <= 0:
                    c = 0.0
                elif mid >= window:
                    c = 1.0
                elif mid <= half:
                    c = 0.5 * (mid / half) ** 2
                else:
                    remaining = (window - mid) / half
                    c = 1.0 - 0.5 * remaining**2
                if c < fraction:
                    lo = mid
                else:
                    hi = mid
            times[i] = (lo + hi) / 2.0
        return times

    return ArrivalPattern(2, window, density, cumulative, peak, deterministic_times)


def _burst_then_constant_pattern(window: float) -> ArrivalPattern:
    """Pattern 3: ``PATTERN3_BURST_FRACTION`` of arrivals inside the first
    ``PATTERN3_BURST_SHARE`` of the window, the rest constant after it."""
    burst_fraction = PATTERN3_BURST_FRACTION
    burst_end = window * PATTERN3_BURST_SHARE
    burst_rate = burst_fraction / burst_end
    tail_rate = (1.0 - burst_fraction) / (window - burst_end)

    def density(t: float) -> float:
        if t < 0 or t >= window:
            return 0.0
        return burst_rate if t < burst_end else tail_rate

    def cumulative(t: float) -> float:
        if t <= 0:
            return 0.0
        if t >= window:
            return 1.0
        if t < burst_end:
            return burst_rate * t
        return burst_fraction + tail_rate * (t - burst_end)

    def deterministic_times(n: int) -> list[float]:
        # quantile() with cumulative() inlined; identical arithmetic
        times = [0.0] * n
        for i in range(n):
            fraction = (i + 0.5) / n
            lo, hi = 0.0, window
            for _ in range(60):
                mid = (lo + hi) / 2.0
                if mid <= 0:
                    c = 0.0
                elif mid >= window:
                    c = 1.0
                elif mid < burst_end:
                    c = burst_rate * mid
                else:
                    c = burst_fraction + tail_rate * (mid - burst_end)
                if c < fraction:
                    lo = mid
                else:
                    hi = mid
            times[i] = (lo + hi) / 2.0
        return times

    return ArrivalPattern(3, window, density, cumulative, burst_rate, deterministic_times)


def _periodic_bursts_pattern(window: float) -> ArrivalPattern:
    """Pattern 4: ``PATTERN4_NUM_BURSTS`` evenly spaced bursts over a
    constant floor.

    With the 72-hour paper window the constants give 2-hour bursts starting
    every 12 hours (t = 0, 12, …, 60 h) carrying 60 % of all arrivals, and a
    constant floor carrying the remaining 40 %.
    """
    num_bursts = PATTERN4_NUM_BURSTS
    burst_total_fraction = PATTERN4_BURST_TOTAL_FRACTION
    burst_len = window * PATTERN4_BURST_DURATION_FRACTION
    spacing = window / num_bursts
    floor_rate = (1.0 - burst_total_fraction) / window
    burst_rate = burst_total_fraction / (num_bursts * burst_len)
    burst_starts = [k * spacing for k in range(num_bursts)]

    def density(t: float) -> float:
        if t < 0 or t >= window:
            return 0.0
        offset = t % spacing
        return floor_rate + (burst_rate if offset < burst_len else 0.0)

    def cumulative(t: float) -> float:
        if t <= 0:
            return 0.0
        if t >= window:
            return 1.0
        full, offset = divmod(t, spacing)
        burst_mass_per = burst_total_fraction / num_bursts
        mass = full * burst_mass_per + floor_rate * (full * spacing)
        mass += floor_rate * offset
        mass += burst_rate * min(offset, burst_len)
        return mass

    def deterministic_times(n: int) -> list[float]:
        # quantile() with cumulative() inlined; identical arithmetic
        # (burst_mass_per is a hoisted constant subexpression)
        burst_mass_per = burst_total_fraction / num_bursts
        times = [0.0] * n
        for i in range(n):
            fraction = (i + 0.5) / n
            lo, hi = 0.0, window
            for _ in range(60):
                mid = (lo + hi) / 2.0
                if mid <= 0:
                    c = 0.0
                elif mid >= window:
                    c = 1.0
                else:
                    full, offset = divmod(mid, spacing)
                    c = full * burst_mass_per + floor_rate * (full * spacing)
                    c += floor_rate * offset
                    c += burst_rate * min(offset, burst_len)
                if c < fraction:
                    lo = mid
                else:
                    hi = mid
            times[i] = (lo + hi) / 2.0
        return times

    return ArrivalPattern(
        4, window, density, cumulative, floor_rate + burst_rate, deterministic_times
    )


_FACTORIES: dict[int, Callable[[float], ArrivalPattern]] = {
    1: _constant_pattern,
    2: _triangle_pattern,
    3: _burst_then_constant_pattern,
    4: _periodic_bursts_pattern,
}


def make_pattern(pattern_id: int, window_seconds: float) -> ArrivalPattern:
    """Build arrival pattern ``pattern_id`` (1–4) over ``window_seconds``."""
    if pattern_id not in _FACTORIES:
        raise ConfigurationError(f"unknown arrival pattern {pattern_id}")
    if window_seconds <= 0:
        raise ConfigurationError(f"window must be > 0, got {window_seconds}")
    return _FACTORIES[pattern_id](window_seconds)


def generate_arrival_times(
    pattern: ArrivalPattern,
    total_arrivals: int,
    deterministic: bool = True,
    rng: random.Random | None = None,
) -> list[float]:
    """Arrival times of ``total_arrivals`` first requests under ``pattern``.

    Deterministic mode places arrival ``i`` at the ``(i + 0.5)/n`` quantile
    of the cumulative density.  Stochastic mode runs an inhomogeneous
    Poisson thinning sweep and then resamples to exactly ``n`` points (the
    paper fixes the *number* of peers, not the rate).
    """
    if total_arrivals < 0:
        raise ConfigurationError(f"total_arrivals must be >= 0, got {total_arrivals}")
    if total_arrivals == 0:
        return []
    if deterministic:
        if pattern.deterministic_times is not None:
            return pattern.deterministic_times(total_arrivals)
        return [
            pattern.quantile((i + 0.5) / total_arrivals) for i in range(total_arrivals)
        ]

    if rng is None:
        raise ConfigurationError("stochastic arrival generation needs an RNG")
    # Thinning against the peak density, oversampling then trimming/padding
    # to exactly ``total_arrivals`` draws.
    times: list[float] = []
    max_rate = pattern.peak_density * total_arrivals
    t = 0.0
    while t < pattern.window_seconds:
        t += rng.expovariate(max_rate)
        if t >= pattern.window_seconds:
            break
        if rng.random() * max_rate <= pattern.rate_per_second(t, total_arrivals):
            times.append(t)
    while len(times) < total_arrivals:  # pad by inverse-CDF draws
        times.append(pattern.quantile(rng.random()))
    times.sort()
    if len(times) > total_arrivals:  # trim uniformly, preserving the shape
        step = len(times) / total_arrivals
        times = [times[int(i * step)] for i in range(total_arrivals)]
    return times


def arrivals_per_bin(
    times: list[float], bin_seconds: float, horizon_seconds: float
) -> list[int]:
    """Histogram of arrival times — used by tests and ASCII plots."""
    if bin_seconds <= 0:
        raise ConfigurationError(f"bin width must be > 0, got {bin_seconds}")
    num_bins = math.ceil(horizon_seconds / bin_seconds)
    counts = [0] * num_bins
    for t in times:
        index = min(int(t / bin_seconds), num_bins - 1)
        counts[index] += 1
    return counts
