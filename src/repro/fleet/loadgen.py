"""Seeded open-loop load generation for the attestation service.

The fleet's batch mode (``python -m repro fleet``) is closed-loop: the
verifier challenges every device, waits, then starts the next round.
A *service* faces the opposite regime — devices stream quotes in at
their own pace, and the verifier must keep up or shed load.  This
module produces that traffic as data: a :class:`LoadProfile` plus a
seed deterministically expands into an :class:`ArrivalSchedule` — one
``(cycle, device_id)`` event per attestation request — before the
server runs a single tick.

Three traffic shapes compose:

* **Poisson base load** — exponential inter-arrival draws at
  ``rate_per_kcycle`` mean arrivals per 1000 simulated cycles;
* **burst trains** — periodic windows during which an *additional*
  Poisson stream at ``(burst_multiplier - 1) x`` the base rate is
  superposed (the superposition of Poisson processes is Poisson at the
  summed rate, so bursts are statistically honest, not just replayed
  spikes);
* **flap storms** — :func:`storm_windows` turns the seed into
  :func:`~repro.fleet.transport.flap_windows` outage schedules for the
  transport's :class:`~repro.fleet.transport.FaultModel`, so link
  flapping is part of the offered workload, not an afterthought.

Everything is a pure function of ``(profile, seed, devices)``: the
schedule never reads a clock, the RNG streams are string-seeded
(stable across processes and ``PYTHONHASHSEED``), and event order is
totally determined — ties sort by draw index.  Two runs with the same
seed offer byte-identical load.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.errors import FleetError
from repro.fleet.transport import flap_windows


@dataclass(frozen=True)
class Arrival:
    """One attestation request: challenge ``device_id`` at ``cycle``."""

    cycle: int
    device_id: int


@dataclass(frozen=True)
class LoadProfile:
    """Open-loop traffic shape over ``[0, duration_cycles)``.

    ``rate_per_kcycle`` is the mean base arrival rate per 1000
    simulated cycles.  When ``burst_every`` is positive, a burst
    window of ``burst_length`` cycles opens at every multiple of
    ``burst_every`` and multiplies the arrival rate by
    ``burst_multiplier`` for its duration.  ``storm_up_mean`` /
    ``storm_down_mean`` (both positive to enable) describe a flapping
    link: mean cycles up between outages and mean cycles down per
    outage.
    """

    duration_cycles: int
    rate_per_kcycle: float = 2.0
    burst_every: int = 0
    burst_length: int = 0
    burst_multiplier: float = 1.0
    storm_up_mean: int = 0
    storm_down_mean: int = 0

    def __post_init__(self) -> None:
        if self.duration_cycles < 1:
            raise FleetError(
                f"duration_cycles must be >= 1: {self.duration_cycles}"
            )
        if not math.isfinite(self.rate_per_kcycle) \
                or self.rate_per_kcycle <= 0:
            raise FleetError(
                "rate_per_kcycle must be positive and finite: "
                f"{self.rate_per_kcycle}"
            )
        if self.burst_every < 0 or self.burst_length < 0:
            raise FleetError("burst knobs must be >= 0")
        if self.burst_every and not self.burst_length:
            raise FleetError("burst_every needs a burst_length")
        if self.burst_length and not self.burst_every:
            raise FleetError("burst_length needs a burst_every")
        if self.burst_length > self.burst_every > 0:
            raise FleetError(
                f"burst_length {self.burst_length} exceeds burst_every "
                f"{self.burst_every}"
            )
        if not math.isfinite(self.burst_multiplier):
            raise FleetError(
                f"burst_multiplier must be finite: {self.burst_multiplier}"
            )
        if self.burst_every and self.burst_multiplier <= 1.0:
            raise FleetError(
                f"burst_multiplier must be > 1 when bursting: "
                f"{self.burst_multiplier}"
            )
        if (self.storm_up_mean > 0) != (self.storm_down_mean > 0):
            raise FleetError(
                "storm needs both storm_up_mean and storm_down_mean"
            )
        if self.storm_up_mean < 0 or self.storm_down_mean < 0:
            raise FleetError("storm means must be >= 0")

    @property
    def bursting(self) -> bool:
        return self.burst_every > 0

    @property
    def storming(self) -> bool:
        return self.storm_up_mean > 0

    def burst_windows(self) -> tuple[tuple[int, int], ...]:
        """Half-open burst windows over the horizon (no RNG needed)."""
        if not self.bursting:
            return ()
        return tuple(
            (start, min(start + self.burst_length, self.duration_cycles))
            for start in range(
                self.burst_every, self.duration_cycles, self.burst_every
            )
        )


def _poisson_stream(
    rng: random.Random, rate_per_kcycle: float, start: int, end: int
) -> list[int]:
    """Poisson arrival cycles in ``[start, end)`` at the given rate."""
    arrivals = []
    now = float(start)
    per_cycle = rate_per_kcycle / 1000.0
    while True:
        now += rng.expovariate(per_cycle)
        if now >= end:
            return arrivals
        arrivals.append(int(now))


def build_schedule(
    profile: LoadProfile, *, seed: int, devices: int
) -> tuple[Arrival, ...]:
    """Expand a profile into the full arrival schedule, sorted by cycle.

    Pure function of ``(profile, seed, devices)``.  The base stream,
    every burst window's extra stream, and the device assignment each
    get their own string-seeded RNG, so adding a burst never shifts
    the base arrivals and vice versa.
    """
    if devices < 1:
        raise FleetError("schedule needs at least one device")
    base_rng = random.Random(f"serve-load:{seed}:base")
    cycles = _poisson_stream(
        base_rng, profile.rate_per_kcycle, 0, profile.duration_cycles
    )
    for index, (start, end) in enumerate(profile.burst_windows()):
        burst_rng = random.Random(f"serve-load:{seed}:burst:{index}")
        extra_rate = profile.rate_per_kcycle * (
            profile.burst_multiplier - 1.0
        )
        cycles.extend(
            _poisson_stream(burst_rng, extra_rate, start, end)
        )
    # Stable order: cycle first, insertion index breaks ties, so the
    # device assignment below is a pure function of the seed.
    order = sorted(range(len(cycles)), key=lambda i: (cycles[i], i))
    device_rng = random.Random(f"serve-load:{seed}:device")
    return tuple(
        Arrival(cycle=cycles[i], device_id=device_rng.randrange(devices))
        for i in order
    )


def storm_windows(
    profile: LoadProfile, *, seed: int
) -> tuple[tuple[int, int], ...]:
    """The profile's flap-storm outage schedule (empty when off).

    Reuses :func:`~repro.fleet.transport.flap_windows` with a
    dedicated string-seeded RNG, so the storm pattern is independent
    of the arrival draws and reproducible on its own.
    """
    if not profile.storming:
        return ()
    return flap_windows(
        random.Random(f"serve-storm:{seed}"),
        horizon=profile.duration_cycles,
        up_mean=profile.storm_up_mean,
        down_mean=profile.storm_down_mean,
    )
