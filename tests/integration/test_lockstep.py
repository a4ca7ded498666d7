"""Differential lockstep harness: cached engines vs reference.

The fast-path execution engine (decode cache, EA-MPU lookaside, bus
routing cache) and the trace engine stacked on top of it (recorded
superinstruction regions, :mod:`repro.machine.traces`) claim to be
semantically invisible.  This harness *proves* it per workload: every
canned guest program is run on the reference engine
(``engine="reference"``) and once per cached tier (``fast``, ``trace``),
and the platforms must end in bit-identical architectural state:
register file, memories, device internals, EA-MPU region file, pending
interrupts, cycle totals, retired-instruction counts, fault addresses,
and the complete retired-instruction trace stream.

MPU counter discipline: ``checks`` and ``faults`` must match exactly
(a lookaside hit is still a check, and a trace entry charges exactly
the checks its instructions would have performed); only
``regions_scanned`` may drop on the cached engines.
"""

import pytest

from repro.core.platform import TrustLitePlatform
from repro.machine.snapshot import Snapshot
from repro.machine.trace import Tracer
from repro.sw.images import (
    build_attestation_image,
    build_ipc_heavy_image,
    build_ipc_image,
    build_probe_image,
    build_two_counter_image,
)

# Every guest workload in the repo's examples/benchmarks, including
# fault-heavy adversarial ones (probes) and interrupt-heavy ones
# (short timer periods force frequent preemption).
WORKLOADS = {
    "two-counter": lambda: build_two_counter_image(timer_period=400),
    "two-counter-tight-timer": lambda: build_two_counter_image(
        timer_period=97
    ),
    "ipc": lambda: build_ipc_image(timer_period=600),
    "ipc-heavy": lambda: build_ipc_heavy_image(timer_period=600),
    "attestation": lambda: build_attestation_image(),
    "probe-read-data": lambda: build_probe_image(
        operation="read", target="data"
    ),
    "probe-write-code": lambda: build_probe_image(
        operation="write", target="code"
    ),
    "probe-execute-stack": lambda: build_probe_image(
        operation="execute", target="stack"
    ),
    "probe-write-mpu": lambda: build_probe_image(
        operation="write", target="mpu"
    ),
    "probe-write-table": lambda: build_probe_image(
        operation="write", target="table"
    ),
}

#: The cached engine tiers, each diffed against the reference.
ENGINES = {
    "fast": {"engine": "fast"},
    "trace": {"engine": "trace"},
}

MAX_CYCLES = 150_000
TRACE_CAPACITY = 1 << 17


def _run(build_image, **engine):
    platform = TrustLitePlatform(**engine)
    platform.boot(build_image())
    tracer = Tracer(capacity=TRACE_CAPACITY).attach(platform.cpu)
    platform.run(max_cycles=MAX_CYCLES)
    return platform, tracer


def _assert_identical(fast, slow, fast_trace, slow_trace):
    snap_fast = Snapshot.save(fast)
    snap_slow = Snapshot.save(slow)
    # Architectural state: registers, ip, flags, cycles, retired.
    assert snap_fast.cpu == snap_slow.cpu
    # EA-MPU region file, enable bit, latched fault address/ip.
    assert snap_fast.mpu == snap_slow.mpu
    # Every memory image and device-internal state, byte for byte.
    assert dict(snap_fast.devices).keys() == dict(snap_slow.devices).keys()
    for (name, state_fast), (_, state_slow) in zip(
        snap_fast.devices, snap_slow.devices
    ):
        assert state_fast == state_slow, f"device {name!r} state diverged"
    assert snap_fast.irq_pending == snap_slow.irq_pending
    assert snap_fast.irq_vectors == snap_slow.irq_vectors
    assert snap_fast.exception_vectors == snap_slow.exception_vectors
    # Check/fault counters keep their meaning under the lookaside.
    assert fast.mpu.stats.checks == slow.mpu.stats.checks
    assert fast.mpu.stats.faults == slow.mpu.stats.faults
    assert fast.mpu.stats.regions_scanned <= slow.mpu.stats.regions_scanned
    # The reference engine never consults a lookaside.
    assert slow.mpu.stats.lookaside_hits == 0
    assert slow.mpu.stats.lookaside_misses == 0
    # Retired-instruction streams are identical, entry by entry.
    assert fast_trace.retired == slow_trace.retired
    assert fast_trace.dropped == slow_trace.dropped
    assert fast_trace.entries == slow_trace.entries
    assert fast_trace.opcode_counts == slow_trace.opcode_counts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_lockstep(name):
    build_image = WORKLOADS[name]
    slow, slow_trace = _run(build_image, engine="reference")
    assert slow_trace.retired > 0, "workload retired no instructions"
    for engine_name, engine in ENGINES.items():
        cached, cached_trace = _run(build_image, **engine)
        try:
            _assert_identical(cached, slow, cached_trace, slow_trace)
        except AssertionError as exc:
            raise AssertionError(
                f"{engine_name} engine diverged from reference: {exc}"
            ) from exc


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_lockstep_warm_reset(engine_name):
    """Re-boot through the loader (MPU reprogramming) stays identical."""
    cached, _ = _run(WORKLOADS["two-counter"], **ENGINES[engine_name])
    slow, _ = _run(WORKLOADS["two-counter"], engine="reference")
    for platform in (cached, slow):
        platform.warm_reset()
    cached_trace = Tracer(capacity=TRACE_CAPACITY).attach(cached.cpu)
    slow_trace = Tracer(capacity=TRACE_CAPACITY).attach(slow.cpu)
    cached.run(max_cycles=60_000)
    slow.run(max_cycles=60_000)
    _assert_identical(cached, slow, cached_trace, slow_trace)


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_lockstep_across_snapshot_clone(engine_name):
    """A clone of a warmed cached platform replays like the reference."""
    cached, _ = _run(WORKLOADS["ipc"], **ENGINES[engine_name])
    slow, _ = _run(WORKLOADS["ipc"], engine="reference")
    clone = Snapshot.save(cached).clone(**ENGINES[engine_name])
    clone_trace = Tracer(capacity=TRACE_CAPACITY).attach(clone.cpu)
    slow_trace = Tracer(capacity=TRACE_CAPACITY).attach(slow.cpu)
    clone.run(max_cycles=60_000)
    slow.run(max_cycles=60_000)
    snap_clone = Snapshot.save(clone)
    snap_slow = Snapshot.save(slow)
    assert snap_clone.cpu == snap_slow.cpu
    assert snap_clone.mpu == snap_slow.mpu
    assert snap_clone.devices == snap_slow.devices
    assert clone_trace.entries == slow_trace.entries
