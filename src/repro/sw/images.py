"""Canned PROM images used by tests, examples and benchmarks.

Every ``build_*`` function here is memoised per process (see
:func:`_memoised`): the golden image of a fleet, service, fault or OTA
run is assembled once, not once per call.
"""

from __future__ import annotations

import functools

from repro.core import layout
from repro.core.image import (
    ImageBuilder,
    MmioGrant,
    SharedRegionRequest,
    SoftwareModule,
)
from repro.machine import soc as socmap
from repro.machine.devices import crypto_engine as ce
from repro.machine.devices import timer as tm
from repro.machine.devices import uart as um
from repro.mpu.regions import Perm
from repro.sw import kernel, runtime, trustlets


#: Entries kept per builder.  The widest user is the probe matrix, at
#: one entry per (operation, target) pair.
MEMO_SIZE = 32


def _memoised(builder):
    """Build ``builder``'s image once per process and argument set.

    Every builder takes keyword-only arguments, so the key is the
    builder and its sorted arguments with the defaults folded in:
    ``build_x()`` and ``build_x(timer_period=<default>)`` share one
    entry.  A build is a pure function of that key, and every call
    hands out the same :class:`~repro.core.image.BuiltImage`: no caller
    mutates an image (``boot`` copies its PROM bytes into the device,
    ``tamper_code`` writes the device's PROM, and ``boot_signed`` only
    drops the platform's reference), so nothing is copied.  The raw
    builder stays reachable as ``__wrapped__``; ``cache_info`` and
    ``cache_clear`` are the bounded LRU's own.
    """
    defaults = builder.__kwdefaults__ or {}

    @functools.lru_cache(maxsize=MEMO_SIZE)
    def build(key: tuple):
        return builder(**dict(key))

    @functools.wraps(builder)
    def memo(**kwargs):
        return build(tuple(sorted({**defaults, **kwargs}.items())))

    memo.cache_info = build.cache_info
    memo.cache_clear = build.cache_clear
    return memo


def os_module(
    *,
    timer_period: int = 400,
    schedule: bool = True,
    halt_on_fault: bool = True,
    name: str = "OS",
    watchdog_period: int = 0,
) -> SoftwareModule:
    """The standard kernel module with timer + UART grants.

    ``watchdog_period > 0`` additionally grants and arms the
    non-maskable watchdog (fault-tolerance hardening, Sec. 6).
    """
    from repro.machine.devices import watchdog as wd

    grants = [
        MmioGrant(socmap.TIMER_BASE, tm.SIZE),
        MmioGrant(socmap.UART_BASE, um.SIZE),
    ]
    if watchdog_period > 0:
        grants.append(MmioGrant(socmap.WATCHDOG_BASE, wd.SIZE))
    return SoftwareModule(
        name=name,
        source=lambda lay: kernel.os_source(
            lay,
            timer_period=timer_period,
            schedule=schedule,
            halt_on_fault=halt_on_fault,
            watchdog_period=watchdog_period,
        ),
        data_size=0x100,
        stack_size=0x200,
        is_os=True,
        entry_size=kernel.OS_ENTRY_SIZE,
        mmio_grants=tuple(grants),
    )


@_memoised
def build_two_counter_image(
    *, timer_period: int = 400, halt_on_fault: bool = True
):
    """OS + two counter trustlets: the preemptive-scheduling workload."""
    builder = ImageBuilder()
    builder.add_module(
        os_module(timer_period=timer_period, halt_on_fault=halt_on_fault)
    )
    builder.add_module(
        SoftwareModule(name="TL-A", source=trustlets.counter_source(1))
    )
    builder.add_module(
        SoftwareModule(name="TL-B", source=trustlets.counter_source(1))
    )
    return builder.build()


@_memoised
def build_ipc_image(*, timer_period: int = 600):
    """OS + sender/receiver pair: trustlet-to-trustlet IPC workload."""
    builder = ImageBuilder()
    builder.add_module(os_module(timer_period=timer_period))
    builder.add_module(
        SoftwareModule(
            name="TL-SND",
            source=trustlets.sender_source("TL-RCV"),
        )
    )
    builder.add_module(
        SoftwareModule(
            name="TL-RCV",
            source=trustlets.queue_receiver_source(),
        )
    )
    return builder.build()


@_memoised
def build_ipc_heavy_image(*, timer_period: int = 600, depth: int = 96):
    """OS + compute-heavy sender/receiver pair with per-hop MPU writes.

    The benchmark workload behind ``trustlet-ipc-heavy``: every hop
    runs a ``depth``-iteration register loop on each side of a full
    voluntary-yield IPC round trip, and the sender rewrites one spare
    (invalid, last-index) EA-MPU region register between hops.  The
    write never changes effective policy, but it bumps the region
    file's generation exactly like a real reconfiguration — forcing a
    lookaside reload and a trace revalidation per hop.
    """
    from repro.core.platform import DEFAULT_MPU_REGIONS
    from repro.mpu import mmio as mpu_mmio

    # BASE register of the last region, which the Secure Loader never
    # allocates for an image this small; its ATTR stays 0 (invalid).
    reconfig = (
        socmap.MPU_MMIO_BASE
        + mpu_mmio.REGIONS
        + (DEFAULT_MPU_REGIONS - 1) * mpu_mmio.REGION_STRIDE
    )
    builder = ImageBuilder()
    builder.add_module(os_module(timer_period=timer_period))
    builder.add_module(
        SoftwareModule(
            name="TL-SND",
            source=trustlets.ipc_heavy_sender_source(
                "TL-RCV", depth=depth, reconfig_address=reconfig
            ),
            mmio_grants=(MmioGrant(reconfig, 4, Perm.RW),),
        )
    )
    builder.add_module(
        SoftwareModule(
            name="TL-RCV",
            source=trustlets.ipc_heavy_receiver_source(depth=depth),
        )
    )
    return builder.build()


@_memoised
def build_attestation_image(*, timer_period: int = 2000):
    """OS + attestation trustlet with exclusive crypto-engine access."""
    builder = ImageBuilder()
    builder.add_module(os_module(timer_period=timer_period))
    builder.add_module(
        SoftwareModule(
            name="ATTEST",
            source=trustlets.attestation_source(),
            mmio_grants=(MmioGrant(socmap.CRYPTO_BASE, ce.SIZE),),
        )
    )
    return builder.build()


@_memoised
def build_probe_image(
    *,
    operation: str = "read",
    target: str = "data",
    timer_period: int = 400,
    halt_on_fault: bool = True,
):
    """OS + victim counter + adversarial probe trustlet.

    ``target`` selects what the probe attacks: the victim's private
    ``data`` word, its ``stack``, its ``code`` (write attempt), the
    ``mpu`` register window, or the Trustlet ``table``.  Layout is
    deterministic, so the image is built once with a placeholder to
    resolve the victim's addresses and once more with the real target.
    """

    def make(victim_address: int):
        builder = ImageBuilder()
        builder.add_module(
            os_module(timer_period=timer_period, halt_on_fault=halt_on_fault)
        )
        builder.add_module(
            SoftwareModule(name="VICTIM", source=trustlets.counter_source(1))
        )
        builder.add_module(
            SoftwareModule(
                name="PROBE",
                source=trustlets.probe_source(
                    victim_address, operation=operation
                ),
            )
        )
        return builder.build()

    probe_targets = {
        "mpu": socmap.MPU_MMIO_BASE + 0x10,  # first region register
        "timer": socmap.TIMER_BASE,
    }
    if target in probe_targets:
        return make(probe_targets[target])
    draft = make(0x2000_0000)
    victim = draft.layout_of("VICTIM")
    address = {
        "data": victim.data_base + trustlets.COUNTER_OFF_VALUE,
        "stack": victim.stack_base,
        "code": victim.code_base + 0x20,
        "table": draft.layout_of("PROBE").sp_slot,
    }[target]
    return make(address)


def _rogue_source(victim_stack: int):
    """A misbehaving trustlet for :func:`build_broken_image`.

    One true positive per rule family the verifier knows:

    * stores into the victim's stack (TL-ACC-001) and jumps past the
      victim's entry vector (TL-ENTRY-001) — the PR-1 classics;
    * forwards an untrusted shared-region word into the MPU window
      (TL-TAINT-002) and the crypto CTRL register (TL-TAINT-003), and
      jumps through the caller-controlled IPC payload register
      (TL-TAINT-001);
    * computed jumps whose targets only the interprocedural dataflow
      pass resolves — the pointers survive a join, so the block-local
      propagation cannot see them — landing outside every code region
      (TL-IJMP-001) and inside the victim's code body (TL-IJMP-002);
    * a call chain that provably overflows the 0x100-byte stack
      (TL-STACK-001) and a resume path that pushes in a loop with no
      static bound (TL-STACK-002).
    """

    def source(lay):
        mid_victim = (
            lay.peer_entry("VICTIM") + layout.ENTRY_VECTOR_SIZE + 4
        )
        scratch_base, _end = lay.shared["scratch"]
        spills = "\n".join("    push r0" for _ in range(80))
        return f"""
{runtime.entry_vector()}
main:
    call deep_spill         ; provable 320-byte peak (TL-STACK-001)
    movi r9, {scratch_base:#x}
    ldw r5, [r9]            ; untrusted: shared-region read
    movi r4, {socmap.MPU_MMIO_BASE:#x}
    stw r5, [r4]            ; tainted MPU write (TL-TAINT-002)
    movi r4, {socmap.CRYPTO_BASE + ce.CTRL:#x}
    stw r5, [r4]            ; tainted crypto command (TL-TAINT-003)
    movi r4, {victim_stack:#x}
    movi r5, 0x41
    stw r5, [r4]            ; foreign stack smash (TL-ACC-001)
    movi r6, 0x000f0000     ; wild pointer...
    movi r7, {mid_victim + 8:#x} ; ...and a victim-body pointer
    cmpi r0, 0
    beq wild_side           ; both pointers survive this join — only
    cmpi r0, 1              ; the dataflow pass still resolves them
    beq peer_side
    jmp {mid_victim:#x}     ; bypass the entry vector (TL-ENTRY-001)
wild_side:
    jmpr r6                 ; dataflow-resolved wild jump (TL-IJMP-001)
peer_side:
    jmpr r7                 ; dataflow-resolved entry bypass (TL-IJMP-002)
deep_spill:
{spills}
    addi sp, sp, 320
    ret
{runtime.continue_impl(lay)}
impl_call:
    jmpr r1                 ; jump through the IPC payload (TL-TAINT-001)
impl_resume:
    push r0                 ; unbounded growth (TL-STACK-002)
    jmp impl_resume
"""

    return source


@_memoised
def build_broken_image():
    """A deliberately-misconfigured image the static verifier must flag.

    Every defect is real in the sense that the Secure Loader would
    happily program it — the metadata is well-formed — but the resulting
    platform violates TrustLite invariants:

    * ``EVIL``'s "MMIO grant" windows actually cover ``VICTIM``'s data
      region and the MPU's own register window (cross-trustlet write +
      broken lockdown);
    * ``EVIL`` requests an ``rwx`` shared region (W^X violation);
    * ``EVIL``'s code stores into ``VICTIM``'s stack and jumps into the
      middle of ``VICTIM``'s code, bypassing the entry vector;
    * ``EVIL``'s code lets untrusted input reach every taint sink, hides
      two illegal computed-jump targets behind a join, and violates both
      stack-depth rules (see :func:`_rogue_source`).

    Built with the same two-pass trick as :func:`build_probe_image`:
    the victim's layout is deterministic, so a draft build resolves the
    addresses the rogue module bakes in.
    """

    def make(victim_data: int, victim_stack: int):
        builder = ImageBuilder()
        builder.add_module(os_module(schedule=False))
        builder.add_module(
            SoftwareModule(name="VICTIM", source=trustlets.counter_source(1))
        )
        builder.add_module(
            SoftwareModule(
                name="EVIL",
                source=_rogue_source(victim_stack),
                mmio_grants=(
                    # Not peripherals at all: foreign SRAM and the MPU.
                    MmioGrant(victim_data, 0x100, Perm.RW),
                    MmioGrant(socmap.MPU_MMIO_BASE, 12, Perm.RW),
                    # A real crypto grant so the tainted CTRL store is
                    # policy-legal — only the taint rule catches it.
                    MmioGrant(socmap.CRYPTO_BASE, ce.SIZE),
                ),
                shared=(
                    SharedRegionRequest("scratch", 0x40, Perm.RWX),
                ),
            )
        )
        return builder.build()

    draft = make(0x2000_0000, 0x2000_0000)
    victim = draft.layout_of("VICTIM")
    return make(victim.data_base, victim.stack_base)
