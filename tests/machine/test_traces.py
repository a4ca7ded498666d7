"""Trace-engine coherence: the edge cases that corrupt recording JITs.

The trace engine (:mod:`repro.machine.traces`) pre-fuses hot loop
bodies into single Python closures and replays them under a cycle
budget.  Everything that can yank the ground truth out from under a
recorded trace is exercised here end to end:

* self-modifying code — a guest store, executed *inside* a running
  trace, that rewrites the trace's own instruction bytes must kill the
  trace mid-flight and take effect on the very next iteration;
* EA-MPU revocation — dropping a permission a recorded memory op
  depends on must fault the very next access, never replay a stale
  allow from the baked-in decision memo;
* snapshot restore into a warmed trace cache — the restored machine
  must not replay superinstructions recorded in its previous life;
* IRQ delivery at every instruction offset of a recorded trace — the
  event horizon must bound batching so a pending timer interrupt is
  taken at exactly the same instruction as on the reference engine
  (swept timer periods walk the delivery point across the loop body).

The architectural ground rule throughout: ``engine="trace"`` may only
change how fast the simulation runs, never what it computes.
"""

import pytest

from repro.asm import assemble
from repro.core.platform import TrustLitePlatform
from repro.errors import MachineError, MemoryProtectionFault
from repro.isa.registers import Reg
from repro.machine.bus import Bus
from repro.machine.cpu import Cpu
from repro.machine.memories import Ram
from repro.machine.snapshot import Snapshot
from repro.machine.trace import Tracer
from repro.mpu.ea_mpu import EaMpu
from repro.mpu.regions import ANY_SUBJECT, Perm
from repro.sw.images import build_two_counter_image

RAM_SIZE = 0x8000
BUDGET = 4_000


def _machine(source: str, *, engine="fast") -> Cpu:
    bus = Bus()
    ram = Ram("ram", RAM_SIZE)
    bus.attach(0, ram)
    program = assemble(source, base=0)
    ram.load(0, program.data)
    cpu = Cpu(bus, engine=engine)
    cpu.sp = RAM_SIZE
    cpu._program = program  # symbols for the tests
    return cpu


def _run(cpu: Cpu, max_rounds: int = 50_000, budget: int = BUDGET) -> None:
    for _ in range(max_rounds):
        if cpu.halted:
            return
        cpu.step(budget)
    raise AssertionError("program did not halt")


def _loop_source(iterations: int = 200) -> str:
    return f"""
main:
    movi r1, 0
    movi r2, {iterations}
loop:
    addi r1, r1, 1
    subi r2, r2, 1
    cmpi r2, 0
    bne loop
    halt
"""


class TestEngineContract:
    def test_unknown_engine_is_rejected(self):
        with pytest.raises(MachineError, match="unknown engine 'turbo'"):
            _machine("main:\n    halt\n", engine="turbo")

    def test_plain_step_never_enters_traces(self):
        """Single-stepping (no budget) stays on the interpreter."""
        cpu = _machine(_loop_source(), engine="trace")
        for _ in range(2_000):
            if cpu.halted:
                break
            cpu.step()
        assert cpu.halted
        assert cpu.fastpath.traces.stats["runs"] == 0

    def test_budgeted_run_batches_and_matches_reference(self):
        traced = _machine(_loop_source(), engine="trace")
        slow = _machine(_loop_source(), engine="reference")
        _run(traced)
        _run(slow, budget=None)
        stats = traced.fastpath.traces.stats
        assert stats["recorded"] >= 1
        assert stats["runs"] > 0
        assert stats["instructions"] > 0
        assert traced.regs == slow.regs
        assert traced.cycles == slow.cycles
        assert traced.instructions_retired == slow.instructions_retired


class TestSelfModifyingCodeInsideTrace:
    # The store at the loop head normally targets a data scratch word;
    # on the second pass r4 is retargeted at the immediate slot of the
    # ``movi`` *inside the same loop* — so the patching store executes
    # from within the recorded trace it is invalidating.
    def _program(self) -> str:
        return """
main:
    movi r1, 0
    movi r2, 600
    movi r4, 0x4000
loop:
    stw r0, [r4]
patch:
    movi r0, 1
    addi r1, r1, 1
    subi r2, r2, 1
    cmpi r2, 0
    bne loop
    cmpi r3, 1
    beq done
    movi r3, 1
    movi r4, patch
    addi r4, r4, 4
    movi r0, 99
    movi r2, 50
    jmp loop
done:
    halt
"""

    def test_store_into_own_trace_takes_effect_immediately(self):
        cpu = _machine(self._program(), engine="trace")
        _run(cpu)
        # Second pass must execute the patched ``movi r0, 99``, not a
        # stale superinstruction fused from the original bytes.
        assert cpu.get_reg(Reg.R0) == 99
        stats = cpu.fastpath.traces.stats
        assert stats["recorded"] >= 1, "loop never became a trace"
        assert stats["runs"] > 0, "trace never executed"
        assert stats["invalidations"] >= 1, "patch never killed the trace"

    def test_matches_reference_engine(self):
        traced = _machine(self._program(), engine="trace")
        slow = _machine(self._program(), engine="reference")
        _run(traced)
        _run(slow, budget=None)
        assert traced.regs == slow.regs
        assert traced.cycles == slow.cycles
        assert traced.instructions_retired == slow.instructions_retired


class TestMpuRevocationMidTrace:
    SECRET = 0x4000

    def _machine_with_mpu(self) -> tuple[Cpu, EaMpu]:
        cpu = _machine(
            f"""
main:
    movi r4, {self.SECRET:#x}
loop:
    ldw r7, [r4]
    addi r1, r1, 1
    jmp loop
""",
            engine="trace",
        )
        mpu = EaMpu(num_regions=8)
        mpu.program_region(0, 0x0000, 0x1000, Perm.RX, subjects=ANY_SUBJECT)
        mpu.program_region(
            1, self.SECRET, self.SECRET + 0x100, Perm.RW,
            subjects=ANY_SUBJECT,
        )
        mpu.set_enabled(True)
        cpu.mpu = mpu
        return cpu, mpu

    def test_revoked_load_faults_next_access(self):
        cpu, mpu = self._machine_with_mpu()
        # Warm until the load loop runs as a recorded trace.
        for _ in range(5_000):
            cpu.step(BUDGET)
            if cpu.fastpath.traces.stats["runs"] > 0:
                break
        assert cpu.fastpath.traces.stats["runs"] > 0, "loop never traced"
        retired_before = cpu.instructions_retired
        # Revoke the read permission mid-run, exactly as guest software
        # would reprogram the region: the baked decision memo and the
        # trace's subject masks are both stale now.
        mpu.program_region(
            1, self.SECRET, self.SECRET + 0x100, Perm.NONE,
            subjects=ANY_SUBJECT,
        )
        with pytest.raises(MemoryProtectionFault):
            for _ in range(100):
                cpu.step(BUDGET)
        assert mpu.fault_address == self.SECRET
        # The fault came from the very next guest load: at most one
        # trace-free loop iteration ran after the side exit.
        assert cpu.instructions_retired - retired_before <= 4


class TestSnapshotRestoreIntoWarmedTraceCache:
    def test_restore_drops_recorded_traces(self):
        """Restoring over a trace-warmed platform must not replay it.

        Both images have identical layouts but different instruction
        bytes at the same addresses (counter stride 1 vs 5); a stale
        superinstruction would keep counting with the old stride.
        """
        warmed = TrustLitePlatform(engine="trace")
        warmed.boot(build_two_counter_image(timer_period=400))
        warmed.run(max_cycles=60_000)
        assert warmed.cpu.fastpath.traces.stats["recorded"] > 0

        def stride5():
            from repro.core.image import ImageBuilder, SoftwareModule
            from repro.sw import trustlets
            from repro.sw.images import os_module

            builder = ImageBuilder()
            builder.add_module(os_module(timer_period=400))
            builder.add_module(
                SoftwareModule(
                    name="TL-A", source=trustlets.counter_source(5)
                )
            )
            builder.add_module(
                SoftwareModule(
                    name="TL-B", source=trustlets.counter_source(5)
                )
            )
            return builder.build()

        donor = TrustLitePlatform()
        donor.boot(stride5())
        donor.run(max_cycles=10_000)
        snapshot = Snapshot.save(donor)

        snapshot.restore(warmed)
        reference = TrustLitePlatform(engine="reference")
        reference.boot(stride5())
        snapshot.restore(reference)

        warmed.run(max_cycles=60_000)
        reference.run(max_cycles=60_000)
        assert Snapshot.save(warmed).cpu == Snapshot.save(reference).cpu
        assert (
            Snapshot.save(warmed).devices
            == Snapshot.save(reference).devices
        )

    def test_clone_starts_with_cold_trace_cache(self):
        platform = TrustLitePlatform(engine="trace")
        platform.boot(build_two_counter_image(timer_period=400))
        platform.run(max_cycles=60_000)
        assert platform.cpu.fastpath.traces.stats["runs"] > 0
        clone = Snapshot.save(platform).clone(engine="trace")
        assert clone.cpu.fastpath.traces.stats["traces"] == 0
        clone.run(max_cycles=40_000)
        # And the clone's trace cache warms independently afterwards.
        assert clone.cpu.fastpath.traces.stats["runs"] > 0


class TestIrqDeliveryAtEveryTraceOffset:
    """Timer-period sweep walks IRQ delivery across the loop body.

    The counter trustlet's hot loop is a handful of instructions; 16
    consecutive timer periods cover every cycle residue of the loop,
    so some sweep point lands the interrupt on each instruction offset
    of the recorded trace.  The event horizon must make the trace
    engine stop batching exactly there — lockstep-checked against the
    reference down to the retired-instruction stream.
    """

    @pytest.mark.parametrize("period", range(97, 113))
    def test_lockstep_across_irq_offsets(self, period):
        def run(**engine):
            platform = TrustLitePlatform(**engine)
            platform.boot(build_two_counter_image(timer_period=period))
            tracer = Tracer(capacity=1 << 15).attach(platform.cpu)
            platform.run(max_cycles=40_000)
            return platform, tracer

        traced, traced_stream = run(engine="trace")
        slow, slow_stream = run(engine="reference")
        snap_traced = Snapshot.save(traced)
        snap_slow = Snapshot.save(slow)
        assert snap_traced.cpu == snap_slow.cpu
        assert snap_traced.mpu == snap_slow.mpu
        assert snap_traced.devices == snap_slow.devices
        assert snap_traced.irq_pending == snap_slow.irq_pending
        assert traced_stream.entries == slow_stream.entries
        assert traced.mpu.stats.checks == slow.mpu.stats.checks
        assert traced.mpu.stats.faults == slow.mpu.stats.faults
