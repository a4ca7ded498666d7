"""Fast-path cache coherence: the edge cases that corrupt emulators.

Three invalidation triggers are each exercised end to end:

* self-modifying code — a store into an already-executed (and thus
  decode-cached) instruction must take effect on the next fetch;
* EA-MPU reprogramming mid-run — dropping a previously-allowed (and
  thus lookaside-cached) permission must fault the very next access;
* snapshot restore into a warmed platform — the restored machine must
  not inherit stale decode or permission entries from its previous
  life.
"""

import pytest

from repro.asm import assemble
from repro.core.image import ImageBuilder, SoftwareModule
from repro.core.platform import TrustLitePlatform
from repro.errors import MemoryProtectionFault
from repro.isa.registers import Reg
from repro.machine.access import AccessType
from repro.machine.bus import Bus
from repro.machine.cpu import Cpu
from repro.machine.fastpath import MpuLookaside
from repro.machine.memories import Ram
from repro.machine.snapshot import MpuState, Snapshot
from repro.mpu.ea_mpu import EaMpu
from repro.mpu.regions import ANY_SUBJECT, Perm
from repro.sw import trustlets
from repro.sw.images import os_module

RAM_SIZE = 0x8000


def _machine(source: str, *, engine: str = "fast") -> Cpu:
    bus = Bus()
    ram = Ram("ram", RAM_SIZE)
    bus.attach(0, ram)
    program = assemble(source, base=0)
    ram.load(0, program.data)
    cpu = Cpu(bus, engine=engine)
    cpu.sp = RAM_SIZE
    cpu._program = program  # symbols for the tests
    return cpu


def _run(cpu: Cpu, max_steps: int = 10_000) -> None:
    for _ in range(max_steps):
        if cpu.halted:
            return
        cpu.step()
    raise AssertionError("program did not halt")


class TestSelfModifyingCode:
    def _patch_program(self) -> str:
        # MOVI is an 8-byte instruction whose immediate lives in the
        # extension word; storing 99 at ``target+4`` rewrites the
        # already-executed (and decode-cached) ``movi r0, 1`` in place.
        return """
main:
    movi r1, 0
target:
    movi r0, 1
    cmpi r1, 1
    beq done
    movi r1, 1
    movi r4, target
    movi r5, 99
    stw r5, [r4+4]
    jmp target
done:
    movi r2, 5
spin:
    subi r2, r2, 1
    cmpi r2, 0
    bne spin
    halt
"""

    def test_store_into_cached_instruction_redecodes(self):
        cpu = _machine(self._patch_program())
        _run(cpu)
        # Second pass must execute the patched instruction, not the
        # cached decode of the original.
        assert cpu.get_reg(Reg.R0) == 99
        cache = cpu.fastpath.decode_cache
        assert cache.hits > 0, "test never exercised the decode cache"
        assert cache.invalidations > 0, "patch never invalidated an entry"

    def test_matches_reference_engine(self):
        fast = _machine(self._patch_program(), engine="fast")
        slow = _machine(self._patch_program(), engine="reference")
        _run(fast)
        _run(slow)
        assert fast.regs == slow.regs
        assert fast.cycles == slow.cycles
        assert fast.instructions_retired == slow.instructions_retired

    def test_host_load_invalidates(self):
        """``Ram.load`` (field update / image reprogram) drops decodes."""
        cpu = _machine("main:\n    movi r0, 1\n    jmp main\n")
        for _ in range(8):
            cpu.step()
        target = cpu._program.symbol("main")
        assert target in cpu.fastpath.decode_cache.entries
        replacement = assemble("movi r0, 7\nhalt", base=target)
        cpu.bus.device_named("ram").load(target, replacement.data)
        _run(cpu)
        assert cpu.get_reg(Reg.R0) == 7

    def test_wipe_invalidates(self):
        cpu = _machine("main:\n    movi r0, 1\n    jmp main\n")
        for _ in range(8):
            cpu.step()
        assert cpu.fastpath.decode_cache.entries
        cpu.bus.device_named("ram").wipe()
        assert not cpu.fastpath.decode_cache.entries


class TestMpuReprogramming:
    SECRET = 0x4000

    def _cpu_with_mpu(self) -> tuple[Cpu, EaMpu]:
        cpu = _machine("main:\n    nop\n    jmp main\n")
        mpu = EaMpu(num_regions=8)
        mpu.program_region(0, 0x0000, 0x1000, Perm.RX, subjects=ANY_SUBJECT)
        mpu.program_region(
            1, self.SECRET, self.SECRET + 0x100, Perm.RW,
            subjects=ANY_SUBJECT,
        )
        mpu.set_enabled(True)
        cpu.mpu = mpu
        return cpu, mpu

    def test_lookaside_installed(self):
        cpu, _mpu = self._cpu_with_mpu()
        assert isinstance(cpu.fastpath.lookaside, MpuLookaside)

    def test_dropped_permission_faults_next_access(self):
        cpu, mpu = self._cpu_with_mpu()
        cpu.step()  # curr_ip inside region 0
        # Warm the lookaside with an allowed read decision.
        for _ in range(3):
            assert cpu.load(self.SECRET) == 0
        assert mpu.stats.lookaside_hits > 0
        # Revoke the read permission mid-run: three register writes,
        # exactly as guest software would reprogram the region.
        mpu.program_region(
            1, self.SECRET, self.SECRET + 0x100, Perm.NONE,
            subjects=ANY_SUBJECT,
        )
        with pytest.raises(MemoryProtectionFault):
            cpu.load(self.SECRET)
        assert mpu.fault_address == self.SECRET

    def test_enable_toggle_flushes(self):
        cpu, mpu = self._cpu_with_mpu()
        cpu.step()
        assert cpu.load(self.SECRET) == 0
        mpu.set_enabled(False)
        # Disabled: even unmapped-by-policy addresses pass.
        cpu.load(0x2000)
        mpu.set_enabled(True)
        with pytest.raises(MemoryProtectionFault):
            cpu.load(0x2000)

    def test_denied_decision_is_replayed_from_lookaside(self):
        cpu, mpu = self._cpu_with_mpu()
        cpu.step()
        for _ in range(3):
            with pytest.raises(MemoryProtectionFault):
                cpu.store(0x0100, 1)  # code region is not writable
        # Every denial latched fault state and counted, hit or miss.
        assert mpu.stats.faults == 3
        assert mpu.fault_address == 0x0100

    def test_mpu_state_apply_flushes_lookaside(self):
        """Scan-chain restore of the region file drops stale decisions."""
        cpu, mpu = self._cpu_with_mpu()
        cpu.step()
        assert cpu.load(self.SECRET) == 0  # warm: read allowed
        restrictive = EaMpu(num_regions=8)
        restrictive.program_region(
            0, 0x0000, 0x1000, Perm.RX, subjects=ANY_SUBJECT
        )
        restrictive.set_enabled(True)
        MpuState.capture(restrictive).apply(mpu)
        with pytest.raises(MemoryProtectionFault):
            cpu.load(self.SECRET)


def _counter_image(stride: int):
    builder = ImageBuilder()
    builder.add_module(os_module(timer_period=400))
    builder.add_module(
        SoftwareModule(name="TL-A", source=trustlets.counter_source(stride))
    )
    builder.add_module(
        SoftwareModule(name="TL-B", source=trustlets.counter_source(stride))
    )
    return builder.build()


class TestSnapshotRestoreIntoWarmedCache:
    def test_restore_drops_stale_decode_and_permissions(self):
        """Restoring over a warmed platform must not replay its past.

        Both images have identical layouts but different instruction
        bytes at the same addresses (counter stride 1 vs 5); a stale
        decode entry would make the restored platform keep counting
        with the old stride.
        """
        warmed = TrustLitePlatform()
        warmed.boot(_counter_image(stride=1))
        warmed.run(max_cycles=60_000)
        assert warmed.cpu.fastpath.decode_cache.entries

        donor = TrustLitePlatform()
        donor.boot(_counter_image(stride=5))
        donor.run(max_cycles=10_000)
        snapshot = Snapshot.save(donor)

        snapshot.restore(warmed)
        reference = TrustLitePlatform(engine="reference")
        reference.boot(_counter_image(stride=5))
        snapshot.restore(reference)

        warmed.run(max_cycles=60_000)
        reference.run(max_cycles=60_000)
        assert Snapshot.save(warmed).cpu == Snapshot.save(reference).cpu
        assert Snapshot.save(warmed).devices == Snapshot.save(reference).devices
        value = warmed.read_trustlet_word(
            "TL-A", trustlets.COUNTER_OFF_VALUE
        )
        assert value == reference.read_trustlet_word(
            "TL-A", trustlets.COUNTER_OFF_VALUE
        )

    def test_clone_starts_with_cold_caches(self):
        platform = TrustLitePlatform()
        platform.boot(_counter_image(stride=1))
        platform.run(max_cycles=40_000)
        clone = Snapshot.save(platform).clone()
        assert not clone.cpu.fastpath.decode_cache.entries
        clone.run(max_cycles=40_000)
        # And the clone's caches warm independently afterwards.
        assert clone.cpu.fastpath.decode_cache.hits > 0


class TestLookasideStats:
    def _stepped_mpu(self, *, engine: str) -> "EaMpu":
        cpu = _machine("main:\n    nop\n    jmp main\n", engine=engine)
        mpu = EaMpu(num_regions=4)
        mpu.program_region(0, 0x0000, 0x1000, Perm.RX, subjects=ANY_SUBJECT)
        mpu.set_enabled(True)
        cpu.mpu = mpu
        for _ in range(10):
            cpu.step()
        return mpu

    def test_hit_still_counts_as_check(self):
        fast = self._stepped_mpu(engine="fast")
        slow = self._stepped_mpu(engine="reference")
        # ``checks`` keeps its meaning: one per fetched word (8-byte
        # instructions check twice), identical on both engines.
        assert fast.stats.checks == slow.stats.checks == 15
        # Every one of those checks was answered by the lookaside.
        assert (
            fast.stats.lookaside_hits + fast.stats.lookaside_misses
            == fast.stats.checks
        )
        assert fast.stats.lookaside_hits > 0

    def test_uncached_engine_never_touches_lookaside(self):
        slow = self._stepped_mpu(engine="reference")
        assert slow.stats.lookaside_hits == 0
        assert slow.stats.lookaside_misses == 0


class TestLookasideEviction:
    SECRET = 0x4000

    def _warmed(self) -> tuple[Cpu, EaMpu]:
        cpu = _machine("main:\n    nop\n    jmp main\n")
        mpu = EaMpu(num_regions=8)
        mpu.program_region(0, 0x0000, 0x1000, Perm.RX, subjects=ANY_SUBJECT)
        mpu.program_region(
            1, self.SECRET, self.SECRET + 0x1000, Perm.RW,
            subjects=ANY_SUBJECT,
        )
        mpu.set_enabled(True)
        cpu.mpu = mpu
        cpu.step()  # curr_ip inside region 0
        return cpu, mpu

    def test_overflow_evicts_oldest_half_not_whole_table(self):
        """Hot (young) keys must survive a full decision memo.

        The memo used to cold-start wholesale at ``MAX_DECISIONS``:
        one sweeping workload crossing the bound re-missed *every*
        live key, including the hot loop's own.  Overflow now drops
        only the oldest half, in place (trace closures hold a bound
        ``_decisions.get``), so recently-minted decisions keep
        answering from the lookaside.
        """
        cpu, mpu = self._warmed()
        la = cpu.fastpath.lookaside
        la.MAX_DECISIONS = 8
        address = self.SECRET
        while len(la._decisions) < la.MAX_DECISIONS:
            cpu.load(address)
            address += 4
        young = list(la._decisions)[la.MAX_DECISIONS // 2:]
        hot_address = address - 4  # youngest decision of all
        # One more distinct miss crosses the bound: the oldest half
        # goes, the young half (and the new key) stay.
        cpu.load(address)
        assert la.evictions == la.MAX_DECISIONS // 2
        assert la._decisions, "eviction emptied the memo"
        assert len(la._decisions) == la.MAX_DECISIONS // 2 + 1
        for key in young:
            assert key in la._decisions, "young decision was evicted"
        # And a surviving key still answers from the lookaside.
        hits_before = mpu.stats.lookaside_hits
        misses_before = mpu.stats.lookaside_misses
        cpu.load(hot_address)
        assert mpu.stats.lookaside_hits == hits_before + 1
        assert mpu.stats.lookaside_misses == misses_before

    def test_eviction_never_changes_verdicts(self):
        cpu, mpu = self._warmed()
        la = cpu.fastpath.lookaside
        la.MAX_DECISIONS = 4
        # Sweep far past the bound, interleaving allowed reads with
        # denied writes to the code region; every verdict must match
        # the uncached scan regardless of what got evicted.
        for i in range(32):
            assert cpu.load(self.SECRET + 4 * i) == 0
            with pytest.raises(MemoryProtectionFault):
                cpu.store(0x0100, 1)
        assert la.evictions > 0
        assert mpu.stats.faults == 32


class TestNonEaMpuHookStillWorks:
    def test_plain_check_object(self):
        class DenyOdd:
            def check(self, subject_ip, address, size, access):
                if access is AccessType.WRITE and address % 2:
                    raise MemoryProtectionFault(
                        "odd write", subject_ip=subject_ip,
                        address=address, access="w",
                    )

        cpu = _machine("main:\n    nop\n    halt\n")
        cpu.mpu = DenyOdd()
        assert cpu.fastpath.lookaside is None
        cpu.step()
        cpu.store(0x4000, 1, size=4)
        with pytest.raises(MemoryProtectionFault):
            cpu.store(0x4001, 1, size=1)
