"""Unit tests for the Secure Loader boot sequence (paper Fig. 5)."""

import pytest

from repro.core import layout
from repro.core.image import ImageBuilder, SoftwareModule
from repro.core.platform import TrustLitePlatform
from repro.asm import assemble
from repro.crypto import sponge_hash
from repro.errors import AlignmentError, BusError, LoaderError
from repro.machine.access import AccessType
from repro.machine.soc import MPU_MMIO_BASE, SRAM_BASE, SRAM_SIZE, TIMER_BASE
from repro.sw.images import build_two_counter_image
from repro.sw import trustlets

MINIMAL = """
    jmp main
    jmp main
    jmp main
main:
    halt
"""


def _image(*modules):
    builder = ImageBuilder()
    for module in modules:
        builder.add_module(module)
    return builder.build()


def _plain(name="MOD", **kwargs):
    return SoftwareModule(name=name, source=lambda lay: MINIMAL, **kwargs)


@pytest.fixture
def booted():
    plat = TrustLitePlatform()
    image = build_two_counter_image()
    report = plat.boot(image)
    return plat, image, report


class TestBootSequence:
    def test_all_modules_registered(self, booted):
        plat, _, report = booted
        assert report.modules == ["OS", "TL-A", "TL-B"]
        assert plat.table.count == 3
        assert plat.table.os_row() is not None

    def test_os_launched(self, booted):
        plat, image, report = booted
        assert report.launched == "OS"
        assert plat.cpu.ip == image.layout_of("OS").init_ip

    def test_mpu_enabled_after_boot(self, booted):
        plat, _, _ = booted
        assert plat.mpu.enabled

    def test_measurements_match_prom_contents(self, booted):
        plat, image, report = booted
        for name in ("TL-A", "TL-B"):
            lay = image.layout_of(name)
            code = plat.bus.read_bytes(lay.code_base, lay.code_end - lay.code_base)
            assert report.measurements[name] == sponge_hash(code)
            assert plat.table.find_by_name(name).measurement == \
                sponge_hash(code)

    def test_initial_resume_frame_targets_main(self, booted):
        plat, image, _ = booted
        lay = image.layout_of("TL-A")
        row = plat.table.find_by_name("TL-A")
        assert row.saved_sp == lay.stack_end - 4 * layout.RESUME_FRAME_WORDS
        # Deepest frame word is the initial IP = the trustlet's main.
        assert plat.bus.read_word(lay.stack_end - 4) == lay.init_ip

    def test_os_saved_sp_is_kernel_stack_top(self, booted):
        plat, image, _ = booted
        assert plat.table.os_row().saved_sp == image.layout_of("OS").stack_end

    def test_three_mpu_writes_per_region(self, booted):
        """Sec. 5.3: 'only three additional writes ... for each region'."""
        _, _, report = booted
        # clear_all also costs 3 writes per hardware register slot.
        clear_cost = 3 * TrustLitePlatform().mpu.num_regions
        assert report.mpu_register_writes - clear_cost == \
            3 * report.mpu_regions_programmed


class TestPolicyProgramming:
    def test_trustlet_table_world_readable_not_writable(self, booted):
        plat, _, _ = booted
        table_base = plat.table.base
        os_ip = plat.table.os_row().code_base + 0x30
        assert plat.mpu.allows(os_ip, table_base, 4, AccessType.READ)
        assert not plat.mpu.allows(os_ip, table_base, 4, AccessType.WRITE)

    def test_mpu_registers_locked(self, booted):
        plat, _, _ = booted
        os_ip = plat.table.os_row().code_base + 0x30
        assert plat.mpu.allows(os_ip, MPU_MMIO_BASE, 4, AccessType.READ)
        assert not plat.mpu.allows(os_ip, MPU_MMIO_BASE, 4, AccessType.WRITE)
        assert not plat.mpu.allows(
            os_ip, MPU_MMIO_BASE + 0x10, 4, AccessType.WRITE
        )

    def test_entry_vector_executable_by_everyone(self, booted):
        plat, image, _ = booted
        os_ip = plat.table.os_row().code_base + 0x30
        entry = image.layout_of("TL-A").entry
        assert plat.mpu.allows(os_ip, entry, 4, AccessType.FETCH)
        assert plat.mpu.allows(os_ip, entry + 16, 4, AccessType.FETCH)

    def test_code_beyond_entry_not_executable_by_others(self, booted):
        plat, image, _ = booted
        os_ip = plat.table.os_row().code_base + 0x30
        body = image.layout_of("TL-A").entry + layout.ENTRY_VECTOR_SIZE
        assert not plat.mpu.allows(os_ip, body, 4, AccessType.FETCH)

    def test_code_readable_for_attestation(self, booted):
        plat, image, _ = booted
        a_code = image.layout_of("TL-A").code_base + 0x40
        b_ip = image.layout_of("TL-B").code_base + 0x40
        assert plat.mpu.allows(b_ip, a_code, 4, AccessType.READ)
        assert not plat.mpu.allows(b_ip, a_code, 4, AccessType.WRITE)

    def test_data_isolated_between_trustlets(self, booted):
        plat, image, _ = booted
        a_ip = image.layout_of("TL-A").code_base + 0x40
        a_data = image.layout_of("TL-A").data_base
        b_data = image.layout_of("TL-B").data_base
        assert plat.mpu.allows(a_ip, a_data, 4, AccessType.WRITE)
        assert not plat.mpu.allows(a_ip, b_data, 4, AccessType.READ)

    def test_mmio_grant_exclusive(self):
        from repro.machine.soc import CRYPTO_BASE
        from repro.sw.images import build_attestation_image

        plat = TrustLitePlatform()
        image = build_attestation_image()
        plat.boot(image)
        attest_ip = image.layout_of("ATTEST").code_base + 0x40
        os_ip = image.layout_of("OS").code_base + 0x40
        assert plat.mpu.allows(attest_ip, CRYPTO_BASE, 4, AccessType.WRITE)
        assert not plat.mpu.allows(os_ip, CRYPTO_BASE, 4, AccessType.READ)


class TestSecureBoot:
    def test_verified_boot_accepts_correct_digest(self):
        draft = _image(_plain("OS", is_os=True), _plain("TL"))
        plat = TrustLitePlatform()
        plat.boot(draft)
        digest = plat.loader.boot().measurements["TL"]
        verified = _image(
            _plain("OS", is_os=True),
            _plain("TL", expected_digest=digest),
        )
        report = TrustLitePlatform().boot(verified)
        assert "TL" in report.modules

    def test_verified_boot_rejects_tampered_code(self):
        image = _image(
            _plain("OS", is_os=True),
            _plain("TL", expected_digest=b"\xab" * 16),
        )
        with pytest.raises(LoaderError):
            TrustLitePlatform().boot(image)


class TestResetSemantics:
    def test_warm_reset_reestablishes_protection(self, booted):
        plat, image, _ = booted
        plat.run(max_cycles=20_000)
        report = plat.warm_reset()
        assert plat.mpu.enabled
        assert report.launched == "OS"
        assert plat.table.count == 3

    def test_warm_reset_without_wipe_preserves_data(self, booted):
        plat, image, _ = booted
        plat.run(max_cycles=50_000)
        counter = plat.read_trustlet_word("TL-A", trustlets.COUNTER_OFF_VALUE)
        assert counter > 0
        plat.warm_reset(wipe_data=False)
        preserved = plat.read_trustlet_word("TL-A", trustlets.COUNTER_OFF_VALUE)
        assert preserved == counter

    def test_cold_boot_wipes_data(self, booted):
        plat, image, _ = booted
        plat.run(max_cycles=50_000)
        plat.warm_reset(wipe_data=True)
        assert plat.read_trustlet_word("TL-A", trustlets.COUNTER_OFF_VALUE) == 0

    def test_loader_work_scales_with_wipe(self, booted):
        plat, _, _ = booted
        wiped = plat.loader.boot(wipe_data=True).memory_words_written
        fast = plat.loader.boot(wipe_data=False).memory_words_written
        assert fast < wiped


class TestLoaderErrors:
    def test_missing_directory_rejected(self):
        plat = TrustLitePlatform()
        with pytest.raises(LoaderError):
            plat.loader.boot()

    def test_os_less_image_launches_first_module(self):
        image = _image(_plain("SOLO"))
        plat = TrustLitePlatform(secure_exceptions=False)
        report = plat.boot(image)
        assert report.launched == "SOLO"
        assert plat.cpu.ip == image.layout_of("SOLO").init_ip


class TestZeroFillParity:
    """Step 2b clears a region in one bulk write only where a word loop
    would do exactly the same: the paper-facing counters, every fault
    and every cache invalidation stay those of the per-word path."""

    def test_fig5_counters_are_pinned(self, booted):
        plat, _, report = booted
        assert (report.memory_words_written, report.mpu_register_writes) \
            == (482, 129)
        cold = plat.warm_reset(wipe_data=True)
        assert (cold.memory_words_written, cold.mpu_register_writes) \
            == (482, 129)
        warm = plat.warm_reset(wipe_data=False)
        assert (warm.memory_words_written, warm.mpu_register_writes) \
            == (34, 129)

    @staticmethod
    def _hostile(data_base: int, data_size: int):
        """A platform whose PROM gives the OS the data region asked for.

        SRAM is filled with a pattern first, so any word the loader
        clears shows.
        """
        blob = bytearray(build_two_counter_image().prom)
        record = layout.PROM_DIRECTORY + 8  # the OS, loaded first
        blob[record + 28:record + 32] = data_base.to_bytes(4, "little")
        blob[record + 32:record + 36] = data_size.to_bytes(4, "little")
        plat = TrustLitePlatform()
        plat.soc.prom.load(0, bytes(blob))
        plat.soc.sram.load(0, b"\xa5" * plat.soc.sram.size)
        return plat

    @pytest.mark.parametrize(
        ("data_base", "data_size", "error"),
        [
            # Unaligned base: the first word store faults.
            (SRAM_BASE + 0x102, 0x40, AlignmentError),
            # Runs past the end of SRAM into unmapped space.
            (SRAM_BASE + SRAM_SIZE - 0x40, 0x100, BusError),
            # Lies over the timer's MMIO window (and past its end).
            (TIMER_BASE, 0x100, BusError),
        ],
        ids=["unaligned", "past-sram", "over-mmio"],
    )
    def test_hostile_region_faults_like_word_stores(
        self, data_base, data_size, error, monkeypatch
    ):
        plat = self._hostile(data_base, data_size)
        with pytest.raises(error) as raised:
            plat.loader.boot()
        # The reference: an identical platform whose loader clears every
        # region with the per-word loop alone.
        ref = self._hostile(data_base, data_size)

        def per_word(report, base, size):
            for address in range(base, base + size, 4):
                ref.loader._write_word(report, address, 0)

        monkeypatch.setattr(ref.loader, "_zero_region", per_word)
        with pytest.raises(error) as expected:
            ref.loader.boot()
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)
        assert plat.soc.sram.dump() == ref.soc.sram.dump()
        assert plat.soc.timer.snapshot_state() == \
            ref.soc.timer.snapshot_state()

    @pytest.mark.parametrize("engine", ["fast", "trace"])
    def test_zeroing_invalidates_cached_decodes(self, engine):
        plat = TrustLitePlatform(engine=engine)
        plat.boot(build_two_counter_image())
        base = plat.image.layout_of("TL-A").data_base
        loop = assemble("top:\n    addi r0, r0, 1\n    jmp top\n", base=base)
        plat.bus.write_bytes(base, loop.data)
        plat.mpu.set_enabled(False)
        plat.cpu.ip = plat.cpu.curr_ip = base
        plat.run(max_cycles=5_000)
        fastpath = plat.cpu.fastpath
        assert base in fastpath.decode_cache.entries
        if engine == "trace":
            assert fastpath.traces.stats["traces"] > 0
        plat.warm_reset(wipe_data=True)
        assert plat.bus.read_bytes(base, len(loop.data)) == \
            bytes(len(loop.data))
        assert base not in fastpath.decode_cache.entries
        if engine == "trace":
            assert fastpath.traces.stats["traces"] == 0
