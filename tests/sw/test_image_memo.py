"""The per-process image memo of :mod:`repro.sw.images`.

Every canned builder hands out one shared ``BuiltImage`` per argument
set.  That is only sound while the memo stays a pure function of its
key: no caller may mutate an image it was given.  These tests pin the
key (defaults folded in), the bound, and purity across the runs that
touch images hardest — a fleet with compromised devices
(``tamper_code``), an OTA campaign (``boot_signed`` drops
``platform.image``) and a fault campaign.
"""

import pytest

from repro.faults import CampaignConfig
from repro.faults import run_campaign as run_fault_campaign
from repro.fleet import FleetConfig, run_fleet
from repro.ota import OtaConfig
from repro.ota import run_campaign as run_ota_campaign
from repro.sw import images

BUILDERS = {
    "two-counter": (
        images.build_two_counter_image,
        {"timer_period": 400, "halt_on_fault": True},
    ),
    "ipc": (images.build_ipc_image, {"timer_period": 600}),
    "ipc-heavy": (
        images.build_ipc_heavy_image, {"timer_period": 600, "depth": 96},
    ),
    "attestation": (images.build_attestation_image, {"timer_period": 2000}),
    "probe": (
        images.build_probe_image,
        {"operation": "read", "target": "data", "timer_period": 400,
         "halt_on_fault": True},
    ),
    "broken": (images.build_broken_image, {}),
}


def _same_image(a, b) -> bool:
    return (
        a.prom == b.prom
        and a.layouts == b.layouts
        and a.module_order == b.module_order
    )


class TestKey:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_equal_arguments_share_one_object(self, name):
        builder, defaults = BUILDERS[name]
        first = builder()
        assert builder() is first
        # Spelling the defaults out hits the same entry.
        assert builder(**defaults) is first

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_memo_matches_a_fresh_build(self, name):
        builder, _defaults = BUILDERS[name]
        assert _same_image(builder(), builder.__wrapped__())

    def test_different_arguments_are_different_entries(self):
        build = images.build_attestation_image
        slow = build(timer_period=3000)
        assert slow is not build()
        assert slow.prom != build().prom
        assert slow is build(timer_period=3000)
        read = images.build_probe_image(target="stack")
        write = images.build_probe_image(target="stack", operation="write")
        assert read is not write
        assert read.prom != write.prom

    def test_cache_stays_within_its_bound(self):
        build = images.build_ipc_image
        for period in range(1000, 1000 + 2 * images.MEMO_SIZE):
            build(timer_period=period)
        info = build.cache_info()
        assert info.maxsize == images.MEMO_SIZE
        assert info.currsize <= images.MEMO_SIZE


class TestPurity:
    def test_runs_leave_the_attestation_image_untouched(self):
        image = images.build_attestation_image()
        fleet = run_fleet(
            FleetConfig(devices=4, rounds=1, seed=5, compromise=2,
                        step_cycles=500)
        )
        assert fleet["ok"] is True
        ota = run_ota_campaign(
            OtaConfig(devices=2, seed=5, delay_max=32, fail="canary")
        )
        assert ota["rollback"]["triggered"] is True
        faults = run_fault_campaign(
            CampaignConfig(seed=5, rounds=1, step_cycles=500)
        )
        assert faults["ok"] is True
        assert images.build_attestation_image() is image
        assert _same_image(
            image, images.build_attestation_image.__wrapped__()
        )
