"""The benchmark's workloads: inputs from a seed, one call, and checks.

Each workload drives one public entry point of the program —
``prepare_run``/``execute_run``, ``run_service`` or ``run_campaign`` —
with configs generated from the benchmark seed.  The program sees only
those configs.  Sizes are chosen so one call takes a few seconds on a
2-core host, which lets a run repeat the call several times and report
medians.  Every workload is sized so that no operation fails: drops
are retried often enough, and the service's link delay is fixed so
challenges never overtake each other (a reordered challenge is
refused as a replay and then times out).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

from repro.fleet.parallel import ExecutionPlan
from repro.fleet.server import ServiceConfig, run_service
from repro.fleet.service import FleetConfig, execute_run, prepare_run
from repro.ota.campaign import OtaConfig, run_campaign

#: Process count of the program's own pool in untraced runs.
WORKERS = 2

#: Per-layer metrics read off reports; a workload whose report lacks
#: one (the layer is unused there) reports 0.
REPORT_LAYERS = (
    "verifier.retry_ratio", "verifier.timeouts",
    "machine.decode_hit_ratio", "machine.lookaside_hit_ratio",
    "machine.bus_memo_hit_ratio",
    "server.batches", "server.mean_batch_size", "server.max_queue_depth",
    "server.shed", "server.timeouts",
    "ota.chunks", "ota.chunk_retries",
)


@dataclass(frozen=True)
class Outcome:
    """What one call did, judged against what it had to do."""

    ops: int
    attempted: int
    failed: int
    problems: tuple[str, ...]
    #: Per-layer figures read off the report (counts and ratios).
    report_layers: dict = field(default_factory=dict)
    #: Simulated latency (p50, p95, samples) where the report has one.
    latency: tuple[int, int, int] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    #: What ``ops_per_s`` counts on this workload.
    op: str
    setup: Callable[[int, str], object]
    call: Callable[[object, int, dict | None], dict]
    outcome: Callable[[object, dict], Outcome]


def report_digest(report: dict) -> str:
    """sha256 of the report without its ``execution`` section.

    ``execution`` is the only part that may differ between worker
    counts; everything else is simulated and must repeat exactly.
    """
    body = {key: value for key, value in report.items() if key != "execution"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _ratio(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


# -- fleet-attest and guest-compute: prepare_run / execute_run ----------

SIZES = {
    "full": {
        "fleet-attest": {"devices": 64, "shard_size": 16},
        "guest-compute": {"devices": 4, "shard_size": 1,
                          "step_cycles": 150_000},
        "serve-bursty": {"devices": 8, "duration_cycles": 12_000},
        "ota-campaign": {"devices": 24},
    },
    # Tiny inputs for the smoke test: every path runs, in seconds.
    "smoke": {
        "fleet-attest": {"devices": 8, "shard_size": 4},
        "guest-compute": {"devices": 2, "shard_size": 1,
                          "step_cycles": 5_000},
        "serve-bursty": {"devices": 4, "duration_cycles": 4_000},
        "ota-campaign": {"devices": 4},
    },
}


@dataclass(frozen=True)
class FleetState:
    prepared: object
    shard_size: int


def _fleet_setup(name: str, **config_fields):
    def setup(seed: int, size: str) -> FleetState:
        sizes = dict(SIZES[size][name])
        shard_size = sizes.pop("shard_size")
        config = FleetConfig(seed=seed, **sizes, **config_fields)
        return FleetState(prepare_run(config), shard_size)
    return setup


def _fleet_call(state: FleetState, workers: int, timings: dict | None) -> dict:
    # A pinned shard size fixes the partition, so the report is the
    # same on any worker count.
    plan = ExecutionPlan(workers=workers, shard_size=state.shard_size)
    return execute_run(state.prepared, plan, stage_timings=timings)


def _fleet_outcome(state: FleetState, report: dict) -> Outcome:
    expected = set(report["expected_compromised"])
    problems = []
    failed = 0
    attempted = 0
    for round_report in report["rounds"]:
        for device, verdict in round_report["verdicts"].items():
            attempted += 1
            want = "compromised" if int(device) in expected else "healthy"
            if verdict["status"] != want:
                failed += 1
    config = report["config"]
    if attempted != config["devices"] * config["rounds"]:
        problems.append(f"{attempted} device-rounds judged")
    if not report["ok"]:
        problems.append("report not ok")
    if report["flagged"]["compromised"] != report["expected_compromised"]:
        problems.append("flagged set differs from expected_compromised")
    if report["flagged"]["unresponsive"]:
        problems.append("unresponsive devices")
    if failed:
        problems.append(f"{failed} device-round(s) misjudged")
    counters = report["metrics"]["counters"]
    histogram = report["metrics"]["histograms"]["fleet_round_latency_cycles"]
    layers = {
        "verifier.retry_ratio": (
            counters.get("fleet_retries", 0)
            / max(1, counters.get("fleet_challenges_sent", 0))
        ),
        "verifier.timeouts": counters.get("fleet_timeouts", 0),
        "machine.decode_hit_ratio": _ratio(
            counters.get("fleet_decode_cache_hits", 0),
            counters.get("fleet_decode_cache_misses", 0),
        ),
        "machine.trace_instructions": counters.get(
            "fleet_trace_instructions", 0
        ),
        "machine.lookaside_hit_ratio": _ratio(
            counters.get("fleet_lookaside_hits", 0),
            counters.get("fleet_lookaside_misses", 0),
        ),
        "machine.bus_memo_hit_ratio": _ratio(
            counters.get("fleet_bus_memo_hits", 0),
            counters.get("fleet_bus_memo_misses", 0),
        ),
    }
    return Outcome(
        ops=attempted - failed,
        attempted=attempted,
        failed=failed,
        problems=tuple(problems),
        report_layers=layers,
        latency=(histogram["p50"], histogram["p95"], histogram["count"]),
    )


# -- serve-bursty: run_service -------------------------------------------

def _serve_setup(seed: int, size: str) -> ServiceConfig:
    sizes = SIZES[size]["serve-bursty"]
    duration = sizes["duration_cycles"]
    return ServiceConfig(
        devices=sizes["devices"],
        seed=seed,
        compromise=1,
        duration_cycles=duration,
        rate_per_kcycle=3.0,
        burst_every=duration // 4,
        burst_length=duration // 8,
        burst_multiplier=4.0,
        delay_min=128,
        delay_max=128,
    )


def _serve_call(config: ServiceConfig, workers: int, _timings) -> dict:
    return run_service(config, workers=workers)


def _serve_outcome(_config, report: dict) -> Outcome:
    service = report["service"]
    flagged = report["flagged"]
    arrivals = report["load"]["arrivals"]
    failed = (
        service["shed"] + service["timeouts"]
        + len(flagged["false_positives"]) + len(flagged["false_negatives"])
    )
    problems = []
    if not report["ok"]:
        problems.append("report not ok")
    if flagged["compromised"] != report["expected_compromised"]:
        problems.append("flagged set differs from expected_compromised")
    if failed:
        problems.append(f"{failed} arrival(s) shed, timed out or misjudged")
    if service["checked"] != arrivals:
        problems.append(f"{service['checked']} of {arrivals} quotes checked")
    latency = report["latency"]
    layers = {
        "server.batches": service["batches"],
        "server.mean_batch_size": service["checked"] / max(1, service["batches"]),
        "server.max_queue_depth": service["max_queue_depth"],
        "server.shed": service["shed"],
        "server.timeouts": service["timeouts"],
    }
    return Outcome(
        ops=service["checked"],
        attempted=arrivals,
        failed=failed,
        problems=tuple(problems),
        report_layers=layers,
        latency=(latency["p50"], latency["p95"], latency["count"]),
    )


# -- ota-campaign: run_campaign ------------------------------------------

def _ota_setup(seed: int, size: str) -> OtaConfig:
    return OtaConfig(
        devices=SIZES[size]["ota-campaign"]["devices"],
        seed=seed,
        drop_rate=0.01,
        max_attempts=4,
    )


def _ota_call(config: OtaConfig, workers: int, _timings) -> dict:
    return run_campaign(config, workers=workers)


def _ota_outcome(config: OtaConfig, report: dict) -> Outcome:
    on_target = report["devices_on_target"]
    failed = config.devices - len(on_target)
    problems = []
    if not report["ok"]:
        problems.append("report not ok")
    if report["rollback"]["triggered"]:
        problems.append("campaign rolled back")
    if on_target != list(range(config.devices)):
        problems.append(f"{failed} device(s) not on the target firmware")
    layers = {
        "ota.chunks": sum(wave["transfer"]["chunks"] for wave in report["waves"]),
        "ota.chunk_retries": sum(
            wave["transfer"]["chunk_retries"] for wave in report["waves"]
        ),
    }
    return Outcome(
        ops=len(on_target),
        attempted=config.devices,
        failed=failed,
        problems=tuple(problems),
        report_layers=layers,
    )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="fleet-attest",
            op="attested device-rounds",
            setup=_fleet_setup(
                "fleet-attest", rounds=2, compromise=2, drop_rate=0.01,
                max_retries=3, step_cycles=2000,
            ),
            call=_fleet_call,
            outcome=_fleet_outcome,
        ),
        Workload(
            name="guest-compute",
            op="attested device-rounds",
            setup=_fleet_setup("guest-compute", rounds=3, compromise=1),
            call=_fleet_call,
            outcome=_fleet_outcome,
        ),
        Workload(
            name="serve-bursty",
            op="checked quotes",
            setup=_serve_setup,
            call=_serve_call,
            outcome=_serve_outcome,
        ),
        Workload(
            name="ota-campaign",
            op="devices updated to the target firmware",
            setup=_ota_setup,
            call=_ota_call,
            outcome=_ota_outcome,
        ),
    )
}
