#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the
end-to-end metrics with nothing patched: set-up time (median of fresh
processes), operations per host second (median over the repeated
calls of the run) and peak RSS of the coordinator and its pool
workers.  ``--trace 1`` makes a separate pass on one worker process
with the span recorder of ``tracing.py`` installed and reports the
per-layer metrics.  Both check every call's report for correctness and
determinism.  Human-readable lines come first; the last line of
standard output is the JSON result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

#: Fresh processes timed per run for ``setup_s``.
SETUP_REPEATS = 3
#: Calls per untraced run even when ``--seconds`` is already spent.
MIN_CALLS = 3


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def emit(metrics: dict, kind: str) -> dict:
    """Every declared metric of ``kind`` with its unit, nothing else."""
    return {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in declared(kind).items()
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="input size; 'smoke' is the smoke test's tiny inputs",
    )
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="internal: set up, print the monotonic clock, exit",
    )
    return parser.parse_args(argv)


# -- set-up --------------------------------------------------------------

def set_up(workload, seed: int, size: str):
    """What a user's process does before its first call."""
    from repro.fleet.pool import get_warm_pool

    from workloads import WORKERS

    state = workload.setup(seed, size)
    get_warm_pool(WORKERS)
    return state


def setup_probe(workload, args) -> int:
    set_up(workload, args.seed, args.size)
    print(f"setup-ready {time.monotonic()!r}", flush=True)
    return 0


def time_setup(args) -> float:
    """Seconds from launching a fresh interpreter to its first call.

    Covers interpreter start, imports, input generation, the golden
    boot, snapshot encode, lint and expected measurements where the
    workload does them before its call, and the pool spin-up.  The
    child's clock reading and ours are both ``CLOCK_MONOTONIC``.
    """
    command = [
        sys.executable, str(pathlib.Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--setup-probe",
    ]
    started = time.monotonic()
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    ready = float(done.stdout.split("setup-ready ")[-1].split()[0])
    return ready - started


# -- memory --------------------------------------------------------------

def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mib() -> float:
    """Highest RSS so far of this process and of any live pool worker."""
    import multiprocessing

    peaks = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
    peaks += [_vm_hwm_kib(child.pid) for child in multiprocessing.active_children()]
    return max(peaks) / 1024


# -- determinism across runs ---------------------------------------------

def host_fingerprint() -> dict:
    from benchmarks._util import detect_host_cores

    return {
        "cores": detect_host_cores(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def check_recorded(args, digest: str, host: dict) -> list[str]:
    """Compare with the first run of this workload and seed here.

    The first run records its report digest under ``perfbench/out``;
    every later run, traced or not, must produce the same digest.  A
    run on another host is flagged, since its timings do not compare.
    """
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"digest-{args.workload}-{args.size}-{args.seed}.json"
    if not path.exists():
        scratch = path.with_suffix(f".{os.getpid()}.tmp")
        scratch.write_text(json.dumps({"digest": digest, "host": host}))
        os.replace(scratch, path)
        return []
    recorded = json.loads(path.read_text())
    problems = []
    if recorded["digest"] != digest:
        problems.append(
            f"report digest {digest[:16]} differs from the recorded "
            f"{recorded['digest'][:16]} of an earlier run"
        )
    if recorded["host"] != host:
        print(
            "WARNING: this host differs from the one that recorded the "
            f"first run ({recorded['host']}); timings do not compare"
        )
    return problems


def check_calls(digests: list[str], outcomes: list) -> list[str]:
    problems = sorted({p for outcome in outcomes for p in outcome.problems})
    if len(set(digests)) != 1:
        problems.append(f"{len(set(digests))} distinct report digests in one run")
    return problems


# -- untraced run ----------------------------------------------------------

def timed_run(workload, args) -> dict:
    from repro.fleet.pool import shutdown_warm_pools

    from workloads import WORKERS, report_digest

    setup_samples = [time_setup(args) for _ in range(SETUP_REPEATS)]
    state = set_up(workload, args.seed, args.size)

    rates, digests, outcomes, stages = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while len(rates) < MIN_CALLS or time.perf_counter() < deadline:
        timings: dict = {}
        started = time.perf_counter()
        report = workload.call(state, WORKERS, timings)
        wall = time.perf_counter() - started
        outcome = workload.outcome(state, report)
        rates.append(outcome.ops / wall)
        digests.append(report_digest(report))
        outcomes.append(outcome)
        if timings:
            stages.append(timings)
        if len(rates) == 1:
            # A user's process makes one call.  Later calls only let
            # garbage from reference cycles pile up until the cyclic
            # collector runs, so their peak depends on the call count.
            peak = peak_rss_mib()
    shutdown_warm_pools()

    host = host_fingerprint()
    problems = check_calls(digests, outcomes)
    problems += check_recorded(args, digests[0], host)

    q1, median, q3 = statistics.quantiles(rates, n=4)
    print(
        f"perfbench {workload.name} seed={args.seed} workers={WORKERS} "
        f"calls={len(rates)} python={host['python']} "
        f"usable_cores={host['cores']['usable']} nproc={host['nproc']}"
    )
    print(f"  report digest {digests[0]} (same on every call: {len(set(digests)) == 1})")
    print(
        f"  ops_per_s median {median:.3f} [q1 {q1:.3f}, q3 {q3:.3f}] "
        f"({workload.op} per host second)"
    )
    print("  call rates " + ", ".join(f"{rate:.3f}" for rate in rates))
    print(
        "  setup_s samples "
        + ", ".join(f"{sample:.3f}" for sample in setup_samples)
    )
    if outcomes[0].latency is not None:
        p50, p95, count = outcomes[0].latency
        print(f"  simulated latency p50 {p50} / p95 {p95} cycles over {count} samples")
    if stages:
        split = {
            key: statistics.median(stage[key] for stage in stages)
            for key in stages[0]
        }
        print(
            "  executor split, median over calls on "
            f"{WORKERS} workers: "
            + ", ".join(f"{key} {value:.3f}" for key, value in split.items())
        )
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")

    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": median,
        "peak_rss_mib": peak,
    }
    return {
        "correct": not problems,
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": sum(outcome.failed for outcome in outcomes),
        "metrics": emit(metrics, "end_to_end"),
    }


# -- traced run ------------------------------------------------------------

def _window(recorder, wall: float) -> dict:
    from tracing import window_profile

    profile = window_profile(recorder.spans)
    profile.update(
        wall_s=wall,
        spans=len(recorder.spans),
        instructions=recorder.instructions,
        crypto_bytes=recorder.crypto_bytes,
        repeat_bytes=recorder.repeat_bytes,
        dropped=recorder.dropped,
    )
    return profile


def _count_key(window: dict) -> tuple:
    """The counts a deterministic call must repeat exactly."""
    return (
        tuple(sorted(window["calls"].items())), window["instructions"],
        window["crypto_bytes"], window["repeat_bytes"], window["dropped"],
    )


def traced_run(workload, args) -> dict:
    """Per-layer metrics for one set-up plus one call, on one worker.

    Order: traced set-up (cold, as a user's process pays it), pool
    spin-up, one untraced call on the untraced runs' worker count (its
    stage timings give the executor split), one untraced call on one
    worker (the reference for tracing overhead), then traced calls on
    one worker until ``--seconds`` is spent.  On one worker every span
    lands in this process.  The per-layer figures come from the traced
    call with the median wall time.
    """
    from repro.fleet.pool import get_warm_pool, pool_stats, shutdown_warm_pools

    from tracing import LAYERS, Recorder
    from workloads import REPORT_LAYERS, WORKERS, report_digest

    started = time.perf_counter()
    recorder = Recorder()
    recorder.install()
    try:
        with recorder.root("setup"):
            setup_started = time.perf_counter()
            state = workload.setup(args.seed, args.size)
            setup_wall = time.perf_counter() - setup_started
    finally:
        recorder.uninstall()
    setup = _window(recorder, setup_wall)
    setup_seen = recorder.seen_inputs()

    get_warm_pool(WORKERS)
    spinup_s = pool_stats().last_spinup_seconds

    digests, outcomes = [], []
    timings: dict = {}
    report = workload.call(state, WORKERS, timings)
    digests.append(report_digest(report))
    outcomes.append(workload.outcome(state, report))
    shutdown_warm_pools()

    reference_started = time.perf_counter()
    report = workload.call(state, 1, None)
    reference_wall = time.perf_counter() - reference_started
    digests.append(report_digest(report))
    outcomes.append(workload.outcome(state, report))

    windows = []
    recorder.install()
    try:
        while not windows or time.perf_counter() - started < args.seconds:
            recorder.reset_window(seen=setup_seen)
            with recorder.root("call"):
                call_started = time.perf_counter()
                report = workload.call(state, 1, None)
                wall = time.perf_counter() - call_started
            windows.append(_window(recorder, wall))
            digests.append(report_digest(report))
            outcomes.append(workload.outcome(state, report))
    finally:
        recorder.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    recorder.write(OUT_DIR / f"spans-{args.workload}-{args.size}-{args.seed}.jsonl")

    host = host_fingerprint()
    problems = check_calls(digests, outcomes)
    if len({_count_key(window) for window in windows}) != 1:
        problems.append("per-layer counts differ between traced calls")
    problems += check_recorded(args, digests[0], host)

    call = sorted(windows, key=lambda window: window["wall_s"])[
        (len(windows) - 1) // 2
    ]
    run_s = setup_wall + call["wall_s"]

    def both(key: str, name: str):
        return setup[key].get(name, 0) + call[key].get(name, 0)

    self_s = {layer: both("self_s", layer) for layer in LAYERS}
    crypto_bytes = setup["crypto_bytes"] + call["crypto_bytes"]
    repeat_bytes = setup["repeat_bytes"] + call["repeat_bytes"]
    instructions = setup["instructions"] + call["instructions"]
    layers = outcomes[0].report_layers
    trace_instructions = layers.get("machine.trace_instructions", 0)

    metrics = {
        "trace.run_s": run_s,
        "trace.unattributed_s": run_s - sum(self_s.values()),
        "trace.overhead_share": call["wall_s"] / reference_wall - 1,
        "trace.spans": setup["spans"] + call["spans"],
        "crypto.calls": (
            both("calls", "crypto:SpongeHash.update")
            + both("calls", "crypto:SpongeHash.digest")
        ),
        "crypto.bytes": crypto_bytes,
        "crypto.repeat_share": repeat_bytes / crypto_bytes if crypto_bytes else 0.0,
        "attestation.measure_calls": both("calls", "attestation:measure_code"),
        "attestation.measure_share": (
            both("inclusive_s", "attestation:measure_code") / run_s
        ),
        "machine.instructions": instructions,
        "machine.trace_instruction_share": (
            trace_instructions / instructions if instructions else 0.0
        ),
        "snapshot.clones": both("calls", "snapshot:Snapshot.clone"),
        "snapshot.decodes": both("calls", "snapshot:decode_snapshot"),
        "transport.messages": both("calls", "transport:InProcessTransport.send"),
        "transport.dropped": setup["dropped"] + call["dropped"],
        "executor.pool_spinup_s": spinup_s,
        "executor.hydrate_share": 0.0,
        "executor.parallel_efficiency": 0.0,
        "server.batch_verify_share": (
            both("inclusive_s", "server:verify_quote_batch") / run_s
        ),
        "ota.container_share": sum(
            both("inclusive_s", f"ota:{name}")
            for name in (
                "build_container", "encode_container", "decode_container",
                "verify_container",
            )
        ) / run_s,
        "ota.boot_signed_share": (
            both("inclusive_s", "ota:TrustLitePlatform.boot_signed") / run_s
        ),
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = self_s[layer] / run_s
    if timings:
        worker_s = timings["hydrate_s"] + timings["shard_execute_s"]
        metrics["executor.hydrate_share"] = timings["hydrate_s"] / worker_s
        metrics["executor.parallel_efficiency"] = worker_s / (
            WORKERS * timings["execute_wall_s"]
        )
    for name in REPORT_LAYERS:
        metrics[name] = layers.get(name, 0)

    print(
        f"perfbench {workload.name} seed={args.seed} traced calls={len(windows)} "
        f"on 1 worker; python={host['python']} usable_cores={host['cores']['usable']}"
    )
    print(f"  report digest {digests[0]} (same on {WORKERS} workers, 1 worker "
          f"and traced: {len(set(digests)) == 1})")
    print(
        f"  one set-up ({setup_wall:.3f} s) plus the median traced call "
        f"({call['wall_s']:.3f} s; untraced {reference_wall:.3f} s):"
    )
    print(f"    {'layer':<12} {'self_s':>9} {'share':>7}")
    for layer in sorted(LAYERS, key=lambda layer: -self_s[layer]):
        print(f"    {layer:<12} {self_s[layer]:9.3f} {self_s[layer] / run_s:7.1%}")
    print(f"    {'unattributed':<12} {metrics['trace.unattributed_s']:9.3f} "
          f"{metrics['trace.unattributed_s'] / run_s:7.1%}")
    if timings:
        print(
            f"  executor split on {WORKERS} workers (untraced call): "
            + ", ".join(f"{key} {value:.3f}" for key, value in timings.items())
        )
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")

    return {
        "correct": not problems,
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": sum(outcome.failed for outcome in outcomes),
        "metrics": emit(metrics, "per_layer"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (
        ROOT / "benchmarks" / "_util.py"
    ).is_file():
        print(
            f"perfbench: no program to measure under {ROOT} "
            "(src/repro and benchmarks/_util.py are needed)",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            + ", ".join(WORKLOADS),
            file=sys.stderr,
        )
        return 2
    if args.setup_probe:
        return setup_probe(workload, args)
    result = traced_run(workload, args) if args.trace else timed_run(workload, args)
    stop_helpers()
    print(json.dumps(result), flush=True)
    return 0


def stop_helpers() -> None:
    """Stop and wait for the helper processes the program started.

    The pool is already down; the shared-memory blob also started
    multiprocessing's resource tracker, which would otherwise outlive
    this process by a moment.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
