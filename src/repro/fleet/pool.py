"""Persistent warm worker pools.

Building a fresh ``ProcessPoolExecutor`` for every round — fork,
import, first-task warmup — ate the parallelism of small runs, so
:func:`get_warm_pool` hands out a **process pool that persists across
calls** (rounds, ``execute_run`` invocations, ``AttestationService``
batches) keyed by worker count.  Pools are forked eagerly and verified
idle-alive; a pool whose workers died — or whose fork-time environment
went stale (see below) — is rebuilt transparently.

The crash-injection hook ``REPRO_FLEET_TEST_CRASH`` (consumed in
:func:`repro.fleet.parallel._maybe_crash_for_test`) reads the
environment *workers inherited at fork time*.  A warm pool forked
before a test sets the variable would never crash — so the registry
snapshots the variable at fork and treats any change as staleness,
rebuilding the pool.  That keeps the recovery tests (and any operator
using the hook) working unchanged under pool reuse.
"""

from __future__ import annotations

import atexit
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.errors import FleetError

# Test hook: ``REPRO_FLEET_TEST_CRASH=<flag-file>:<shard-index>`` makes
# the worker that picks up that shard die hard (``os._exit``) exactly
# once — the flag file is consumed first, so the retry succeeds.  This
# is how the executor-recovery tests and the CI fleet-scale job kill a
# real pool worker mid-run without patching library code.  Defined
# here (the lowest fleet layer that must observe it) and re-exported
# by :mod:`repro.fleet.parallel`.
_CRASH_ENV = "REPRO_FLEET_TEST_CRASH"


def _warmup() -> bool:
    """No-op worker task; forces lazy process spawn during warm-up."""
    return True


@dataclass
class _PoolEntry:
    pool: ProcessPoolExecutor
    workers: int
    crash_env: str | None
    reuses: int = 0


@dataclass
class PoolStats:
    """Cumulative registry accounting (coordinator-side, wall clock)."""

    created: int = 0
    reused: int = 0
    discarded: int = 0
    spinup_seconds: float = 0.0
    last_spinup_seconds: float = 0.0

    def snapshot(self) -> dict:
        return {
            "created": self.created,
            "reused": self.reused,
            "discarded": self.discarded,
            "spinup_seconds": self.spinup_seconds,
        }


_POOLS: dict[int, _PoolEntry] = {}
_STATS = PoolStats()


def pool_stats() -> PoolStats:
    return _STATS


def _alive(entry: _PoolEntry) -> bool:
    pool = entry.pool
    if getattr(pool, "_broken", False) or getattr(pool, "_shutdown_thread", False):
        return False
    return True


def get_warm_pool(workers: int) -> ProcessPoolExecutor:
    """A ready pool of ``workers`` processes, reused when possible.

    The pool is *warm*: on first construction every worker is forked
    and has executed one no-op task before this returns, so the caller
    never pays spawn latency inside a timed region.  The spin-up cost
    lands in :func:`pool_stats` instead.  Do not ``shutdown()`` the
    returned pool — hand it back by simply dropping it, or call
    :func:`discard_warm_pool` if it broke.
    """
    if workers < 2:
        raise FleetError(f"warm pools need workers >= 2: {workers}")
    crash_env = os.environ.get(_CRASH_ENV)
    entry = _POOLS.get(workers)
    if entry is not None:
        if _alive(entry) and entry.crash_env == crash_env:
            entry.reuses += 1
            _STATS.reused += 1
            _STATS.last_spinup_seconds = 0.0
            return entry.pool
        discard_warm_pool(workers)
    started = time.perf_counter()
    pool = ProcessPoolExecutor(max_workers=workers)
    # Fork and import eagerly: one no-op per worker.  (The executor
    # may satisfy them with fewer processes; submitting ``workers``
    # tasks still forces the full complement under the default
    # spawn-on-demand policy because none has finished yet.)
    for future in [pool.submit(_warmup) for _ in range(workers)]:
        future.result()
    spinup = time.perf_counter() - started
    _POOLS[workers] = _PoolEntry(
        pool=pool, workers=workers, crash_env=crash_env
    )
    _STATS.created += 1
    _STATS.spinup_seconds += spinup
    _STATS.last_spinup_seconds = spinup
    return pool


def discard_warm_pool(workers: int) -> None:
    """Drop the registry entry for ``workers`` (broken/stale pool).

    The caller is responsible for tearing the pool itself down (the
    executor's abandon path already terminates workers); this only
    forgets it so the next :func:`get_warm_pool` builds fresh.
    """
    entry = _POOLS.pop(workers, None)
    if entry is None:
        return
    _STATS.discarded += 1
    try:
        entry.pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


def shutdown_warm_pools() -> None:
    """Shut every warm pool down (tests, interpreter exit)."""
    for workers in list(_POOLS):
        entry = _POOLS.pop(workers)
        try:
            entry.pool.shutdown(wait=True, cancel_futures=True)
        except Exception:
            pass


atexit.register(shutdown_warm_pools)

