"""Span recorder for the traced benchmark pass.

The recorder times calls into each layer's public functions from the
outside: it replaces the attribute a caller resolves at call time (a
class attribute, or the module global a caller bound with
``from ... import``) with a wrapper that records a span, and puts the
original back on :meth:`Recorder.uninstall`.  Nothing under ``src/``
knows it exists, and untraced benchmark runs never import this module.

Each span records its name, wall-clock start and end, the span that
was open in the same thread when it began (its parent) and the thread
id.  It also records the thread's CPU clock at both ends: the
verifier steps devices on a thread pool whose threads interleave under
the GIL, so wall-clock self times summed over threads would count the
same second several times.  Per-thread CPU self time does not.

Spans stay in memory until :meth:`Recorder.write` dumps them.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import itertools
import json
import threading
import time

#: (module, attribute path, layer).  An attribute path ``Class.method``
#: patches the class, so every instance sees the wrapper; a bare name
#: patches that module's global, which is what a caller that did
#: ``from x import f`` resolves at call time.
TARGETS = (
    ("repro.crypto.sponge", "SpongeHash.update", "crypto"),
    ("repro.crypto.sponge", "SpongeHash.digest", "crypto"),
    ("repro.core.attestation", "measure_code", "attestation"),
    ("repro.fleet.device", "measure_code", "attestation"),
    ("repro.core.platform", "TrustLitePlatform.run", "machine"),
    ("repro.core.platform", "TrustLitePlatform.boot", "platform"),
    ("repro.core.platform", "TrustLitePlatform.boot_signed", "ota"),
    ("repro.machine.snapshot", "Snapshot.save", "snapshot"),
    ("repro.machine.snapshot", "Snapshot.clone", "snapshot"),
    ("repro.fleet.parallel", "decode_snapshot", "snapshot"),
    ("repro.fleet.service", "encode_snapshot", "snapshot"),
    ("repro.ota.campaign", "encode_snapshot", "snapshot"),
    ("repro.fleet.transport", "InProcessTransport.send", "transport"),
    ("repro.fleet.transport", "InProcessTransport.poll", "transport"),
    ("repro.fleet.verifier", "FleetVerifier.run_round", "verifier"),
    ("repro.fleet.device", "FleetDevice.compute_quote", "device"),
    ("repro.fleet.service", "run_shards", "executor"),
    ("repro.fleet.parallel", "run_shard", "executor"),
    ("repro.fleet.parallel", "ShardMerger.add", "executor"),
    ("repro.fleet.server", "AttestationService.run", "server"),
    ("repro.fleet.server", "verify_quote_batch", "server"),
    ("repro.ota.campaign", "run_device_update", "ota"),
    ("repro.ota.campaign", "build_container", "ota"),
    ("repro.ota.campaign", "encode_container", "ota"),
    ("repro.ota.campaign", "decode_container", "ota"),
    ("repro.ota.container", "decode_container", "ota"),
    ("repro.ota.container", "verify_container", "ota"),
    ("repro.fleet.service", "lint_image_cached", "analysis"),
    ("repro.analysis", "lint_image_cached", "analysis"),
)

LAYERS = tuple(dict.fromkeys(layer for _module, _path, layer in TARGETS))

ROOT = "root"


class Recorder:
    """Collects spans and per-layer counters while installed."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self.reset_window()

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self) -> tuple:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        # ``next`` on a C-level counter is atomic under the GIL, so
        # pool threads never share a span id.
        index = next(self._ids)
        stack.append(index)
        return index, parent, time.perf_counter(), time.thread_time()

    def _end(self, name: str, opened: tuple) -> None:
        cpu_end = time.thread_time()
        wall_end = time.perf_counter()
        index, parent, wall_start, cpu_start = opened
        self._stack().pop()
        self.spans[index] = (
            name, wall_start, wall_end, cpu_start, cpu_end, parent,
            threading.get_ident(),
        )

    @contextlib.contextmanager
    def root(self, name: str = ROOT):
        """A benchmark-level span (not a layer) around a block."""
        opened = self._begin()
        try:
            yield
        finally:
            self._end(name, opened)

    def reset_window(self, seen=()) -> None:
        """Start a new measurement window (spans and counters).

        ``seen`` are input keys (see :meth:`seen_inputs`) that count as
        already hashed, so a call's repeats include inputs its set-up
        hashed.
        """
        #: span id -> (name, wall start, wall end, cpu start, cpu end,
        #: parent id or -1, thread id), filled as spans close.
        self.spans: dict[int, tuple] = {}
        self._ids = itertools.count()
        self.instructions = 0
        self.crypto_bytes = 0
        self.repeat_bytes = 0
        self.dropped = 0
        self._seen_inputs = set(seen)

    def seen_inputs(self) -> frozenset:
        return frozenset(self._seen_inputs)

    # -- wrappers ------------------------------------------------------

    def _wrap(self, fn, name: str):
        recorder = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                opened = recorder._begin()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    recorder._end(name, opened)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = recorder._begin()
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._end(name, opened)
        return wrapper

    def _wrap_update(self, fn, name: str):
        """``SpongeHash.update``: also keep the absorbed input."""
        timed = self._wrap(fn, name)
        recorder = self

        @functools.wraps(fn)
        def update(hasher, data):
            with recorder._lock:
                recorder.crypto_bytes += len(data)
            hasher.__dict__.setdefault("_bench_input", bytearray()).extend(
                data
            )
            return timed(hasher, data)
        return update

    def _wrap_digest(self, fn, name: str):
        """``SpongeHash.digest``: count inputs hashed before in the window."""
        timed = self._wrap(fn, name)
        recorder = self

        @functools.wraps(fn)
        def digest(hasher):
            # The first digest call takes the input; a repeated call on
            # a finalized hasher finds none and counts nothing.
            data = hasher.__dict__.pop("_bench_input", None)
            if data is not None:
                key = hashlib.blake2b(data, digest_size=16).digest()
                with recorder._lock:
                    if key in recorder._seen_inputs:
                        recorder.repeat_bytes += len(data)
                    else:
                        recorder._seen_inputs.add(key)
            return timed(hasher)
        return digest

    def _wrap_send(self, fn, name: str):
        """``InProcessTransport.send``: also count what the link ate."""
        timed = self._wrap(fn, name)
        recorder = self

        @functools.wraps(fn)
        def send(transport, message):
            delivered = timed(transport, message)
            if not delivered:
                with recorder._lock:
                    recorder.dropped += 1
            return delivered
        return send

    def _wrap_run(self, fn, name: str):
        """``TrustLitePlatform.run``: also count retired instructions."""
        timed = self._wrap(fn, name)
        recorder = self

        @functools.wraps(fn)
        def run(platform, *args, **kwargs):
            before = platform.cpu.instructions_retired
            try:
                return timed(platform, *args, **kwargs)
            finally:
                retired = platform.cpu.instructions_retired - before
                with recorder._lock:
                    recorder.instructions += retired
        return run

    # -- install -------------------------------------------------------

    def install(self) -> None:
        """Patch every target; idempotent only via :meth:`uninstall`."""
        if self._saved:
            raise RuntimeError("recorder already installed")
        special = {
            "SpongeHash.update": self._wrap_update,
            "SpongeHash.digest": self._wrap_digest,
            "TrustLitePlatform.run": self._wrap_run,
            "InProcessTransport.send": self._wrap_send,
        }
        for module_name, path, layer in TARGETS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            raw = (
                owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr)
            )
            name = f"{layer}:{path}"
            wrap = special.get(path, self._wrap)
            if isinstance(raw, classmethod):
                patched = classmethod(wrap(raw.__func__, name))
            elif isinstance(raw, staticmethod):
                patched = staticmethod(wrap(raw.__func__, name))
            else:
                patched = wrap(raw, name)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []

    # -- output --------------------------------------------------------

    def write(self, path) -> None:
        """Dump the current window's spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for index in sorted(self.spans):
                name, wall_start, wall_end, cpu_start, cpu_end, parent, tid = (
                    self.spans[index]
                )
                out.write(json.dumps({
                    "id": index, "name": name, "parent": parent,
                    "thread": tid, "start": wall_start, "end": wall_end,
                    "cpu_s": cpu_end - cpu_start,
                }) + "\n")


def layer_of(span_name: str) -> str:
    return span_name.split(":", 1)[0] if ":" in span_name else ROOT


def window_profile(spans: dict) -> dict:
    """Per-layer CPU self time, per-name counts and inclusive times.

    A span's self time is its CPU time minus its direct children's
    (children are always in the span's own thread, because the parent
    is taken from a thread-local stack).  Spans a pool thread opens
    with nothing above them in that thread have no parent; their CPU
    time still counts once, in that thread.
    """
    child_cpu: dict[int, float] = {}
    for span in spans.values():
        if span[5] >= 0:
            child_cpu[span[5]] = child_cpu.get(span[5], 0.0) + span[4] - span[3]
    self_s = {layer: 0.0 for layer in (*LAYERS, ROOT)}
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    for index, span in spans.items():
        name, _ws, _we, cpu_start, cpu_end, parent, _tid = span
        cpu = cpu_end - cpu_start
        self_s[layer_of(name)] += cpu - child_cpu.get(index, 0.0)
        calls[name] = calls.get(name, 0) + 1
        # Inclusive time counts only outermost spans of a name, so a
        # re-entrant call is not counted twice.
        outer = spans.get(parent)
        if outer is None or outer[0] != name:
            inclusive[name] = inclusive.get(name, 0.0) + cpu
    return {"self_s": self_s, "calls": calls, "inclusive_s": inclusive}
