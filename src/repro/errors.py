"""Exception hierarchy shared across the TrustLite reproduction.

Simulator-level errors (bad guest behaviour observed by the hardware
model) are kept distinct from host-level usage errors (bad arguments to
the Python API) so tests can assert precisely which layer failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class IsaError(ReproError):
    """Invalid use of the SP32 ISA layer (bad register, bad operand)."""


class EncodingError(IsaError):
    """An instruction cannot be encoded or decoded."""


class AssemblerError(ReproError):
    """Assembly source is malformed (syntax, unknown label, overflow)."""


class MachineError(ReproError):
    """Base class for errors raised by the simulated machine."""


class BusError(MachineError):
    """A memory access hit an unmapped address or overlapped devices."""

    def __init__(self, message: str, address: int | None = None) -> None:
        super().__init__(message)
        self.address = address


class AlignmentError(BusError):
    """A word access was not naturally aligned."""


class InvalidInstruction(MachineError):
    """The CPU fetched a word that does not decode to an instruction."""

    def __init__(self, message: str, ip: int | None = None) -> None:
        super().__init__(message)
        self.ip = ip


class MemoryProtectionFault(MachineError):
    """The MPU denied an access.

    Carries enough context for the exception engine to report the
    violating instruction address and the requested access, as the
    paper's Sec. 3.2.2 requires.
    """

    def __init__(
        self,
        message: str,
        *,
        subject_ip: int,
        address: int,
        access: str,
    ) -> None:
        super().__init__(message)
        self.subject_ip = subject_ip
        self.address = address
        self.access = access


class SnapcodecError(MachineError):
    """A serialized snapshot is malformed (bad magic, version, layout).

    Raised by :mod:`repro.machine.snapcodec` when decoding a byte
    stream that is not a well-formed snapshot of a supported version,
    or when asked to encode a value outside the codec's closed type
    set (which would mean a live object was about to cross a process
    boundary).
    """


class PlatformError(ReproError):
    """Invalid platform construction or configuration."""


class RegionExhaustedError(PlatformError):
    """Every MPU region register is already programmed.

    The paper's Sec. 8 names the fixed region budget as TrustLite's key
    scalability limit; running out of regions while programming a policy
    is therefore its own error type so callers (and the static verifier)
    can distinguish it from plain misconfiguration.
    """

    def __init__(self, message: str, *, num_regions: int) -> None:
        super().__init__(message)
        self.num_regions = num_regions


class LoaderError(ReproError):
    """The Secure Loader rejected a PROM image or trustlet metadata."""


class ImageError(LoaderError):
    """A trustlet/OS binary image is malformed."""


class AnalysisError(ReproError):
    """Static verification rejected an image before boot.

    Raised by ``TrustLitePlatform.boot(image, verify=True)`` when the
    :mod:`repro.analysis` linter reports error-severity findings; the
    findings ride along for programmatic inspection.
    """

    def __init__(self, message: str, findings: tuple = ()) -> None:
        super().__init__(message)
        self.findings = tuple(findings)


class AttestationError(ReproError):
    """A measurement or attestation check failed."""


class IpcError(ReproError):
    """Trusted IPC protocol violation (bad nonce, unknown peer, replay)."""


class FleetError(ReproError):
    """Fleet orchestration failure (bad config, transport misuse)."""


class UsageError(FleetError):
    """A request that a run can only reject once it has built its inputs.

    Raised before any device work starts (an OTA ``corrupt_chunk`` past
    the last chunk of the signed container); the CLI reports it like a
    bad flag, with exit code 2.
    """


class ShardExecutionError(FleetError):
    """A shard could not be executed after every recovery avenue.

    The self-healing executor retries crashed/hung shards on rebuilt
    worker pools and finally degrades to in-process execution; this is
    raised only when the shard's work itself keeps failing.  Callers
    never see a raw ``BrokenProcessPool`` — the executor translates
    every pool-level failure into either a recovered result or this.
    """

    def __init__(self, shard_id, attempts: int, cause: BaseException):
        super().__init__(
            f"shard {shard_id!r} failed after {attempts} attempt(s): "
            f"{type(cause).__name__}: {cause}"
        )
        self.shard_id = shard_id
        self.attempts = attempts
        self.cause = cause


class ContainerError(ReproError):
    """A signed firmware container is malformed or inconsistent.

    Raised by :mod:`repro.ota.container` when decoding a byte stream
    that is not a well-formed TLFW container (bad magic, truncation,
    type confusion, implausible sizes) or when a structurally valid
    container contradicts itself (section bytes diverging from the
    signed per-module measurements).  Mirrors the
    :class:`SnapcodecError` discipline: a corrupted update image must
    never surface as ``IndexError``/``struct.error``.
    """


class SignatureError(ContainerError):
    """A container's signature chain failed verification.

    Either the container names a signing key the verifier does not
    hold (wrong key id) or the signature MAC over the canonical body
    does not check out under the trust root.
    """


class RollbackError(ContainerError):
    """A signed container carries a firmware version below the floor.

    The monotonic version floor only advances when an update is
    *committed* after its health gate passes, so a replayed old —
    but validly signed — container is refused with this error while
    an auto-rollback to the still-uncommitted previous version is not.
    """


class FaultError(ReproError):
    """Invalid fault-injection request (bad plan, target, or schedule).

    Raised by :mod:`repro.faults` when an injector or campaign is
    misconfigured — distinct from the simulator errors the injected
    faults themselves provoke (those surface as :class:`MachineError`
    subclasses, exactly as real misbehaving hardware would)."""
