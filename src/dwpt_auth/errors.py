"""Exception types shared across the package."""


class ParameterMismatch(ValueError):
    """Operands do not share the same ring parameters."""


class DecodeError(ValueError):
    """Bytes do not decode: truncated, trailing, or a field out of range."""


class NotInvertible(ValueError):
    """Element has no inverse in Z_q[x]/(x^N+1); caller should resample."""


class ResampleExhausted(RuntimeError):
    """Key generation could not find suitable polynomials within the attempt budget."""


class SamplerFailure(RuntimeError):
    """Lattice sampler failed to meet the norm bound within the retry budget."""


class AuthenticationFailure(ValueError):
    """AEAD tag check failed: ciphertext, key, or associated data was tampered with."""


class DuplicateRegistration(ValueError):
    """Identity is already present in the registry."""


class EmptyRegistry(ValueError):
    """Operation requires at least one registered vehicle."""


class ProtocolRejection(Exception):
    """A protocol party rejected a message.

    `reason` is a stable machine-readable tag (e.g. "PseudonymReuse",
    "StaleTimestamp") used by transcripts and the adversary harness.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)
