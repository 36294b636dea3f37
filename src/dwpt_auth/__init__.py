"""Post-quantum authentication for dynamic wireless EV charging.

A lattice-based identity-based encryption engine over NTRU lattices, the
four-party authentication state machines (vehicle OBU, service authority,
road-side unit, charging pads), and a deterministic cost/network simulator
with an adversary harness.
"""

from dwpt_auth.errors import (
    AuthenticationFailure,
    DecodeError,
    DuplicateRegistration,
    EmptyRegistry,
    NotInvertible,
    ParameterMismatch,
    ProtocolRejection,
    ResampleExhausted,
    SamplerFailure,
)
from dwpt_auth.ibe import (
    decrypt,
    encrypt,
    extract,
    ibe_open,
    ibe_seal,
    identity_point,
    master_key_gen,
    sign,
    verify,
)
from dwpt_auth.netsim import (
    TimingModel,
    cost_asymptotic,
    cost_first_pad,
    pad_length_m,
    run_adversary,
    simulate_session,
)
from dwpt_auth.registration import (
    export_cspa_dataset,
    ra_setup,
    record_pass,
    register_vehicle,
    storage_estimate,
    storage_report,
)
from dwpt_auth.ring import RingElement, RingParams, TIERS
from dwpt_auth.rng import RandomSource

__all__ = [
    "AuthenticationFailure",
    "DecodeError",
    "DuplicateRegistration",
    "EmptyRegistry",
    "NotInvertible",
    "ParameterMismatch",
    "ProtocolRejection",
    "RandomSource",
    "ResampleExhausted",
    "RingElement",
    "RingParams",
    "SamplerFailure",
    "TIERS",
    "TimingModel",
    "cost_asymptotic",
    "cost_first_pad",
    "decrypt",
    "encrypt",
    "export_cspa_dataset",
    "extract",
    "ibe_open",
    "ibe_seal",
    "identity_point",
    "master_key_gen",
    "pad_length_m",
    "ra_setup",
    "record_pass",
    "register_vehicle",
    "run_adversary",
    "sign",
    "simulate_session",
    "storage_estimate",
    "storage_report",
    "verify",
]
