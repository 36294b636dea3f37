"""Post-quantum authentication for dynamic wireless EV charging.

A lattice-based identity-based encryption engine over NTRU lattices, the
four-party authentication state machines (vehicle OBU, service authority,
road-side unit, charging pads), and a deterministic cost/network simulator
with an adversary harness.  The names imported here are the public surface.
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
    record_pass,
    run_adversary,
    simulate_session,
)
from dwpt_auth.registration import (
    export_cspa_dataset,
    ra_setup,
    register_vehicle,
    storage_estimate,
)
from dwpt_auth.ring import RingElement, RingParams, TIERS
from dwpt_auth.rng import RandomSource
