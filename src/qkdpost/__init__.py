"""Classical post-processing for BB84 and six-state QKD.

Estimates the quantum channel from full (matched and mismatched basis)
counting statistics, decides secret-key rates from the estimate, reconciles
the sifted blocks with syndrome coding, and distills the final key with
Toeplitz hashing.
"""

__version__ = "0.1.0"

from .channels import (
    AffineChannel,
    Basis,
    PauliProbs,
    affine_from_choi,
    check_choi,
    choi_from_affine,
    make_amplitude_damping,
    make_pauli,
    make_rotation,
    parse_channel_spec,
)
from .entropy import binary_entropy, cond_entropy
from .hashing import HashDescriptor, apply_hash, key_length, sample_hash
from .keyrate import (
    RateReport,
    key_bases,
    key_joint,
    key_party,
    keyrate,
    keyrate_conventional_bb84,
    keyrate_conventional_sixstate,
)
from .reconciliation import (
    ParityCheckMatrix,
    gen_parity_check,
    read_alist,
    sp_decode,
    syndrome,
)
from .simulate import (
    ProtocolConfig,
    RunReport,
    run_protocol,
    simulate_exchange,
    sweep_rates,
)
from .tomography import (
    EstimationError,
    ProjectionError,
    TallyTable,
    estimate_rates_bb84,
    estimate_rates_sixstate,
    linear_inversion,
    nearest_choi,
    project_omega_bb84,
    sample_tally,
)
from .worstcase import (
    ObservableParams,
    worst_case_ambiguity,
    worst_case_lower_bound,
)


def backend_name() -> str:
    """Name of the array backend, recorded in benchmark provenance; numpy is the only one."""
    return "numpy"
