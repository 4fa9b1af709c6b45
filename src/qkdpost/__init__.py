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
    ChoiMatrix,
    PauliProbs,
    affine_from_choi,
    choi_from_affine,
    is_completely_positive,
    joint_distribution,
    make_amplitude_damping,
    make_identity,
    make_pauli,
    make_rotation,
    outcome_probability,
    parse_channel_spec,
    pauli_probs_from_diagonal,
    singular_values_zx,
)
from .entropy import (
    JointDistribution,
    binary_entropy,
    cond_entropy,
    pw_from_joint,
    shannon_entropy,
    von_neumann_entropy,
)
from .hashing import HashDescriptor, apply_hash, key_length, sample_hash
from .keyrate import (
    ErrorRates,
    RateReport,
    ambiguity_direct,
    ambiguity_reverse,
    closed_form_example_rates,
    error_rates,
    key_bases,
    key_joint,
    keyrate,
    keyrate_conventional_bb84,
    keyrate_conventional_sixstate,
    unital_ambiguity_closed_form,
)
from .reconciliation import (
    ParityCheckMatrix,
    gen_parity_check,
    map_decode_bruteforce,
    priors_from_joint,
    read_alist,
    required_syndrome_rate,
    sp_decode,
    syndrome,
    write_alist,
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
    RawEstimate,
    TallyTable,
    estimate_rates_bb84,
    estimate_rates_sixstate,
    exact_tally,
    linear_inversion,
    nearest_choi,
    project_omega_bb84,
    sample_tally,
)
from .worstcase import (
    FeasibleInterval,
    ObservableParams,
    feasible_interval,
    worst_case_ambiguity,
    worst_case_lower_bound,
)


def backend_name() -> str:
    """Name of the array backend, recorded in benchmark provenance; numpy is the only one."""
    return "numpy"
