"""Adaptive, error-aware estimation of observables on qudit registers."""

from .bayes import (
    CovarianceEstimate,
    MCMCConfig,
    covariance_mcmc,
    gelman_rubin,
    geweke_z,
    posterior_mean_theta,
    ps_mean,
    self_covariance,
)
from .clifford import CliffordCircuit, Gate, conjugate_ps, diagonalize_clique
from .engine import (
    EstimationReport,
    NoiseFit,
    RunSettings,
    XiEstimate,
    estimate_xi,
    fit_noise_model,
    run_estimation,
    systematic_deviation,
    worst_case_bound,
)
from .graph import (
    Clique,
    CommutationGraph,
    EdgeEstimates,
    build_graph,
    clique_cover,
    estimate_observable,
    scaled_covariance,
    variance_decrease,
)
from .observables import (
    Observable,
    SpinPolynomial,
    SpinTerm,
    decompose_matrix,
    decompose_spin,
)
from .paulis import (
    PauliString,
    QuditRegister,
    commutation_matrix,
    local_matrix,
    ps_dagger,
    ps_matrix,
    ps_multiply,
    spectral_offset,
)
from .simulator import (
    NoiseModel,
    StateVector,
    apply_circuit,
    circuit_error_prob,
    prepare_product_state,
    sample_shot,
    stabilizer_probe,
)
from .spin import spin_coefficients, spin_matrix

__version__ = "0.1.0"
