"""Entropic fluctuations of Gaussian dynamical systems.

A model is the triple (generator, covariance, time reversal); the package
computes its finite-time and asymptotic entropy functionals, positivity
domains, rate functions and spectral atom measures, and cross-validates
them against Monte Carlo trajectory statistics and built-in analytic
oracles (rank-one toy model, harmonic chain).
"""

from .model import (
    DomainError,
    HypothesisReport,
    Model,
    SigmaMatrix,
    SingularCovarianceError,
    StructuralError,
    perturb_reference,
    sigma_matrix,
    validate_model,
)
from .flow import (
    FlowPoint,
    GaussianPair,
    cocycle_defect,
    entropy_balance_defect,
    flow_point,
    log_density,
    mean_entropy_production,
    relative_entropy,
)
from .renyi import (
    DomainInterval,
    EntropicFunctional,
    domain_interval,
    domain_interval_ness,
    ness_functional,
    reference_functional,
    renyi_entropy,
    renyi_entropy_ness,
)
from .asymptotics import (
    AtomMeasure,
    LimitCovariances,
    PlateauError,
    QOperator,
    estimate_limit_covariance,
    limit_functional,
    q_operator,
    spectral_measure_nu,
    steady_entropy_production,
)
from .ldp import RateFunction, clt_variance, es_symmetry_defect, rate_function
from .montecarlo import (
    CltReport,
    SampleBatch,
    SigmaIntegral,
    clt_sample,
    empirical_mgf,
    sample_gaussian,
    sigma_integral_matrix,
    slln_trajectory,
)
from .models import (
    ChainOracle,
    ChainSpec,
    KAPPA,
    ToyOracle,
    ToySpec,
    build_chain,
    build_chain_perturbation,
    build_toy,
)
from .modelio import ParseError, load_model, save_model

__version__ = "0.1.0"
