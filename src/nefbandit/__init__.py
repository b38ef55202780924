"""Natural exponential families, stretch certificates, and optimistic bandits."""

from .bandit import (
    ConfidenceState,
    GlbInstance,
    RegretBound,
    RoundLog,
    RunResult,
    confidence_radius,
    elliptical_potential_check,
    exact_membership,
    make_instance,
    optimistic_choice,
    regularizer_schedule,
    run_ofu_glb,
    run_replicates,
    self_bounding_check,
    theoretical_regret_bound,
)
from .config import ExperimentConfig, build_instance, load_config, parse_config
from .distributions import (
    BaseDistribution,
    Bernoulli,
    CounterexampleSubgaussian,
    DiscreteAtoms,
    Exponential,
    Gamma,
    Gaussian,
    Laplace,
    MomentReport,
    NefFamily,
    Poisson,
    Shifted,
    centered,
    cgf,
    gamma_ratio,
    mean_fn,
    mgf,
    moments,
    parse_distribution,
    reflected,
    sample_tilted,
)
from .glm import Dataset, FitResult, difference_quotient_matrix, fit_mle, gradient_map, hessian, loss
from .rng import replicate_stream
from .selfconcordance import (
    StretchCertificate,
    SupportWitness,
    TailConstants,
    build_certificate,
    counterexample_distribution,
    find_support_witness,
    fit_tail_constants,
    g_q_value,
    stretch_bound,
    stretch_supremum,
    subgaussian_stretch_bound,
    verify_lower_bound,
)
from .tailbounds import (
    TailCertificate,
    mgf_from_tail_bound,
    run_tail_suite,
    tail_from_mgf,
    tilted_cgf_quadratic_bound,
    tilted_tail_bounds,
    variance_lower_bound,
)

__version__ = "0.1.0"
