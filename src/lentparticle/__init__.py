"""Pathwise carre-du-champ calculus for Poisson functionals.

Simulates finite Poisson configurations driven by truncated jump
intensities, evaluates functionals of the configuration together with
their added-particle derivatives, and assembles the pathwise
carre-du-champ (Malliavin-type) matrices by lending a particle at each
atom.  Chaos expansions, second quantization, and a Monte Carlo identity
suite provide the numerical verification layer; a small CLI runs
configured experiments reproducibly.
"""

__version__ = "0.1.0"

from .configuration import (
    Atom,
    Configuration,
    ConfigurationError,
    IntensityModel,
    InvalidModelError,
    add_particle,
    read_configuration,
    sample_batch,
    sample_configuration,
    write_configuration,
)
from .functionals import (
    Functional,
    FunctionalError,
    PiecewiseConstant,
    make_doleans,
    make_triangular_sde,
    make_generalized_ou,
    make_jump_sde,
    make_nearest_point,
    make_pair_doleans,
    make_path_eval,
    make_running_sup,
    make_stochastic_area,
    make_time_integral,
)
from .intensities import (
    IntegrationWarning,
    curve_model,
    dyadic_model,
    gauss_model,
    polar_model,
    power_model,
    uniform_model,
)
from .lent_particle import (
    CarreDuChamp,
    EngineError,
    GammaSpec,
    carre_du_champ,
    chain_rule_check,
    curve_gamma,
    det_positivity_survey,
    diag_squares_gamma,
    identity_gamma,
    norm_scaled_gamma,
    sharp_sample_many,
)
from .chaos import (
    MarkFunction,
    ResamplingSemigroup,
    chaos_gamma_closed,
    exp_series_check,
    orthogonality_mc,
    product_formula_check,
    pt_apply,
    second_quantization_check,
)
from .diagnostics import (
    EstimatorReport,
    dyadic_modulus_limit,
    ecf,
    ecf_reference_linear,
    kde,
    laplace_check,
    duality_check,
    mark_identities_check,
    marked_moment_check,
    rajchman_demo,
)
from .suite import standard_suite, suite_pass_fraction
