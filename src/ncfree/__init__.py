"""Exact non-crossing partition calculus, free cumulants, and the moment
model of one free Poisson generator coupled to a matrix algebra, with Monte
Carlo random-matrix cross-checks.

The exact layers (everything except :mod:`ncfree.rmt` and the Monte Carlo
acceptance check) work over ``int`` and ``fractions.Fraction`` only.
``import ncfree`` loads neither numpy nor scipy, and neither does
:mod:`ncfree.verify` until its Monte Carlo check runs.  :mod:`ncfree.rmt`
imports numpy, and scipy only inside the bulk-mass integral.
"""
from ._caches import clear_all as clear_caches
from .errors import (
    ArityError,
    ConfigError,
    GroundMismatchError,
    InconsistencyError,
    MalformedPartitionError,
    MobiusOrderError,
    NcfreeError,
    SizeLimitError,
    WordSyntaxError,
)
from .factors import (
    FactorDescription,
    Summand,
    dykema_free_product,
    free_product_with_matrix,
    m3_parameter,
    vn_z_description,
)
from .freeprob import (
    FreenessReport,
    FreeProduct,
    free_poisson_cumulant,
    free_poisson_moment,
    freeness_check,
    mixed_cumulant,
)
from .model import (
    ModelLetter,
    ModelParams,
    PiTermBreakdown,
    Z,
    centering_moment,
    dim_box,
    floating_loops,
    matrix_letter,
    pi_term,
    tau_word,
    tilde_kappa,
    word_cumulant,
    z_cumulant,
    z_moment,
)
from .ncpart import (
    NonCrossingPartition,
    catalan,
    cumulants_to_moments,
    enumerate_nc,
    is_noncrossing,
    kreweras_complement,
    mobius,
    moments_to_cumulants,
    multiplicative_extension,
    partitioned_forms_check,
    pi_tilde,
    pi_tilde_bruteforce,
    refines,
)

__version__ = "0.1.0"

__all__ = [
    "__version__", "clear_caches",
    # errors
    "NcfreeError", "MalformedPartitionError", "GroundMismatchError",
    "MobiusOrderError", "SizeLimitError", "ArityError", "ConfigError",
    "WordSyntaxError", "InconsistencyError",
    # partitions
    "NonCrossingPartition", "catalan", "enumerate_nc", "is_noncrossing",
    "refines", "mobius", "kreweras_complement", "pi_tilde",
    "pi_tilde_bruteforce", "multiplicative_extension", "moments_to_cumulants",
    "cumulants_to_moments", "partitioned_forms_check",
    # free probability
    "FreeProduct", "FreenessReport", "free_poisson_cumulant",
    "free_poisson_moment", "mixed_cumulant", "freeness_check",
    # model
    "ModelParams", "ModelLetter", "Z", "matrix_letter", "dim_box",
    "z_cumulant", "z_moment", "tau_word", "pi_term", "PiTermBreakdown",
    "floating_loops", "tilde_kappa", "word_cumulant", "centering_moment",
    # factors
    "Summand", "FactorDescription", "vn_z_description", "dykema_free_product",
    "free_product_with_matrix", "m3_parameter",
]
