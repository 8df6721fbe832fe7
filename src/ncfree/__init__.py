"""Exact non-crossing partition calculus, free cumulants, and the moment
model of one free Poisson generator coupled to a matrix algebra, with Monte
Carlo random-matrix cross-checks.

The exact layers (everything except :mod:`ncfree.rmt` and the Monte Carlo
acceptance check) work over ``int`` and ``fractions.Fraction`` only.
``import ncfree`` loads neither numpy nor scipy, and neither does
:mod:`ncfree.verify` until its Monte Carlo check runs.  :mod:`ncfree.rmt`
imports numpy, and scipy only inside the bulk-mass integral.

``import ncfree`` loads only the error classes and the memo registry.  Each
layer re-export below (``ncfree.tau_word``, ``ncfree.FreeProduct``, ...)
imports its module on first access (PEP 562), so a process pays only for
the layers it uses; ``from ncfree import tau_word`` works as before.
"""
from importlib import import_module

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

__version__ = "0.1.0"

# public name -> the layer module that defines it, imported on first access
_LAYER_OF = {
    # partitions
    **dict.fromkeys((
        "NonCrossingPartition", "catalan", "enumerate_nc", "is_noncrossing",
        "refines", "mobius", "kreweras_complement", "pi_tilde",
        "pi_tilde_bruteforce", "multiplicative_extension",
        "moments_to_cumulants", "cumulants_to_moments",
        "partitioned_forms_check"), "ncpart"),
    # free probability
    **dict.fromkeys((
        "FreeProduct", "FreenessReport", "free_poisson_cumulant",
        "free_poisson_moment", "mixed_cumulant", "freeness_check"), "freeprob"),
    # model
    **dict.fromkeys((
        "ModelParams", "ModelLetter", "Z", "matrix_letter", "dim_box",
        "z_cumulant", "z_moment", "tau_word", "pi_term", "PiTermBreakdown",
        "floating_loops", "tilde_kappa", "word_cumulant",
        "centering_moment"), "model"),
    # factors
    **dict.fromkeys((
        "Summand", "FactorDescription", "vn_z_description",
        "dykema_free_product", "free_product_with_matrix",
        "m3_parameter"), "factors"),
}

__all__ = [
    "__version__", "clear_caches",
    # errors
    "NcfreeError", "MalformedPartitionError", "GroundMismatchError",
    "MobiusOrderError", "SizeLimitError", "ArityError", "ConfigError",
    "WordSyntaxError", "InconsistencyError",
]
__all__ += list(_LAYER_OF)


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{layer}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list:
    return sorted({*globals(), *_LAYER_OF})
