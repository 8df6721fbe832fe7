"""Parameter arithmetic for direct sums of tracial factors.

Descriptions are finite weighted direct sums built from four summand kinds:
the scalars, a matrix factor of some size d, an interpolated free group
factor with rational parameter r, and the group von Neumann algebra of the
integers (the r = 1 end of the interpolated family).

``dykema_free_product`` implements the two-branch formula for the free
product of a two-summand description (scalars plus an interpolated factor)
with a matrix factor M_d.  The branches meet at alpha = 1/d**2 and the
boundary agreement is part of the test suite.  ``m3_parameter`` evaluates
the model's closed-form parameter and asserts it against the pipeline built
from ``vn_z_description``.
"""
from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from ._record import Record
from .errors import ConfigError, InconsistencyError

if TYPE_CHECKING:
    from .model import ModelParams

SCALAR = "scalar"
MATRIX = "matrix"
FREE_GROUP = "free_group"
INTEGER_GROUP = "lz"

_KINDS = (SCALAR, MATRIX, FREE_GROUP, INTEGER_GROUP)


class Summand(Record):
    """One weighted summand of a direct sum description."""
    __slots__ = _fields = ("weight", "kind", "parameter")

    def __init__(self, weight: Fraction, kind: str,
                 parameter: Optional[Fraction] = None):
        weight = Fraction(weight)
        if not 0 < weight <= 1:
            raise ConfigError(f"weight must lie in (0, 1], got {weight}")
        if kind not in _KINDS:
            raise ConfigError(f"unknown summand kind {kind!r}")
        if kind == MATRIX:
            if (not isinstance(parameter, int) or isinstance(parameter, bool)
                    or parameter < 1):
                raise ConfigError(f"matrix summand needs a size >= 1, got "
                                  f"{parameter!r}")
        elif kind == FREE_GROUP:
            parameter = Fraction(parameter)
            if parameter < 1:
                raise ConfigError(f"free group parameter must be >= 1, got "
                                  f"{parameter}")
        elif parameter is not None:
            raise ConfigError(f"{kind} summand carries no parameter")
        self._set(weight=weight, kind=kind, parameter=parameter)

    def display(self) -> str:
        if self.kind == SCALAR:
            body = "C"
        elif self.kind == MATRIX:
            body = f"M{self.parameter}"
        elif self.kind == INTEGER_GROUP:
            body = "LZ"
        else:
            body = f"LF({self.parameter})"
        if self.weight == 1:
            return body
        return f"{body}[{self.weight}]"


class FactorDescription(Record):
    """A finite direct sum of weighted summands; weights add up to 1."""
    __slots__ = _fields = ("summands",)

    def __init__(self, summands: tuple):
        s = tuple(summands)
        if not s:
            raise ConfigError("a description needs at least one summand")
        if sum(x.weight for x in s) != 1:
            raise ConfigError(f"weights must sum to 1, got "
                              f"{[str(x.weight) for x in s]}")
        self._set(summands=s)

    def display(self) -> str:
        return " (+) ".join(x.display() for x in self.summands)


def vn_z_description(params: ModelParams) -> FactorDescription:
    """Algebra generated by the model generator: scalars at weight 1 - 1/n
    plus the integer group factor at weight 1/n."""
    n = params.n
    return FactorDescription((
        Summand(Fraction(n - 1, n), SCALAR),
        Summand(Fraction(1, n), INTEGER_GROUP),
    ))


def dykema_free_product(r, alpha, d: int) -> FactorDescription:
    """Free product of (scalars at 1-alpha plus LF(r) at alpha) with M_d.

    The convention LF(1) = LZ covers the integer group end.  For
    alpha >= 1/d**2 the result is a single interpolated factor with
    parameter r*alpha**2 + 2*alpha*(1-alpha) + 1 - 1/d**2.  Below that
    threshold a matrix summand of weight 1 - alpha*d**2 survives next to an
    interpolated factor with parameter (r-2)/d**4 + 1 + 1/d**2 at weight
    alpha*d**2.  The two branches agree at the threshold.
    """
    r = Fraction(r)
    alpha = Fraction(alpha)
    if r < 1:
        raise ConfigError(f"interpolation parameter must be >= 1, got {r}")
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    if not isinstance(d, int) or d < 2:
        raise ConfigError(f"matrix size must be an integer >= 2, got {d!r}")
    threshold = Fraction(1, d * d)
    if alpha >= threshold:
        parameter = r * alpha ** 2 + 2 * alpha * (1 - alpha) + 1 - threshold
        return FactorDescription((Summand(Fraction(1), FREE_GROUP, parameter),))
    matrix_weight = 1 - alpha * d * d
    parameter = (r - 2) * threshold ** 2 + 1 + threshold
    return FactorDescription((
        Summand(matrix_weight, MATRIX, d),
        Summand(alpha * d * d, FREE_GROUP, parameter),
    ))


def free_product_with_matrix(desc: FactorDescription, d: int) -> FactorDescription:
    """Apply the two-branch formula to a scalars-plus-factor description.

    The description must have exactly two summands: scalars, and either an
    interpolated free group factor or the integer group factor (treated as
    parameter 1).
    """
    if len(desc.summands) != 2:
        raise ConfigError(f"expected two summands, got {len(desc.summands)}")
    scalar, factor = desc.summands
    if scalar.kind != SCALAR:
        raise ConfigError(f"first summand must be the scalars, got {scalar.kind}")
    if factor.kind == INTEGER_GROUP:
        r = Fraction(1)
    elif factor.kind == FREE_GROUP:
        r = factor.parameter
    else:
        raise ConfigError(f"second summand must be an interpolated or integer "
                          f"group factor, got {factor.kind}")
    return dykema_free_product(r, factor.weight, d)


def m3_parameter(params: ModelParams) -> Fraction:
    """Interpolation parameter of the generator-plus-matrices factor.

    Closed form 1 + 2(n-1)/n**2, asserted against the free product pipeline:
    the generator's algebra description fed through the two-branch formula
    with d = n must land on the same single interpolated summand.
    """
    n = params.n
    closed = 1 + Fraction(2 * (n - 1), n * n)
    piped = free_product_with_matrix(vn_z_description(params), n)
    if len(piped.summands) != 1:
        raise InconsistencyError(
            f"pipeline returned {piped.display()}, expected one summand")
    top = piped.summands[0]
    if top.kind != FREE_GROUP or top.weight != 1 or top.parameter != closed:
        raise InconsistencyError(
            f"pipeline parameter {top.parameter} disagrees with closed form {closed}")
    return closed
