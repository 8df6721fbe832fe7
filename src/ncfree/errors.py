"""Exception hierarchy shared by all ncfree modules.

Everything derives from :class:`NcfreeError` so callers can catch the whole
family at once.  Errors that signal bad arguments also derive from
``ValueError`` so untargeted code keeps working.
"""
from __future__ import annotations


class NcfreeError(Exception):
    """Base class for all errors raised by this package."""


class MalformedPartitionError(NcfreeError, ValueError):
    """Blocks overlap, miss ground elements, or cross where they must not."""


class GroundMismatchError(NcfreeError, ValueError):
    """Two partitions were combined but live on different ground sets."""


class MobiusOrderError(NcfreeError, ValueError):
    """Mobius function requested for a pair that is not ordered by refinement."""


class SizeLimitError(NcfreeError, ValueError):
    """An enumeration or word length exceeded the configured cap."""


class ArityError(NcfreeError, ValueError):
    """A functional was evaluated at an unsupported arity."""


class ConfigError(NcfreeError, ValueError):
    """Invalid model or simulation parameters."""


class WordSyntaxError(NcfreeError, ValueError):
    """A textual word or partition literal could not be parsed."""


class OutputError(NcfreeError, OSError):
    """A result file could not be written."""


class InconsistencyError(NcfreeError, RuntimeError):
    """Two of the package's own computations disagree; a defect, not bad input."""
