"""Exception types shared across the package."""


class ChogenError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateOption(ChogenError):
    """Two options of a choice set are equal."""


class MixedWidth(ChogenError):
    """Treatments in one collection have different factor counts."""


class WidthMismatch(ChogenError):
    """Operands disagree on the number of factors."""


class ShapeMismatch(ChogenError):
    """Designs disagree on set count or set size."""


class EffectOutOfRange(ChogenError):
    """A factorial effect names a factor outside 1..n."""


class SamePair(ChogenError):
    """A component pair requires two distinct treatments."""


class SameEffect(ChogenError):
    """Pair counting requires two distinct effects."""


class BadOrder(ChogenError):
    """Argument is not admissible for the requested Hadamard construction."""


class NotHadamard(ChogenError):
    """Matrix fails the exact Hadamard check."""


class Unsupported(ChogenError):
    """Parameters outside the supported range."""


class BadGenerators(ChogenError):
    """Generator set violates the distinct/complement-free/nonzero rules."""


class BadGroup(ChogenError):
    """Group size r outside 1..n-1."""


class BadModel(ChogenError, ValueError):
    """A model specification is malformed or has too few factors."""


class BelowRankBound(ChogenError):
    """A recipe's N(m-1) is below Q, so its C* cannot reach full rank."""


class RangeError(ChogenError):
    """Construction parameter outside its stated admissible range."""


class FormatError(ChogenError):
    """Serialized design payload is malformed."""


class InvariantError(AssertionError):
    """An internal cross-check failed: a bug, never a bad input.

    Raised explicitly rather than by `assert`, so the check also runs
    under `python -O`.
    """
