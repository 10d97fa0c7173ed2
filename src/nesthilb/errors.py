"""Exception hierarchy shared by the localization engine."""


class NestHilbError(Exception):
    """Base class for all engine errors."""


class InvalidNesting(NestHilbError):
    """Requested nested sizes violate n1 >= n2 >= 0."""


class DependentChartWeights(NestHilbError):
    """Chart weights are linearly dependent; the chart is degenerate."""


class ZeroWeightInTangent(NestHilbError):
    """A virtual tangent character contains the zero weight.

    Structural: either the fixed point is not isolated or a character
    formula is wrong.  Never recoverable by redrawing specializations.
    """


class VirtualCharacter(NestHilbError):
    """A character with a negative multiplicity where an effective one is needed."""


class InconsistentTangent(NestHilbError):
    """A fixed-point tangent character has the wrong signed rank or
    contains the zero weight."""


class SpecializationPole(NestHilbError):
    """A weight vanished at the chosen specialization point; redraw."""


class SpecializationExhausted(NestHilbError):
    """All redraw attempts hit poles."""


class NonConstantSum(NestHilbError):
    """A localization sum gave different values at different
    specializations; the equivariant data is inconsistent."""


class WrongCoefficientCount(NestHilbError):
    """Divisor coefficient list does not match the number of fan rays."""
