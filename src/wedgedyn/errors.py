"""Error taxonomy shared across the toolkit.

Every failure mode that callers are expected to handle gets its own class;
anything else is a plain ValueError/RuntimeError and means a bug.
"""


class WedgedynError(Exception):
    """Base class for all library-specific errors."""


class SingularMatrix(WedgedynError):
    """A matrix inverse was required but det = 0."""


class NotDivisible(WedgedynError):
    """An exact integer division (matrix or polynomial) left a remainder."""


class RootOfUnitySpectrum(WedgedynError):
    """The matrix has an eigenvalue that is a root of unity, so A^k - I degenerates."""


class DimensionMismatch(WedgedynError):
    """Operands have incompatible dimensions."""


class RankMismatch(WedgedynError):
    """A word or rule refers to generators outside the declared rank."""


class NotExpanding(WedgedynError):
    """An operation requires an expanding matrix (all eigenvalue moduli > 1)."""


class NontrivialHomologyAction(WedgedynError):
    """An operation requires the abelianization to be the identity matrix."""


class AdaptedNormUnavailable(WedgedynError):
    """No exact adapted norm certificate could be built for this matrix."""


class BudgetExceeded(WedgedynError):
    """An enumeration outgrew its configured budget; results would be truncated."""


class ParseError(WedgedynError):
    """Map description text failed to parse; carries line/column."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class UndeclaredGenerator(ParseError):
    """A rule used a letter outside the declared rank."""


class DuplicateRule(ParseError):
    """Two rules were given for the same generator."""
