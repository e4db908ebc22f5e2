"""Error taxonomy shared across the package.

Three families matter to callers: usage errors (bad configuration, exit 1),
resource errors (a configured budget would be exceeded), and finding errors.
A finding error is raised when a verified mathematical fact fails on a
concrete instance; it is never swallowed, because it would falsify the
statement the run is checking.
"""


class KlsymError(Exception):
    """Base class for package errors."""


class UsageError(KlsymError):
    """Invalid configuration or arguments."""


class ResourceError(KlsymError):
    """A configured size or work budget would be exceeded."""


class CacheError(KlsymError):
    """Sum cache is structurally or semantically corrupt."""


class PrecisionError(KlsymError):
    """Working precision is insufficient to settle the question."""


class FindingError(KlsymError):
    """A checked mathematical fact failed on a concrete instance."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DegenerateFactorError(FindingError):
    """Polynomial lacks the simple unit root the lifting step requires."""


class SlopeFindingError(FindingError):
    """Local-factor Newton slopes differ from {0, ..., n}."""


class FunctionalEquationFindingError(FindingError):
    """Leading coefficient is not +-q^(n(n+1)d/2)."""


class SignConventionFindingError(FindingError):
    """Power-sum sign convention fails but the flipped sign passes.

    The relation between power sums and Kl_n values is derived, not
    displayed; a systematic failure that disappears under the opposite
    sign must be surfaced instead of silently flipped.
    """


class IntegralityFindingError(FindingError):
    """Euler-product coefficient falls outside the expected subring."""
