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
    """Sum cache is missing, or structurally or semantically corrupt."""


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
    """A local-factor coefficient is not integral or breaks the functional equation."""


class SignConventionFindingError(FindingError):
    """Power-sum sign convention fails but the flipped sign passes.

    The relation between power sums and Kl_n values is derived, not
    displayed; a systematic failure that disappears under the opposite
    sign must be surfaced instead of silently flipped.
    """


class OrbitFindingError(FindingError):
    """A local factor is not sigma_c of its Galois orbit representative's.

    Kl_n(c^(n+1) t, m) = sigma_c(Kl_n(t, m)) for c in F_p^* (substitute
    x_i -> c x_i), so the factor at [c^(n+1) t] is sigma_c of the one at t.
    """


class IntegralityFindingError(FindingError):
    """Euler-product coefficient falls outside the expected subring."""
