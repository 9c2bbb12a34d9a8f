"""Exception types shared across the library."""


class NilflowError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(NilflowError, ValueError):
    """Operands live on spaces of different dimension."""


class BracketFormatError(NilflowError, ValueError):
    """Malformed bracket JSON: bad indices, duplicates, wrong types."""


class SingularMatrix(NilflowError, ValueError):
    """A change of basis is singular (or numerically indistinguishable from it)."""


class NotNilpotentError(NilflowError, ValueError):
    """The descending central series stabilizes at a nonzero subspace."""


class ZeroBracket(NilflowError, ValueError):
    """Operation undefined for the zero bracket."""


class DegreeTooHigh(NilflowError, ValueError):
    """Closed form only valid up to a fixed nilpotency degree."""


class BadNormalization(NilflowError, ValueError):
    """Initial bracket is off the prescribed sphere; rescale explicitly."""


class TooFewSamples(NilflowError, ValueError):
    """Not enough trace samples for a finite-difference check."""


class ConfigError(NilflowError, ValueError):
    """Invalid CLI / experiment configuration."""


class BadRate(NilflowError, TypeError, ValueError):
    """A normalization rate r that is not None, a finite real number or
    'scalar'."""


class NumericalFailure(NilflowError, RuntimeError):
    """Integration failed; carries the partial trace when one exists.

    The trace is the list of accepted (t, y) samples.  For the bracket flows
    y is the flattened frame h with mu(t) = h.mu0, not the bracket itself;
    for the metric flow it is the lower triangle of the factor L of
    G = L L^T, with log L_ii in place of L_ii.
    Two guards, one frame check, cut it: when a frame's condition number
    passes 1/sqrt(eps), or the skew defect max|c + c^T| / ||c|| of
    c = h.mu0 passes 1e-8 (rounding damage to mu), the trace ends at the
    last sample before the first such frame.  The companion frame of
    cointegrate_h, which has no gauge and degenerates near a soliton, is cut
    by the first guard alone, and its messages start "the companion frame
    h became singular: ".  Every run holds one error state in which an
    overflow or an invalid operation raises; one in its step loop also ends
    it in NumericalFailure, "... at t=...", with the samples accepted
    before it.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class StepSizeUnderflow(NumericalFailure):
    """Adaptive step size collapsed below the resolution limit."""
