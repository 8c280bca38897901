"""Exception types raised by the exact and numeric engines."""


class OrbidegreeError(Exception):
    """Base class for all library errors."""


class NotEffectiveError(OrbidegreeError):
    """Weight vector has a common factor, so the circle action is not effective."""


class NotEquivariantError(OrbidegreeError):
    """Exponents do not define an equivariant coordinate-power map (q_i*e_i/r_i must be a constant integer)."""


class WeightMismatchError(OrbidegreeError):
    """Composition attempted between maps whose intermediate spaces differ."""


class NotRegularError(OrbidegreeError):
    """The probed value is a critical value (some off-support exponent exceeds 1)."""


class EnumerationCapExceededError(OrbidegreeError):
    """The fibre would require more tuples than the configured enumeration cap."""


class NonIntegralWeightError(OrbidegreeError):
    """A weight or weighted count failed its integrality assertion; signals a bug, never expected."""


class PreconditionViolatedError(OrbidegreeError):
    """An operation was called outside its stated preconditions."""


class NewtonDivergedError(OrbidegreeError):
    """Phase correction did not converge inside the local-uniqueness window; retry with y closer to x."""


class IrregularPointError(OrbidegreeError):
    """Smallest singular value of the lift differential fell below the regularity threshold."""


class CriticalValueError(OrbidegreeError):
    """A numeric preimage failed the derivative-magnitude threshold."""


class NoConvergenceError(OrbidegreeError):
    """Root refinement did not converge to the requested tolerance."""


class NoHomomorphismError(OrbidegreeError):
    """The requested rotation groups admit no pushforward homomorphism (k must divide m*b)."""
