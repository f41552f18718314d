"""Exception types shared across the package."""


class EprkitError(Exception):
    """Base class for every error raised by eprkit."""


class DimMismatch(EprkitError, ValueError):
    """Operand dimensions do not chain or agree."""


class NonFinite(EprkitError, ValueError):
    """An array contains NaN or Inf entries."""


class NotHermitian(EprkitError, ValueError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotPositive(EprkitError, ValueError):
    """A matrix required to be positive semidefinite has a genuinely negative eigenvalue."""


class NotUnit(EprkitError, ValueError):
    """A vector required to be normalized is not, beyond tolerance."""


class NotIsometry(EprkitError, ValueError):
    """A map required to be isometric on a support space is not."""


class NotOrthonormal(EprkitError, ValueError):
    """A family of vectors required to be orthonormal is not."""


class NotProjection(EprkitError, ValueError):
    """An operator required to be an orthogonal projection has an eigenvalue away from 0 and 1."""


class NotSeparating(EprkitError, ValueError):
    """A state whose reductions must have full rank is rank deficient."""


class MixedParity(EprkitError, ValueError):
    """A linear and an antilinear map were combined where parity must agree."""


class OddParity(EprkitError, ValueError):
    """An odd number of antilinear factors where a linear result is required."""


class DimTooLarge(EprkitError, ValueError):
    """A dense computation was requested beyond its feasibility guard."""


class FactorizationFailure(EprkitError, ArithmeticError):
    """A product vector failed to factor within tolerance; indicates a bug, not physics."""


class ParseError(EprkitError, ValueError):
    """A serialized object does not match its expected schema."""


class ToleranceExceeded(EprkitError, ArithmeticError):
    """A verified identity exceeded its residual tolerance."""
