"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes by class.  Exit 1: ValidationError
and its subclasses DimensionError, GeometryError, ConfigError,
ContractError and IncompatibleCheckpointError.  Exit 2: every other
SA2NetError, i.e. IntegrityError, ParseError and DivergenceError (and
any OSError or MemoryError).
"""


class SA2NetError(Exception):
    """Base class for all package errors."""


class ValidationError(SA2NetError):
    """Input data violates a documented invariant (e.g. non-binary mask)."""


class DimensionError(ValidationError):
    """Tensor shape mismatch; the message names the offending axis."""


class GeometryError(ValidationError):
    """Convolution geometry does not yield an exact output size."""


class ConfigError(ValidationError):
    """Invalid configuration value or combination."""


class ContractError(ValidationError):
    """An API precondition was violated (e.g. backward on a non-scalar)."""


class IncompatibleCheckpointError(ValidationError):
    """An ensemble's checkpoints disagree on their config fingerprint."""


class IntegrityError(SA2NetError):
    """A file is truncated or corrupt; the message carries a byte offset."""


class ParseError(IntegrityError):
    """A text header (PGM, manifest, config) is malformed."""


class DivergenceError(SA2NetError):
    """A non-finite loss at a named step, or op output under SA2NET_DEBUG."""
