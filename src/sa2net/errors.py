"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: validation-type failures (bad shapes,
bad configs, incompatible checkpoints) exit 1; integrity/runtime failures
(corrupt files, diverged training) exit 2.
"""


class SA2NetError(Exception):
    """Base class for all package errors."""


class DimensionError(SA2NetError):
    """Tensor shape mismatch; the message names the offending axis."""


class GeometryError(SA2NetError):
    """Convolution/pooling geometry does not yield an exact output size."""


class ConfigError(SA2NetError):
    """Invalid configuration value or combination."""


class ContractError(SA2NetError):
    """An API precondition was violated (e.g. backward on a non-scalar)."""


class ValidationError(SA2NetError):
    """Input data violates a documented invariant (e.g. non-binary mask)."""


class IncompatibleCheckpointError(ValidationError):
    """An ensemble's checkpoints disagree on their config fingerprint."""


class IntegrityError(SA2NetError):
    """A file is truncated or corrupt; the message carries a byte offset."""


class ParseError(IntegrityError):
    """A text header (PGM, manifest, config) is malformed."""


class DivergenceError(SA2NetError):
    """Training produced a non-finite loss; the message names the step."""
