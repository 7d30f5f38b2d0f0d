"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ContractError(RuntimeError):
    """An API precondition was violated by the caller."""


class ConfigError(ValueError):
    """A configuration value is outside its allowed range."""


class DegenerateDescriptorError(ValueError):
    """A descriptor row has near-zero norm and cannot be normalized."""


class ImageFormatError(IOError):
    """An image file could not be read or parsed."""


class BorderError(ValueError):
    """A sampling window escapes the image bounds."""


class DatasetError(ValueError):
    """Dataset construction cannot proceed with the given inputs."""


class MatchingError(ValueError):
    """Descriptor matching was invoked on invalid inputs."""


class TrainingError(RuntimeError):
    """Training stopped before an update could spread non-finite values."""
