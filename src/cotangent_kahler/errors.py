"""Exception types shared across the package."""


class GeometryError(ValueError):
    """Base class for geometric validity violations."""


class SingularMetricError(GeometryError):
    """A metric is singular: its conformal factor is not positive and finite."""


class ZeroSectionError(GeometryError):
    """A fiber point is on (or too close to) the zero section, where the
    bundle metric degenerates."""


class PositivityError(GeometryError):
    """The fiber profile violates the positive-definiteness bound."""


class StencilError(GeometryError):
    """A finite-difference stencil produced a non-finite value or an
    unusably small step."""


class ConfigError(ValueError):
    """A run configuration violates the CLI contract."""
