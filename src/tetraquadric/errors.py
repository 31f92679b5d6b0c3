"""Exception hierarchy shared by all modules."""


class GeometryError(Exception):
    """Base class for every error raised by this package."""


class NotTraceless(GeometryError):
    """A traceless form was required but the trace is not zero."""


class NotOnCone(GeometryError):
    """The given generator does not lie on the cone."""


class DegenerateForm(GeometryError):
    """The quadratic form is not finite or lacks the rank required here."""


class BadIndex(GeometryError):
    """Vertex or edge index out of range, or a forbidden repetition."""


class BadPermutation(GeometryError):
    """An index quadruple is not a permutation of (0, 1, 2, 3)."""


class TrivialQuadric(GeometryError):
    """The altitude quadric degenerated to the zero form."""


class NotHyperboloid(GeometryError):
    """The operation needs the nondegenerate hyperboloid case."""


class DegenerateTetrahedron(GeometryError):
    """The four vertices are coplanar within tolerance, or the figure's
    opposite-edge products leave the normal double range."""


class CollinearPoints(GeometryError):
    """Three points expected to span a triangle are collinear."""


class ZeroOffset(GeometryError):
    """A section height of at least the smallest normal double in magnitude
    is required: 0 passes through the cone vertex."""


class EmptyFamily(GeometryError):
    """A nonempty triangle family is required."""


class ParseError(GeometryError):
    """Malformed input document."""


class AmbiguousRegulus(GeometryError):
    """A line on the hyperboloid meets exactly two of the four altitudes, which
    only roundoff near a tolerance gate can produce."""


class InternalInvariantError(GeometryError):
    """A structurally impossible configuration was produced; indicates a bug."""
