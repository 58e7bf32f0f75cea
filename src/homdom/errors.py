"""Exception hierarchy shared by all homdom modules."""


class HomdomError(Exception):
    """Base class for all errors raised by this package."""


class GraphTooLarge(HomdomError):
    """Graph exceeds the 63-vertex bitmask cap."""


class MalformedInput(HomdomError):
    """Edge-list text or graph-spec string does not follow the format, or a
    set-function value is not an exact rational (an int or a Fraction)."""


class NotChordal(HomdomError):
    """Operation requires a chordal graph."""


class NotSeriesParallel(HomdomError):
    """Operation requires a series-parallel (K4-minor-free) graph."""


class EmptyGraph(HomdomError):
    """Operation requires at least one vertex."""


class GroundTooLarge(HomdomError):
    """Polytope ground set exceeds the 20-vertex cap (2^20 subset variables)."""


class GroundMismatch(HomdomError):
    """Set function is defined on a different ground set than expected."""


class BadVertex(HomdomError):
    """Vertex index outside the graph."""


class BadIndex(HomdomError):
    """Index parameter outside its documented range."""


class BadParity(HomdomError):
    """Parameter has the wrong parity for this operation."""


class NoHomomorphism(HomdomError):
    """Some connected component of the source admits no map into the target."""


class NotMember(HomdomError):
    """Set function is not a member of the required polytope."""


class ScopeTooLarge(HomdomError):
    """Requested exhaustive search scope is beyond desk scale."""


class EmptyScope(HomdomError):
    """A check was given a scope with no graphs: its verdict would be vacuous."""


class RatlpError(HomdomError):
    """Internal failure of the exact LP layer."""
