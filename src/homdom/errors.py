"""Exception hierarchy shared by all homdom modules."""


class HomdomError(Exception):
    """Base class for all errors raised by this package; the CLI exits 1."""


class UsageError(HomdomError):
    """The input is malformed, out of its domain or past a size cap; exit 2."""


class PreconditionError(HomdomError):
    """A theorem's hypothesis fails on well-formed input; exit 3."""


class GraphTooLarge(UsageError):
    """Graph exceeds the 63-vertex bitmask cap."""


class MalformedInput(UsageError):
    """Edge-list text or graph-spec string does not follow the format, or a
    set-function value is not an exact rational (an int or a Fraction)."""


class NotChordal(PreconditionError):
    """Operation requires a chordal graph."""


class NotSeriesParallel(PreconditionError):
    """Operation requires a series-parallel (K4-minor-free) graph."""


class EmptyGraph(UsageError):
    """Operation requires at least one vertex."""


class GroundTooLarge(UsageError):
    """Polytope ground set exceeds the 14-vertex cap (2^14 subset variables)."""


class GroundMismatch(HomdomError):
    """Set function is defined on a different ground set than expected."""


class BadVertex(UsageError):
    """Vertex index outside the graph."""


class BadIndex(UsageError):
    """Index parameter outside its documented range."""


class BadParity(UsageError):
    """Parameter has the wrong parity for this operation."""


class NoHomomorphism(PreconditionError):
    """Some connected component of the source admits no map into the target."""


class NotMember(HomdomError):
    """Set function is not a member of the required polytope."""


class ScopeTooLarge(UsageError):
    """Requested exhaustive search scope, or a source's set of distinct
    homomorphism profiles, is beyond desk scale."""


class EmptyScope(UsageError):
    """A check was given a scope with no graphs: its verdict would be vacuous."""


class RatlpError(HomdomError):
    """Internal failure of the exact LP layer."""
