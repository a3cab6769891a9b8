"""Exception types raised by the library.

Every error below derives from :class:`HarmonicPortsError` so callers can
catch the whole family with one clause.  Each class carries the process
exit code the CLI returns for it as ``exit_code``: validation and
identity failures exit 1 (the base), numerical failures derive from
:class:`NumericalFailure` and exit 2, and usage problems derive from
:class:`UsageError` and exit 3.  A new error class takes its code from
the base it derives from.
"""


class HarmonicPortsError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class NumericalFailure(HarmonicPortsError):
    """Base class for failures of a numerical method on valid input."""

    exit_code = 2


class UsageError(HarmonicPortsError):
    """Base class for requests the library cannot serve as asked."""

    exit_code = 3


class DuplicateSimplex(HarmonicPortsError):
    """The same top simplex (as a vertex set) appears more than once."""


class DanglingVertexIndex(HarmonicPortsError):
    """A simplex references a vertex index outside the coordinate array."""


class IsolatedVertex(UsageError):
    """A vertex lies in no top simplex, so no Whitney form lives on it."""


class NonOrientable(HarmonicPortsError):
    """No consistent orientation exists, or the given one is inconsistent."""


class NonManifold(HarmonicPortsError):
    """A face with more than two cofaces, or a vertex or edge with a bad link."""


class OverflowInExactArithmetic(NumericalFailure):
    """Exact integer elimination would exceed its work budget: the stored
    nonzeros plus the fill the elimination creates, or the size of an
    intermediate entry."""


class UnsupportedResolution(UsageError):
    """A mesh generator was asked for a resolution it cannot triangulate."""


class DegreeOutOfRange(UsageError):
    """A cochain degree lies outside 0..n for the complex at hand."""


class FactorizationFailure(NumericalFailure):
    """A matrix factorization (Cholesky/LU/eigen) did not succeed."""


class DegreeMismatch(UsageError):
    """Two cochains (or a cochain and an operator) have incompatible degrees."""


class ComplexMismatch(UsageError):
    """Operands live on different simplicial complexes."""


class AmbiguousKernel(NumericalFailure):
    """The spectral gap between kernel and non-kernel eigenvalues is too
    small to count harmonic fields reliably."""


class NotInHarmonicComplement(HarmonicPortsError):
    """A cochain expected to be orthogonal to the harmonic space is not."""


class InvalidDegrees(UsageError):
    """A degree pair (p, q) does not satisfy p + q = n + 1 with 1 <= p, q <= n."""


class WrongDimension(UsageError):
    """An operation requires a complex of a different dimension."""


class SolverFailure(NumericalFailure):
    """A linear solve did not reach the required residual."""
