"""Exception types raised by the library.

Every error below derives from :class:`HarmonicPortsError` so callers can
catch the whole family with one clause.  The CLI maps these onto process
exit codes: validation and identity failures exit 1, numerical failures
(:class:`FactorizationFailure`, :class:`AmbiguousKernel`,
:class:`OverflowInExactArithmetic`, :class:`SolverFailure`) exit 2, and
I/O or usage problems exit 3.
"""


class HarmonicPortsError(Exception):
    """Base class for all library errors."""


class DuplicateSimplex(HarmonicPortsError):
    """The same top simplex (as a vertex set) appears more than once."""


class DanglingVertexIndex(HarmonicPortsError):
    """A simplex references a vertex index outside the coordinate array."""


class NonOrientable(HarmonicPortsError):
    """No consistent orientation of the top simplices exists."""


class OverflowInExactArithmetic(HarmonicPortsError):
    """Exact integer elimination would exceed its work budget: the stored
    nonzeros plus the fill the elimination creates, or the size of an
    intermediate entry."""


class UnsupportedResolution(HarmonicPortsError):
    """A mesh generator was asked for a resolution it cannot triangulate."""


class DegreeOutOfRange(HarmonicPortsError):
    """A cochain degree lies outside 0..n for the complex at hand."""


class FactorizationFailure(HarmonicPortsError):
    """A matrix factorization (Cholesky/LU/eigen) did not succeed."""


class DegreeMismatch(HarmonicPortsError):
    """Two cochains (or a cochain and an operator) have incompatible degrees."""


class ComplexMismatch(HarmonicPortsError):
    """Operands live on different simplicial complexes."""


class AmbiguousKernel(HarmonicPortsError):
    """The spectral gap between kernel and non-kernel eigenvalues is too
    small to count harmonic fields reliably."""


class NotInHarmonicComplement(HarmonicPortsError):
    """A cochain expected to be orthogonal to the harmonic space is not."""


class InvalidDegrees(HarmonicPortsError):
    """A degree pair (p, q) does not satisfy p + q = n + 1 with 1 <= p, q <= n."""


class WrongDimension(HarmonicPortsError):
    """An operation requires a complex of a different dimension."""


class SolverFailure(HarmonicPortsError):
    """A linear solve did not reach the required residual."""
