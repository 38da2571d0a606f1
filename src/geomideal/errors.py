"""The exceptions the command line maps to exit codes.

UsageError exits 2, SceneVerificationError and ImproperIntersectionError
exit 3, ResourceCapError exits 4.  Any other exception is an internal error:
the CLI lets it propagate instead of reporting it as a verdict.
"""


class UsageError(ValueError):
    """The request does not fit the scene: a block the command needs is
    missing, or an argument is not the kind of object the operation takes."""


class SceneVerificationError(ValueError):
    """Declared scene data failed verification (a decomposition, a flag, or
    a point that must lie on a declared subscheme)."""


class ImproperIntersectionError(ValueError):
    """Raised when a multiplicity total is requested for a non-finite meet."""


class ResourceCapError(RuntimeError):
    """An iteration or size cap was exceeded."""
