"""Exception types shared across the package."""

# the longest input an error message repeats in full
_ECHO = 40


def echo(text: str) -> str:
    """``text`` quoted for an error message: in full up to ``_ECHO``
    characters, else its first ``_ECHO`` characters and its length."""
    if len(text) <= _ECHO:
        return repr(text)
    return f"{text[:_ECHO]!r}... ({len(text)} characters)"


class JetFramesError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrixError(JetFramesError):
    """Matrix inversion was requested for a matrix with zero determinant."""


class CompositionDomainError(JetFramesError):
    """Two jets were composed whose base/value points do not chain."""


class NotAFrameError(JetFramesError):
    """Jet data does not satisfy the frame invertibility conditions."""


class ParseError(JetFramesError):
    """A JSON document does not match the expected schema."""


class GroupMismatchError(JetFramesError):
    """An operation received elements of the wrong group tag."""


class KindMismatchError(JetFramesError):
    """A projection was applied to a frame of an incompatible kind."""
