"""Exception hierarchy for the gdmux package."""


class GdmError(Exception):
    """Base class for all gdmux errors."""


class InvalidParams(GdmError):
    """System parameters violate a structural constraint (primality, N | p^m - 1, ...)."""


class NonInvertible(GdmError):
    """Inversion requested of zero or of a zero divisor of GI(p^m)."""


class NotAUnit(GdmError):
    """Multiplicative order requested of an element outside the unit group."""


class NoSuchRoot(GdmError):
    """No element of the requested multiplicative order exists (N does not divide p^m - 1)."""


class NoRationalization(GdmError):
    """Carriers cannot be reduced to one real dimension (-1 is a non-residue)."""


class NotCoprime(GdmError):
    """Coset computation requires gcd(N, p) = 1."""


class NotGroundField(GdmError):
    """An inverse transform produced values outside GF(p); the input was not a valid spectrum."""


class UnsupportedParams(GdmError):
    """The compiled design of these parameters would exceed the memory budget."""


class InconsistentFrame(GdmError):
    """A received frame's leader values violate the conjugacy closure of their orbit."""


class ExtensionNotEmbeddable(GdmError):
    """Constellation embedding is defined for m = 1 only."""


class FrameFormatError(GdmError):
    """Base class for wire-format errors."""


class BadMagic(FrameFormatError):
    """Frame does not start with the GDM1 magic."""


class BadLength(FrameFormatError):
    """Frame is truncated or has trailing bytes."""


class ParamMismatch(FrameFormatError):
    """Frame header disagrees with the expected system parameters."""
