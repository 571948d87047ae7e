"""Exception hierarchy shared by all ddcrit modules."""


class DdcritError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(DdcritError):
    pass


class EvenPrime(DdcritError):
    pass


class NotInSubfield(DdcritError):
    pass


class OrderNotDividing(DdcritError):
    pass


class NotCoprime(DdcritError):
    pass


class SpecMismatch(DdcritError):
    pass


class NotOrbitClosed(DdcritError):
    pass


class ZeroRoot(DdcritError):
    pass


class RepeatedRoot(DdcritError):
    pass


class InvalidQuadruple(DdcritError):
    pass


class BadSupport(DdcritError):
    pass


class WrongDegree(DdcritError):
    pass


class VanishesAtZero(DdcritError):
    pass


class NotSquarefree(DdcritError):
    pass


class ResidueNotPrimeField(DdcritError):
    """A residue of dt/(f t^(u~+1)) falls outside the prime field, so f
    cannot carry the logarithmic structure required by the criterion."""


class ReconstructionMismatch(DdcritError):
    pass


class NonSquareSystem(DdcritError):
    """The power-sum system has a different number of exponents than orbit
    representatives, so the isolation determinant is undefined."""


class NotAField(DdcritError):
    """Internal error: a splitting in F_{p^D} failed, which happens only
    when the canonical modulus of F_{p^D} is reducible."""


class LevelTooHigh(DdcritError):
    pass


class NotStandardForm(DdcritError):
    pass


class MixedClasses(DdcritError):
    pass


class InvalidProfile(DdcritError):
    pass


class ExtensionCapExceeded(DdcritError):
    pass


class EssentialRamification(DdcritError):
    pass


class BadCongruence(DdcritError):
    pass


class InconsistentRadii(DdcritError):
    """Internal error: lifting radii out of their required order."""


class PruningMismatch(DdcritError):
    """Internal error: the pruned witness search accepted an f that the
    criterion's own ddc check rejects."""
