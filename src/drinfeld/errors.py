"""Exception taxonomy shared by all drinfeld submodules."""


class DrinfeldError(Exception):
    """Base class for all errors raised by this package."""


class RingMismatchError(DrinfeldError):
    """Operands belong to different coefficient rings or fields."""


class ZeroInputError(DrinfeldError):
    """An operation that requires a nonzero input received zero."""


class NotMonicError(DrinfeldError):
    """A monic polynomial was required."""


class NotIrreducibleError(DrinfeldError):
    """A prime (irreducible) modulus was required."""


class SingularMatrixError(DrinfeldError):
    """The matrix is singular over the fraction field."""


class BadReductionError(DrinfeldError):
    """The module does not have good reduction at the given prime."""


class CoprimalityError(DrinfeldError):
    """Arguments that must be coprime share a common factor."""


class RankError(DrinfeldError):
    """The operation is restricted to a different rank."""


class EvenCharacteristicError(DrinfeldError):
    """Operation needs q odd (division by 2 in F_q)."""


class ResourceLimitError(DrinfeldError):
    """A configured degree or iteration cap was exceeded."""


class InconclusiveBasisError(DrinfeldError):
    """The endomorphism-lattice search exhausted its stabilization window
    without certifying a basis; no wrong answer is returned in this case."""


class ConfigurationError(DrinfeldError):
    """No valid configuration (e.g. auxiliary moduli) within the budget."""


class TowerMembershipError(DrinfeldError):
    """An element does not lie in a registered extension of the needed field."""


class UsageError(DrinfeldError):
    """Command-line usage error."""


class StrictModeError(DrinfeldError):
    """A survey record failed a required check under ``--strict``."""
