"""Exception hierarchy shared across the toolkit."""


class BisetkitError(Exception):
    """Base class for all toolkit errors."""


class InvalidTable(BisetkitError):
    """A multiplication table fails the group axioms."""


class NotNormal(BisetkitError):
    """A subgroup required to be normal is not."""


class NotSubgroup(BisetkitError):
    """A member set is not a subgroup of the stated parent."""


class OrderBound(BisetkitError):
    """A computation was requested beyond its configured order bound."""


class OutOfCatalog(BisetkitError):
    """groups_of_order was asked for an order outside the catalog."""


class InterfaceMismatch(BisetkitError):
    """Adjacent factors of a composition word do not share a group."""


class MiddleMismatch(BisetkitError):
    """Two morphisms being composed disagree on the middle group."""


class FactorMismatch(BisetkitError):
    """Two three-factor objects disagree on a shared factor."""


class NotDivisor(BisetkitError):
    """kernel_of_reduction needs n to divide m."""


class NotAbelian(BisetkitError):
    """Artin coefficients are only computed over abelian groups."""


class NonRationalValues(BisetkitError):
    """A character expected to be rational-valued is not."""


class NotCentral(BisetkitError):
    """A homomorphism required to land in the center does not."""


class NotAutomorphism(BisetkitError):
    """A map required to be an automorphism is not."""


class PreconditionViolated(BisetkitError):
    """An operation's structural precondition does not hold."""


class FoundBridge(BisetkitError):
    """no_bridge_check found a subgroup contradicting the prime-order corollary."""


class OracleInconsistent(BisetkitError):
    """An orbit oracle found an orbit whose size and stabilizer disagree."""


class CharacterTableError(BisetkitError):
    """A computed character table fails its count, degree or orthogonality check."""


class AuditFailed(BisetkitError):
    """A fact that a construction checks step by step does not hold."""
