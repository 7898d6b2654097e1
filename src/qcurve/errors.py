"""Exception types shared across the package."""


class DomainError(ValueError):
    """A parameter or operand lies outside the domain of an operation."""


class ModulusRangeError(DomainError):
    """The modulus is outside the supported range: a prime p > 3 of at most
    128 bits."""


class NotPrimeError(DomainError):
    """The modulus is composite: it has a prime factor up to 37, or fails
    Lucas-Lehmer (a Mersenne number 2^q - 1) or Baillie-PSW (any other)."""


class NotInertError(DomainError):
    """The chosen extension generator is a square, so F_{p^2} degenerates."""


class FieldMismatchError(DomainError):
    """An operand belongs to a different field."""


class ParseError(DomainError):
    """Text does not spell a field element "a+b*i"."""


class ResidueClassError(DomainError):
    """The prime is in the wrong residue class for the requested family."""


class DegenerateParameterError(DomainError):
    """The parameter value produces a singular or excluded curve."""


class OffCurveError(DomainError):
    """A point does not satisfy the curve equation it was used with."""


class KernelError(DomainError):
    """A kernel description does not define a subgroup of the stated order."""


class StructureError(DomainError):
    """The group or lattice structure is inconsistent with the requested basis
    variant, or a lattice computation got degenerate input."""


class SubgroupPointError(DomainError):
    """Every seed tried gave a point that the cofactor sends to infinity."""


class UntabulatedError(DomainError):
    """The library has no family, CM fiber table or model for the degree d,
    or no j-invariant for the discriminant."""


class OracleGuardError(DomainError):
    """The prime is too large for exhaustive point enumeration."""


class SupersingularError(DomainError):
    """The curve is supersingular, so no eigenvalue machinery applies."""


class TraceError(DomainError):
    """A supplied trace is inconsistent with the curve family."""


class MapPoleError(DomainError):
    """A model map was evaluated at one of its exceptional points."""


class CofactorError(DomainError):
    """A search cofactor filter is not a positive integer."""
