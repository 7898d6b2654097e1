"""Elliptic curves over F_{p^2} with fast endomorphisms from conjugate
isogenies, and the scalar decompositions they enable."""

from .errors import (
    CofactorError,
    DegenerateParameterError,
    DomainError,
    FieldMismatchError,
    KernelError,
    MapPoleError,
    ModulusRangeError,
    NotInertError,
    NotPrimeError,
    OffCurveError,
    OracleGuardError,
    ParseError,
    ResidueClassError,
    StructureError,
    SubgroupPointError,
    SupersingularError,
    TraceError,
    UntabulatedError,
)
from .fields import FieldCtx, Fp2, format_fp2, is_probable_prime, legendre, parse_fp2
from .weierstrass import (
    INFINITY,
    Curve,
    Point,
    curve_points,
    oracle_order,
    oracle_trace,
    random_point,
)
from .isogeny import Isogeny, post_twist, velu_quotient
from .families import (
    Endo,
    FamilyCurve,
    build_family_curve,
    determine_r,
    eigenvalue,
    epsilon_p,
    gls_endo,
    group_orders,
)
from .glv import (
    Decomposition,
    GlvBasis,
    cofactor_basis,
    decompose,
    lagrange_reduce,
    multiexp2,
    reduced_lattice_basis,
    sublattice_basis,
)
from .models import (
    DikCurve,
    EdwardsCurve,
    MontgomeryCurve,
    XZPoint,
    ladder,
    psi_montgomery,
    to_dik,
    to_edwards,
    to_montgomery,
)
from .cmtables import CmFiber, cm_fibers, detect_cm

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
