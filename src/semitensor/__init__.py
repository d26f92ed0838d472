"""Semi-tensor product/addition algebra on identity-equivalence quotient spaces."""

from .matrix import (
    ABS_FLOOR,
    DEFAULT_RTOL,
    FLOAT64,
    RATIONAL,
    Matrix,
    allocated_elems,
    eq_within,
    from_rows,
    identity,
    kron,
    scale,
    to_rational,
    zeros,
)
from .stp import lminus, lplus, ltimes, ratio_of, rminus, rplus, rtimes
from .quotient import (
    MatrixClass,
    canonicalize,
    class_add,
    class_mul,
    class_sub,
    equivalent,
    lie_bracket,
    scalar_mul,
    try_unkron,
    zero_class,
)
from .basis import (
    BasisElement,
    Coordinates,
    decompose_class,
    decompose_unit,
    enumerate_basis,
    in_span,
    independent,
    reconstruct,
    unit_class,
)
from .metric import (
    CauchyConfig,
    GapReport,
    cauchy_sequence,
    dist,
    fill_value,
    gap_reports,
    inner,
    nonconvergence_probe,
    norm,
    predicted_gap,
    tail_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
