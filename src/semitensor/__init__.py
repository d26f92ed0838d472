"""Semi-tensor product/addition algebra on identity-equivalence quotient spaces."""

from types import ModuleType as _ModuleType

from .matrix import (
    ABS_FLOOR,
    DEFAULT_RTOL,
    FLOAT64,
    RATIONAL,
    Matrix,
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

# The public names, without the submodules that the imports above bind.
__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _ModuleType)]
