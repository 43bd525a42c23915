"""pencilorbits: exact arithmetic for integral orbits of pairs of symmetric
matrices attached to rational points on hyperelliptic curves z^2 = f(x, y),
orbit statistics over R and F_p, and numerical local density bounds."""

from types import ModuleType as _ModuleType

from .forms import (
    BinaryForm,
    FactorizationType,
    UnimodularMatrix2,
    discriminant,
    evaluate,
    factorization_type_mod_p,
    height,
    real_root_count,
    sl2_act,
)
from .rings import (
    AlgebraElement,
    BasedIdeal,
    RankNRing,
    SquareClassVerdict,
    algebra_mul,
    algebra_norm,
    ideal_norm,
    ideal_power_basis,
    norm_linear,
    ring_discriminant,
    ring_from_form,
    ring_multiply,
    same_square_class,
    spans_equal,
    to_zeta_coords,
)
from .orbits import (
    CurvePoint,
    SymmetricPair,
    construction_ideal,
    gl_act,
    invariant_form,
    pair_from_ideal,
    pair_from_point,
    sl2_act_on_pair,
    template_pair,
    transported_construction_class,
    verify_pair_data,
    x_minus_T,
)
from .finite_fields import (
    OrbitStats,
    count_pairs_with_form,
    orbit_statistics_prediction,
    sl_n_order,
    square_value_count,
)
from .densities import (
    DensityReport,
    archimedean_factor,
    density_bound,
    genus0_product,
    irreducible_form_count,
    mu_8,
    mu_p,
    mu_real,
    zeta_identity_gap,
)
from .search import (
    SurveyRecord,
    locally_soluble_R,
    locally_soluble_everywhere,
    locally_soluble_p,
    rational_point_search,
    survey,
)

__version__ = "0.1.0"

# the names imported above, not the submodules that importing them binds
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
