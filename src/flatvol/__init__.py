"""flatvol: volumes of moduli spaces of flat connections on surfaces.

Exact root-system arithmetic, the truncated-power kappa by three
independent exact evaluators, Weyl characters, lattice kappa-sum / toric /
character-series volume formulas that cross-validate each other, a
Monte-Carlo holonomy oracle, and a reproducible CLI.
"""

from .characters import (
    CharacterValue,
    DominantWeight,
    character_eval,
    enumerate_dominant,
    weyl_dimension,
)
from .exact import Q, Vec, vec
from .kappa import (
    DegenerateArrangementError,
    DiffOperator,
    KappaValue,
    OnWallError,
    PiecewisePolynomial,
    SymmetricPoly,
    kappa_build,
    kappa_point,
    pullback_operator,
)
from .liecore import (
    Alcove,
    GroupSpec,
    RootSystem,
    UnsupportedTypeError,
    WeylElement,
    alcove_membership,
    build_root_system,
    covolume_T,
    enumerate_waff_positive,
    star,
    volume_G,
)
from .mc import (
    ClassHistogram,
    haar_sample,
    product_class_histogram,
    shape_compare,
)
from .moduli import (
    ConvergenceError,
    Marking,
    SignedToricTerm,
    Surface,
    UnsupportedDecompositionError,
    VolumeReport,
    conjugacy_volume,
    convention_stamp,
    glue_volume,
    mixed_characteristic_number,
    moduli_dimension,
    pants_volume_kappa,
    pants_volume_poly,
    sphere_volume_kappa,
    toric_decomposition,
    witten_volume,
)

__version__ = "0.1.0"
