"""Joint numerical ranges of Hermitian pencils and their convex geometry.

The package traces boundary-generating point clouds of joint numerical
ranges through eigenvector contact data, fits dual hypersurfaces to
tangent functionals, and certifies hyperbolicity cone duality claims
numerically.  Everything is seeded and deterministic by construction.
"""

__version__ = "0.1.0"

from numrange.linalg import (
    GaussianRational,
    HermitianMatrix,
    MatrixPencil,
    EigenSystem,
    DensityMatrix,
    eig_hermitian,
    pairing,
    sample_pure_state,
    sample_mixed_state,
)
from numrange.poly import (
    MultiPoly,
    charpoly,
    hyperbolicity_check,
    check_multiplicity_lemma,
    restrict_to_line,
)
from numrange.hulls import ConvexHull, convex_hull_2d, convex_hull_3d
from numrange.ranges import (
    BoundaryCloud,
    DirectionGrid,
    direction_grid,
    trace_boundary_cloud,
    degenerate_patches,
    support_function,
    verify_main_theorem,
)
from numrange.dual import (
    SymmetricForm,
    quadric_dual,
    sample_variety_points,
    dual_fit,
    verify_dual_form,
    central_point_probe,
)
from numrange.cones import (
    ConeSpec,
    make_cone_spec,
    cone_membership,
    dual_cone_membership,
    normal_ray,
)
