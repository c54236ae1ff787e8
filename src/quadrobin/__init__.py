"""Robin eigenvalue machinery on a four-parameter family of quadrilaterals.

Modules by concern:

- ``geometry``:      the parameter family, piecewise linear maps, Hausdorff
                     distance to the equal-area square
- ``square_exact``:  closed-form first eigenpair on the rotated square
- ``mesh``:          symmetric crisscross triangulation of the square
- ``assembly``:      pullback / direct finite-element forms
- ``solver``:        lowest-eigenpair solves for the assembled pencils
- ``sensitivity``:   eigenvalue gradients and Hessians in (a1, a2, c, S1)
- ``certificates``:  closed-form comparison certificates against the square
- ``cli``:           the ``quadrobin`` command-line tool
- ``oracles``:       independent cross-checks that the runtime never imports

Only the finite-element path loads scipy: ``assembly`` and ``solver`` import
it inside the functions that call it.  So importing the package, and the
closed-form commands (``certify``, ``solve-square``, ``verify-theorem3``),
start with numpy alone.
"""

from .geometry import EDGE_IDS, EdgeId, QuadParams
from .mesh import Mesh, build_mesh
from .solver import solve_quad
from .square_exact import SquareSolution, solve_square

__version__ = "0.1.0"

__all__ = [
    "EDGE_IDS",
    "EdgeId",
    "Mesh",
    "QuadParams",
    "SquareSolution",
    "build_mesh",
    "solve_quad",
    "solve_square",
    "__version__",
]
