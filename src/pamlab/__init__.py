"""pamlab: a desk-scale numerical laboratory for the lattice parabolic
Anderson model with Dirichlet boundary conditions and the boundary-killed
branching random walk in random environment."""

__version__ = "0.1.0"

from .lattice import (  # noqa: F401
    FLAVORS,
    Field,
    LatticeSpec,
    TorusField,
    even_extension,
    extend,
    odd_extension,
    restrict,
)
from .environment import (  # noqa: F401
    EnhancedEnvironment,
    NoiseRealization,
    build_environment,
    enhance,
    sample_noise,
)
from .solver import (  # noqa: F401
    EigenPair,
    PamProblem,
    Trajectory,
    principal_eigenpair,
    semigroup_apply,
    solve_dual_fkpp,
    solve_linear_pam,
)
