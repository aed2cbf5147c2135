"""Reference objects the tests check pamlab against and pamlab itself does
not use."""

import numpy as np

from pamlab.lattice import LatticeSpec
from pamlab.solver import PotentialEnvironment


def zero_environment(spec: LatticeSpec) -> PotentialEnvironment:
    """The potential xi_e = 0: the Dirichlet heat flow."""
    return PotentialEnvironment(spec, np.zeros(spec.shape))


def constant_environment(spec: LatticeSpec, c: float) -> PotentialEnvironment:
    """The potential xi_e = c everywhere: the heat flow times e^{ct}."""
    return PotentialEnvironment(spec, np.full(spec.shape, float(c)))
