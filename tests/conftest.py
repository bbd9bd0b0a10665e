import numpy as np
import pytest
import scipy.linalg

from distcost.gramian import build_bundle
from distcost.models import admire
from distcost.systems import LtiSystem, StabilizationTask


def expm_nodes(A):
    """s -> e^{A s_k} for every node s_k, shape (nodes, n, n).

    One eigendecomposition A = V diag(lam) V^-1 gives every node as
    V diag(e^{lam s_k}) V^-1; when V is too ill-conditioned for that
    (cond(V) > 1e8), each node takes its own scipy expm. Independent
    oracles use it in place of one expm call per node.
    """
    lam, V = np.linalg.eig(A)
    if np.linalg.cond(V) > 1e8:
        return lambda s: np.stack([scipy.linalg.expm(A * sk) for sk in s])
    V_inv = np.linalg.inv(V)
    return lambda s: ((V * np.exp(np.outer(s, lam))[:, None, :]) @ V_inv).real


def metzler_system(seed, n=12, p=4):
    """A seeded Metzler A (nonnegative off-diagonal) with a stable
    diagonal, the shape of the horizons benchmark model, and a Gaussian B."""
    rng = np.random.default_rng(seed)
    A = np.abs(rng.standard_normal((n, n))) / np.sqrt(n)
    A[np.diag_indices(n)] = -3.0 + 0.3 * rng.standard_normal(n)
    return LtiSystem(A, rng.standard_normal((n, p)), name=f"metzler{seed}")


@pytest.fixture(scope="session")
def jet():
    return admire()


@pytest.fixture(scope="session")
def jet_x0():
    x0 = np.array([5.0, -1.0, 3.0])
    x0.setflags(write=False)
    return x0


@pytest.fixture(scope="session")
def jet_bundle_5(jet):
    return build_bundle(jet, 5.0)


@pytest.fixture(scope="session")
def jet_bundle_half(jet):
    return build_bundle(jet, 0.5)


@pytest.fixture(scope="session")
def jet_task_5(jet_x0):
    return StabilizationTask(x0=jet_x0, t_f=5.0, w_bar=1.0)
