import numpy as np
import pytest

from distcost.gramian import build_bundle
from distcost.models import admire
from distcost.systems import StabilizationTask


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
