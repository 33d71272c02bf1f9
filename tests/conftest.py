import threading

import numpy as np
import pytest

from glocal import (chain_1d, cube_grid_3d, fine_equals_global_2d,
                    imbalanced_grid, monolithic_reference, two_patch_2d)


@pytest.fixture(autouse=True)
def no_stray_threads():
    """Fail a test that leaves Python threads running after it ends."""
    before = set(threading.enumerate())
    yield
    stray = [t.name for t in threading.enumerate() if t not in before]
    if stray:
        pytest.fail(f"threads still running after the test: {stray}")


@pytest.fixture(scope="session")
def chain():
    return chain_1d()


@pytest.fixture(scope="session")
def two_patch_thermal():
    return two_patch_2d("thermal")


@pytest.fixture(scope="session")
def two_patch_elastic():
    return two_patch_2d("elasticity")


@pytest.fixture(scope="session")
def cube2_thermal():
    return cube_grid_3d(2, "thermal")


@pytest.fixture(scope="session")
def imbalanced_thermal():
    return imbalanced_grid("thermal", seed=0)


@pytest.fixture(scope="session")
def fine_eq_thermal():
    return fine_equals_global_2d("thermal")


@pytest.fixture(scope="session")
def fine_eq_elastic():
    return fine_equals_global_2d("elasticity")


@pytest.fixture(scope="session")
def oracle_thermal(two_patch_thermal):
    return monolithic_reference(two_patch_thermal)


@pytest.fixture(scope="session")
def oracle_elastic(two_patch_elastic):
    return monolithic_reference(two_patch_elastic)


def rel_err(u, u_ref):
    return float(np.linalg.norm(u - u_ref) / np.linalg.norm(u_ref))
