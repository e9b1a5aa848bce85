import os

import numpy as np
import pytest

from finpow import LatticeModelParams, lattice_spec, periodic_policy

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def pytest_configure(config):
    # Subprocesses such as `python -m finpow` import the same tree the tests do.
    paths = [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))


@pytest.fixture
def unit_lattice():
    """The a=1, b=1 lattice model: stencil (-1, 3, -1), envelope (1, 5, 0)."""
    params = LatticeModelParams(1.0, 1.0)
    return params, lattice_spec(params), periodic_policy(params)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
