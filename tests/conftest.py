import warnings
from pathlib import Path

import numpy as np
import pytest

from ftcbf.simulator import SystemModel

# Hypothesis imports libcst when it reports a failing example, and libcst's
# import raises "mypy_extensions.TypedDict is deprecated". Under
# filterwarnings = error that turns the report into an INTERNALERROR that
# hides the example, so import libcst here once, with only that import's
# deprecation warnings ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass

REPO = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO / "scenarios"


@pytest.fixture(scope="session")
def wmr_yaml():
    return SCENARIO_DIR / "wmr.yaml"


@pytest.fixture(scope="session")
def boeing_yaml():
    return SCENARIO_DIR / "boeing.yaml"


def integrator_model(n=2, sigma=0.0, nu=0.0):
    """f = 0, g = I: every channel directly actuated."""
    return SystemModel.linear(np.zeros((n, n)), np.eye(n), np.eye(n),
                              sigma * np.eye(n), nu * np.eye(n))


def random_stable_model(rng, n, p, q=None, sigma=0.05, nu=0.05):
    q = q or n
    F = rng.uniform(-1, 1, (n, n)) - 1.5 * np.eye(n)
    G = rng.uniform(-1, 1, (n, p))
    c = rng.uniform(-1, 1, (q, n))
    return SystemModel.linear(F, G, c, sigma * np.eye(n), nu * np.eye(q))
