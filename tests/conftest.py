import math

import numpy as np
import pytest

from gausszeros.models import (SpectralDensity, get_model,
                               normalize_from_spectral_density)

PRESET_NAMES = ("bargmann-fock", "sinc-sqrt3", "cauchy")


@pytest.fixture(scope="session")
def bf():
    return get_model("bargmann-fock")


@pytest.fixture(scope="session")
def sinc():
    return get_model("sinc-sqrt3")


@pytest.fixture(scope="session")
def cauchy():
    return get_model("cauchy")


@pytest.fixture(scope="session")
def presets(bf, sinc, cauchy):
    return {"bargmann-fock": bf, "sinc-sqrt3": sinc, "cauchy": cauchy}


@pytest.fixture(scope="session")
def table():
    """A small normalized table model: a bumped gaussian with a gaussian tail."""
    xi = np.linspace(0.0, 3.0, 13)
    g = np.exp(-0.5 * xi * xi) * (1.0 + 0.3 * np.cos(2.0 * xi))
    raw = SpectralDensity(xi=xi, g=g, tail_kind="gaussian",
                          tail_params=(g[-1] * math.exp(4.5), 0.5))
    return normalize_from_spectral_density(raw, label="bumped-table")


@pytest.fixture()
def rng():
    return np.random.default_rng(20260809)
