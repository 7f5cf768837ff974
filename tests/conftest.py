"""Shared builders for random instances at desk scale, and the
``--no-compiler`` option."""

import numpy as np
import pytest

from gpris import _kernel
from gpris.channel import ChannelEstimate, _cn_vector
from gpris.metrics import PhaseShifts, Precoder


def pytest_addoption(parser):
    parser.addoption("--no-compiler", action="store_true",
                     help="hide the C compiler for the whole session, so "
                          "every stage runs its numpy loop")


def pytest_configure(config):
    if config.getoption("--no-compiler"):
        _kernel.find_compiler = lambda: None
        _kernel._library.cache_clear()


def cn(shape, rng):
    """CN(0,1) array."""
    return _cn_vector(shape, rng)


def rand_precoder(n, k, rng, power=1.0):
    f = cn((n, k), rng)
    f = np.sqrt(power) * f / np.linalg.norm(f)
    return Precoder(f)


def rand_phases(l, m, rng):
    return PhaseShifts(np.exp(2j * np.pi * rng.uniform(size=(l, m))),
                       projected=True)


def rand_psd(dim, rng, scale=1.0):
    g = cn((dim, dim + 2), rng)
    return scale * (g @ g.conj().T) / dim


def rand_estimate(n, k, l, m, rng, err=0.05, dense=False):
    """Random ChannelEstimate; isotropic error scale by default."""
    cascaded = cn((k, l, n, m), rng)
    if dense:
        err_dense = [[rand_psd(n * m, rng, scale=err) for _ in range(l)]
                     for _ in range(k)]
        return ChannelEstimate(cascaded, err_dense=err_dense)
    return ChannelEstimate(cascaded, err_scale=err * np.ones((k, l)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
