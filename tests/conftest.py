import os

import numpy as np
import pytest

from spinlab import hamiltonian, rng


@pytest.fixture
def gen():
    return rng.stream(20260810, "tests")


@pytest.fixture
def fake_cpus(monkeypatch):
    """fake_cpus(k) pretends the process may use k CPUs and returns the list
    of the sizes of the thread pools `pool_map` starts from then on."""
    pools = []

    class Recording(hamiltonian.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(hamiltonian, "ThreadPoolExecutor", Recording)

    def use(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
        return pools

    return use


def coefficients(h):
    """Disorder vector g(H): the tensors concatenated in ascending-p order."""
    return np.concatenate([h.tensors[p].ravel() for p in h.mixture.ps])


def finite_difference_gradient(f, x, step=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        out[i] = (f(x + e) - f(x - e)) / (2 * step)
    return out
