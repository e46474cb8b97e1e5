"""The one tensor budget: `hamiltonian.DEFAULT_MAX_TENSOR_ENTRIES`, read at
call time by every holder of tensors, which asks it before it samples."""

import json
import tracemalloc

import numpy as np
import pytest

from spinlab import ensembles, hamiltonian
from spinlab.ensembles import (
    CorrelationLadder,
    OverlapLadder,
    TreeShape,
    load_manifest,
    sample_ensemble,
    save_manifest,
    target_overlap_matrix,
)
from spinlab.errors import ResourceError
from spinlab.hamiltonian import load_snapshot, sample_hamiltonian, save_snapshot
from spinlab.mixture import pure
from spinlab.ogp import constrained_grand_max, estimate_chi, run_branching_experiment
from spinlab.optimizers import lipschitz_probe
from spinlab.runner import run

M2 = pure(2)
N = 4  # a p2 tensor holds 16 entries


def _half(h, seed):
    return np.full(h.n, 0.5)


def _manifest(tmp_path):
    save_manifest(sample_ensemble(M2, N, TreeShape((2,)), CorrelationLadder((0.0, 1.0)), seed=0), tmp_path)
    return lambda: load_manifest(tmp_path)


def _branching(tmp_path):
    shape, pladder, qladder = TreeShape((2, 2)), CorrelationLadder((0.0, 0.5, 1.0)), OverlapLadder((0.0, 0.5, 1.0))
    return lambda: run_branching_experiment(_half, M2, N, shape, pladder, qladder, None, 1, 0)


# holder -> (the p2 tensors it holds at once, a builder of the call)
HOLDERS = {
    "pair reps": (5, lambda tmp_path: lambda: estimate_chi(_half, M2, N, (0.0, 0.5, 1.0), 10, 0)),
    "lipschitz probe": (3, lambda tmp_path: lambda: lipschitz_probe(_half, M2, N, 1e-3, 2, 0)),
    "branching": (7, _branching),  # 6 nodes and a leaf
    "manifest": (2, _manifest),
}


@pytest.mark.parametrize("holder", HOLDERS)
def test_every_holder_asks_the_budget_before_it_samples(holder, tmp_path, monkeypatch):
    """One entry below the holder's footprint it refuses before any tensor is
    drawn or snapshot read; at its footprint it runs."""
    tensors, build = HOLDERS[holder]
    call = build(tmp_path)
    reads = []

    def counted(fn):
        def wrapped(*args, **kwargs):
            reads.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(hamiltonian, "sample_tensors", counted(hamiltonian.sample_tensors))
    monkeypatch.setattr(ensembles, "load_snapshot", counted(ensembles.load_snapshot))
    footprint = tensors * N**2
    monkeypatch.setattr(hamiltonian, "DEFAULT_MAX_TENSOR_ENTRIES", footprint - 1)
    with pytest.raises(ResourceError, match=f"hold {footprint} tensor entries, over the budget of {footprint - 1}$"):
        call()
    assert reads == []
    monkeypatch.setattr(hamiltonian, "DEFAULT_MAX_TENSOR_ENTRIES", footprint)
    call()
    assert reads


def test_lipschitz_probe_holds_no_more_than_it_counts():
    """From the second perturbation on, the probe still holds only the base,
    one perturbation and its perturbed copy: the three tensors it asks the
    budget for (512 KiB each at n = 256)."""
    n = 256
    tracemalloc.start()
    try:
        lipschitz_probe(_half, M2, n, 1e-3, 3, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * n**2 * 8


def test_one_patched_limit_moves_every_check(tmp_path, monkeypatch):
    """Patching the limit in `hamiltonian` alone refuses every holder: each of
    these fits the real budget, and each is over a limit of 10 entries, most
    of them only in total (a p2 tensor at n = 2 holds 4)."""
    snapshot = tmp_path / "h.bin"
    save_snapshot(sample_hamiltonian(M2, N, 0), snapshot)
    shape = TreeShape((2,))
    ens = sample_ensemble(M2, 2, shape, CorrelationLadder((0.0, 1.0)), seed=0)
    q_target = target_overlap_matrix(shape, OverlapLadder((0.0, 1.0)))
    monkeypatch.setattr(hamiltonian, "DEFAULT_MAX_TENSOR_ENTRIES", 10)
    refused = {
        "sample_hamiltonian": lambda: sample_hamiltonian(M2, N, 0),
        "load_snapshot": lambda: load_snapshot(snapshot),
        "sample_ensemble": lambda: sample_ensemble(M2, 2, TreeShape((3,)), CorrelationLadder((0.0, 1.0)), 0),
        "constrained_grand_max": lambda: constrained_grand_max(ens, q_target, np.zeros(2), 0.2, 1, 0),
        "optimize": lambda: run({"subcommand": "optimize", "mixture": "p2", "n": 2, "seeds": [0, 1, 2], "workers": 3},
                                out_dir=str(tmp_path / "optimize")),
        "sandwich": lambda: run({"subcommand": "sandwich", "n": 2, "restarts": 1}, out_dir=str(tmp_path / "sandwich")),
        "chi": lambda: run({"subcommand": "chi", "n": 2, "reps": 10}, out_dir=str(tmp_path / "chi")),
        "pde": lambda: run({"subcommand": "pde", "grid": [1.0, 0.01]}, out_dir=str(tmp_path / "pde")),
    }
    for name, call in refused.items():
        with pytest.raises(ResourceError, match="over the budget of 10$"):
            call()
        assert not (tmp_path / name).exists(), name


def test_a_shape_is_counted_before_it_is_listed(tmp_path, monkeypatch):
    """`TreeShape.n_nodes` counts the nodes without listing them, and every
    budget check on a shape runs on that count.  With ks = [1000, 1000] (10^6
    leaves, 1 001 000 p2 nodes at n = 16) each holder refuses before it forms
    a node or leaf list, which the patched lists would refuse above 10^4
    leaves."""
    ks = [1000, 1000]
    shape = TreeShape(tuple(ks))

    def guarded(lister):
        def listed(self):
            assert self.n_leaves <= 10**4, f"{lister.__name__} of {self.ks} formed before the budget check"
            return lister(self)

        return listed

    for name in ("nodes", "leaves"):
        monkeypatch.setattr(TreeShape, name, guarded(getattr(TreeShape, name)))
    claimed = {"ks": ks, "pladder": [0.0, 0.5, 1.0], "mixture": {"gammas": {"2": 1.0}, "h": 0.0}, "n": 16, "seed": 0,
               "nodes": [{"path": [1], "snapshot": "node_1.bin"}]}
    (tmp_path / "manifest").mkdir()
    (tmp_path / "manifest" / "manifest.json").write_text(json.dumps(claimed))
    calls = {
        "branching": lambda: run({"subcommand": "branching", "n": 16, "ks": ks}, out_dir=str(tmp_path / "branching")),
        "sandwich": lambda: run({"subcommand": "sandwich", "n": 16, "restarts": 1, "ks": ks},
                                out_dir=str(tmp_path / "sandwich")),
        "sample_ensemble": lambda: sample_ensemble(M2, 16, shape, CorrelationLadder((0.0, 0.5, 1.0)), 0),
        "load_manifest": lambda: load_manifest(tmp_path / "manifest"),
    }
    for name, call in calls.items():
        with pytest.raises(ResourceError, match="tensor entries, over the budget of"):
            call()
        assert not (tmp_path / name).exists(), name
    monkeypatch.undo()
    assert shape.n_nodes == 1000 + 1000 * 1000
    assert TreeShape((3, 2, 4)).n_nodes == len(TreeShape((3, 2, 4)).nodes()) == 3 + 6 + 24
