"""The replica pool: the pooled replica loops run on `hamiltonian.pool_map`
at the width of `replica_width`, and the width changes no bit of any
output."""

import json
import sys
import threading

import numpy as np
import pytest

from spinlab import hamiltonian, optimizers, rng
from spinlab.ensembles import CorrelationLadder, OverlapLadder, TreeShape
from spinlab.hamiltonian import pool_map, replica_width
from spinlab.mixture import Mixture
from spinlab.ogp import run_branching_experiment
from spinlab.runner import point_algorithm, run

_SUBCOMMANDS = {
    "chi": {"subcommand": "chi", "mixture": "p2+p4", "n": 12, "reps": 10},
    "concentration": {"subcommand": "concentration", "n": 16},
    "sandwich": {"subcommand": "sandwich", "n": 16, "restarts": 3},
    "branching": {"subcommand": "branching", "n": 16},
    "branching_amp": {"subcommand": "branching", "n": 16, "alg": {"name": "amp"}},
    # above the dense-Hessian cap: every Subag step is a Lanczos solve
    "branching_subag": {"subcommand": "branching", "n": 520, "alg": {"name": "subag", "delta": 0.5}},
    # workers 1: the seeds run one at a time, each filling its two tensors on the pool
    "optimize": {"subcommand": "optimize", "mixture": "p2+p4", "n": 16, "seeds": [0, 1, 2]},
}


def _written(config, out):
    """run.json's results and the bytes of every CSV, by file name."""
    run(config, out_dir=str(out))
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    return json.loads((out / "run.json").read_text())["results"], files


@pytest.mark.parametrize("name", sorted(_SUBCOMMANDS))
def test_outputs_are_byte_identical_at_every_pool_width(name, tmp_path, fake_cpus):
    written = []
    for width in (1, 2, 3):
        pools = fake_cpus(width)
        pools.clear()
        results, files = _written(_SUBCOMMANDS[name], tmp_path / f"w{width}")
        assert all(size <= width for size in pools)
        assert bool(pools) == (width > 1)  # every subcommand here has a pooled loop
        written.append((json.dumps(results), files))
    assert written[0] == written[1] == written[2]


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64).tobytes()


def _branching_bits(reports):
    out = []
    for rep in reports:
        out += [_bits(list(rep.leaf_energies.values())), _bits(rep.overlap_matrix), _bits(rep.grand_energy)]
        ext = rep.extension
        out += [_bits(ext["overlap_matrix"]), _bits(list(ext["energy_change"].values()))]
        out += [_bits(x) for x in ext["points"].values()]
    return out


@pytest.mark.parametrize("reps", (1, 2))  # pooled leaves and extension energies, one rep after another
def test_branching_with_the_extension_is_bit_identical_at_every_pool_width(fake_cpus, reps):
    m = Mixture({2: 0.7, 4: 0.5}, h=0.1)
    shape = TreeShape((2, 2))
    pladder = CorrelationLadder((0.0, 0.4, 1.0))
    qladder = OverlapLadder((0.0, 0.3, 1.0))
    alg = point_algorithm({"name": "gradient_ascent", "steps": 3})
    got = []
    for width in (1, 2, 3):
        pools = fake_cpus(width)
        pools.clear()
        reports = run_branching_experiment(alg, m, 10, shape, pladder, qladder, 0.1, reps, 5, extend=True)
        got.append(_branching_bits(reports))
        assert all(size <= width for size in pools) and bool(pools) == (width > 1)
    assert got[0] == got[1] == got[2]


def test_a_pool_map_on_a_pool_thread_runs_inline(fake_cpus):
    pools = fake_cpus(4)
    threads = {}

    def inner(i, j):
        threads[i, j] = threading.current_thread()
        return 10 * i + j

    def outer(i):
        threads[i] = threading.current_thread()
        return pool_map(lambda j: inner(i, j), range(3))

    assert pool_map(outer, range(2)) == [[0, 1, 2], [10, 11, 12]]
    assert pools == [2]  # the outer pool alone
    assert all(threads[i, j] is threads[i] for i in range(2) for j in range(3))
    assert threads[0] is not threading.current_thread()
    # a thread of an ended pool is gone, so the next call pools again
    assert pool_map(lambda j: j, range(3)) == [0, 1, 2] and pools == [2, 3]


def test_pool_map_raises_the_first_failing_item_in_order(fake_cpus):
    fake_cpus(3)

    def fail(i):
        if i >= 1:
            raise ValueError(f"item {i}")
        return i

    with pytest.raises(ValueError, match="item 1"):
        pool_map(fail, range(4))


def test_replica_width_follows_the_cpus_and_the_tensor_budget(fake_cpus, monkeypatch):
    budget = hamiltonian.DEFAULT_MAX_TENSOR_ENTRIES
    fake_cpus(8)
    assert replica_width(5, 0) == 5  # no tensor: the items and the CPUs bound it
    assert replica_width(20, 0) == 8
    assert replica_width(20, 0, workers=3) == 3
    assert replica_width(5, budget // 4) == 4
    assert replica_width(5, budget // 4, held=budget // 2) == 2
    assert replica_width(5, budget) == 1
    assert replica_width(5, 1, held=2 * budget) == 1  # at least 1, even over the budget
    assert replica_width(0, 7) == 1


def test_branching_leaves_shrink_to_fit_the_budget(fake_cpus, monkeypatch):
    """Six nodes and a leaf fit a budget of 7 leaves' entries, and 8 fit two
    leaves at once: the leaf pool is 1 wide, then 2, with equal outputs."""
    m = Mixture({4: 1.0})
    n = 6
    shape, pladder, qladder = TreeShape((2, 2)), CorrelationLadder((0.0, 0.5, 1.0)), OverlapLadder((0.0, 0.5, 1.0))
    alg = point_algorithm({"name": "gradient_ascent", "steps": 2})
    pools = fake_cpus(4)
    got = []
    for leaves_held in (7, 8):
        monkeypatch.setattr(hamiltonian, "DEFAULT_MAX_TENSOR_ENTRIES", leaves_held * n**4)
        pools.clear()
        (rep,) = run_branching_experiment(alg, m, n, shape, pladder, qladder, None, 1, 3)
        got.append(_bits(list(rep.leaf_energies.values())) + _bits(rep.overlap_matrix))
        # the node tensors fill on one pool of 4; the leaves take the rest
        assert pools == [4] + ([2] if leaves_held == 8 else [])
    assert got[0] == got[1]


def test_pooled_chi_with_amp_fills_the_state_evolution_once(tmp_path, fake_cpus, monkeypatch):
    original = rng.stream
    fills = []

    def stream(*labels):
        if labels[1:] == ("amp-se",):
            fills.append(labels)
        return original(*labels)

    monkeypatch.setattr(rng, "stream", stream)
    config = {"subcommand": "chi", "n": 16, "reps": 10, "alg": {"name": "amp"}}
    written = []
    for width in (1, 2):
        pools = fake_cpus(width)
        pools.clear()
        fills.clear()
        written.append(_written(config, tmp_path / f"w{width}"))
        assert len(fills) == 1
        assert pools == ([] if width == 1 else [2])
    assert written[0] == written[1]


def test_state_evolution_fills_once_under_a_stress_of_threads(monkeypatch):
    """Eight threads on a fresh AmpSpec, released together with a short
    switch interval: the Monte Carlo runs once and all get the one entry."""
    original = rng.stream
    fills = []

    def stream(*labels):
        if labels[1:] == ("amp-se",):
            fills.append(labels)
        return original(*labels)

    monkeypatch.setattr(rng, "stream", stream)
    spec = optimizers.AmpSpec(fs=[lambda *xs: np.clip(xs[-1], -1.0, 1.0)] * 3, lipschitz=[1.0] * 3, horizon=3)
    m = Mixture({2: 1.0, 4: 0.5})
    start = threading.Barrier(8)
    got = []

    def fill():
        start.wait(timeout=10)
        got.append(optimizers.state_evolution(spec, m))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fill) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8 and all(entry is got[0] for entry in got)
    assert len(fills) == 1
