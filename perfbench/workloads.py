"""The benchmark's workloads.

A workload is a list of replicas. Replica i's inputs come only from
(workload seed, i) through the benchmark's own generator, and spinlab sees
only those inputs. A replica is a list of steps: `run` is the work, made
through spinlab's public API, and `check` verifies its outputs against
invariants and known values that hold for any seed.

Every spinlab function is looked up at call time (`sl.energy`, not a name
bound at import), so the tracer's wrappers see the calls.
"""

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

import spinlab as sl
from spinlab import ensembles, runner, ultrametric

SK_ALG_IS = 0.763  # acceptance criterion 5: ALG for xi = x^2/2
SK_ALG_IS_TOL = 0.01
SUBAG_P2_TOL = 0.15  # acceptance criterion 9: Subag p2 endpoint vs N lambda_max
KNOTS = 8  # alg_is_numeric knot count
GH_NODES = 128  # fine Parisi solves; sharp slices need more than 64 nodes
# The solvers' default half-width |h| + 6 sqrt(xi'(1)) + 2 at the top of the
# parisi mixture family below (gamma_2 0.75, gamma_4 0.45, h 0.3), with the
# default steps of alg_is_numeric (0.04) and of solve_parisi_pde (0.002): one
# grid of each kind for every replica, so a replica's cost and peak memory do
# not follow its draw.
ALG_GRID = (10.65, 0.04)
FINE_GRID = (10.65, 0.002)
TREE_KS = (2, 2)  # ensemble tree shape


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    limit: float
    ok: bool


def at_most(name, value, limit):
    value = float(value)
    return Check(name, value, float(limit), bool(value <= limit))


def _gen(seed, index):
    return np.random.default_rng([seed, index])


def _unit_sphere_point(gen, n):
    v = gen.standard_normal(n)
    return v * (math.sqrt(n) / np.linalg.norm(v))


@dataclass(frozen=True)
class Ascent:
    """Derivative-heavy: many energy/gradient/Hessian calls per sampled tensor.

    Each replica runs the `optimize` subcommand (p4 Subag ascent on the dense
    Hessian path, CSV and JSON artifacts), then Subag ascent on a p2
    Hamiltonian above the dense-Hessian cap (Lanczos on Hessian-vector
    products) and a greedy energy embedding of a star tree over it.
    """

    n4: int = 64
    n2: int = 640
    delta: float = 0.05
    star: int = 3
    embed_delta: float = 0.125
    NOMINAL_S = (7.8,)  # replica seconds on the reference machine

    def inputs(self, seed, index):
        g = _gen(seed, index)
        return {
            "runner_seed": int(g.integers(2**31)),
            "p2_seed": int(g.integers(2**62)),
            "ascent_seed": int(g.integers(2**62)),
            "embed_seed": int(g.integers(2**62)),
        }

    def steps(self, spec, workdir):
        return [
            (lambda: self._optimize(spec, workdir), self._check_optimize),
            (lambda: self._lanczos(spec), self._check_lanczos),
        ]

    def _optimize(self, spec, workdir):
        config = {
            "subcommand": "optimize",
            "mixture": "p4",
            "n": self.n4,
            "seed": spec["runner_seed"],
            "workers": 1,
            "alg": {"name": "subag", "delta": self.delta, "mode": "top_eig"},
        }
        return runner.run(config, out_dir=workdir)

    def _check_optimize(self, result):
        csv_path = next(p for p in result.artifacts if p.endswith(".csv"))
        with open(csv_path) as f:
            rows = list(csv.reader(line for line in f if not line.startswith("#")))[1:]
        energies = [float(r[1]) for r in rows]
        norms = [float(r[2]) for r in rows]
        run = result.payload["runs"][0]
        steps = round(1 / self.delta)
        return [
            at_most("optimize exit status", result.status, 0),
            at_most("optimize steps recorded vs 1/delta", abs(len(rows) - steps), 0),
            at_most("optimize schedule |x_i|^2 - i delta", _schedule_error(norms, self.delta), 1e-10),
            at_most(
                "optimize run.json final energy vs CSV",
                abs(run["final_energy_per_n"] - energies[-1] / self.n4),
                1e-12 * max(1.0, abs(energies[-1])),
            ),
        ]

    def _lanczos(self, spec):
        h = sl.sample_hamiltonian(sl.pure(2), self.n2, spec["p2_seed"])
        traj = sl.subag_ascent(h, self.delta, "top_eig", seed=spec["ascent_seed"])
        tree = ultrametric.star_tree(self.star)
        emb, _energies, _profile = sl.embed_energy_greedy(
            h, tree, self.embed_delta, seed=spec["embed_seed"]
        )
        return h, traj, tree, emb

    def _check_lanczos(self, out):
        h, traj, tree, emb = out
        n = h.n
        energy_err = max(
            abs(e - sl.energy(h, x)) / max(1.0, abs(e)) for x, e in zip(traj.iterates, traj.energies)
        )
        g = h.tensors[2]
        lam = float(np.linalg.eigvalsh(0.5 * (g + g.T))[-1]) / math.sqrt(n)
        ratio = traj.final_energy / n / lam
        ok, (worst, _label) = sl.validate_embedding(tree, emb, tol=1e-6)
        return [
            at_most("subag p2 schedule |x_i|^2 - i delta", _schedule_error(traj.norms_sq(), self.delta), 1e-10),
            at_most("subag p2 recorded energy vs energy()", energy_err, 1e-9),
            at_most("subag p2 endpoint |ratio to lambda_max - 1|", abs(ratio - 1.0), SUBAG_P2_TOL),
            Check("embedding validates (worst violation)", worst, 1e-6, bool(ok)),
        ]


def _schedule_error(norms, delta):
    return max(abs(v - (i + 1) * delta) for i, v in enumerate(norms))


def _folded_normal_mean(mu, s):
    """E|mu + s Z|: the Ising functional at zeta = 0 in closed form."""
    return s * math.sqrt(2 / math.pi) * math.exp(-mu * mu / (2 * s * s)) + mu * math.erf(
        mu / (s * math.sqrt(2))
    )


@dataclass(frozen=True)
class Parisi:
    """Parisi/ALG-Ising only; no Hamiltonian is built.

    Replica 0 minimizes the Ising functional for SK; later replicas do the
    same for a p2+p4 mixture with a field drawn from a bounded family. Many
    cheap coarse-grid solves sit beside a few fine ones: each replica also
    solves on a fine grid (the solver's default step) with the node-doubling
    self-check, once at finite beta (terminal-quadrature path), and runs the
    shift identity.
    """

    grid: tuple = ALG_GRID  # alg_is_numeric grid (L, dx)
    NOMINAL_S = (7.8, 13.5)

    def inputs(self, seed, index):
        g = _gen(seed, index)
        if index == 0:
            gammas, h = {2: math.sqrt(0.5)}, 0.0
        else:
            gammas = {2: float(g.uniform(0.6, 0.75)), 4: float(g.uniform(0.3, 0.45))}
            h = float(g.uniform(0.1, 0.3))
        # Narrow families: the grids, quadrature panels and node counts of the
        # solves follow these inputs, and with them a replica's time and
        # memory, so wide ones would spread wall_s and peak_rss_mb by seed.
        breaks = (0.0, float(g.uniform(0.2, 0.4)), float(g.uniform(0.5, 0.7)))
        return {
            "gammas": gammas,
            "h": h,
            "zeta": (breaks, tuple(float(v) for v in g.uniform(0.2, 1.0, 3))),
            "beta": float((4.0, 8.0, 16.0, 32.0)[int(g.integers(4))]),
            "a": float(g.uniform(-0.5, 0.5)),
            "x": float(g.uniform(-0.5, 0.5)),
            "sk": index == 0,
        }

    def steps(self, spec, workdir):
        m = sl.Mixture(spec["gammas"], h=spec["h"])
        zeta = sl.PiecewiseZeta(*spec["zeta"])
        return [
            (lambda: self._alg(m), lambda v: self._check_alg(spec, m, v)),
            (lambda: self._fine(m, zeta, spec["beta"]), lambda out: self._check_fine(spec, m, out)),
            (
                lambda: sl.shift_identity_check(m, zeta, spec["a"], spec["x"], gh_nodes=GH_NODES),
                lambda r: [at_most("shift identity residual", r, 1e-4)],
            ),
        ]

    def _alg(self, m):
        return sl.alg_is_numeric(m, knots=KNOTS, grid=self.grid, sweeps_min=1, sweeps_max=1)

    def _check_alg(self, spec, m, value):
        zero = _folded_normal_mean(m.h, math.sqrt(m.xi(1.0, 1)))
        checks = [at_most("ALG-Ising value - zeta=0 closed form", value - zero, 1e-6)]
        if spec["sk"]:
            checks.append(at_most("ALG-Ising SK |value - 0.763|", abs(value - SK_ALG_IS), SK_ALG_IS_TOL))
        return checks

    def _fine(self, m, zeta, beta):
        fine = sl.solve_parisi_pde(m, zeta, grid=FINE_GRID, center=m.h, gh_nodes=GH_NODES)
        finite = sl.solve_parisi_pde(
            m, zeta, beta=beta, grid=FINE_GRID, center=m.h, gh_nodes=GH_NODES, self_check=False
        )
        return fine, finite

    def _check_fine(self, spec, m, out):
        fine, finite = out
        gap = abs(finite.eval(0.0, m.h) - fine.eval(0.0, m.h))
        return [
            at_most("fine solve self_check_delta", fine.meta["self_check_delta"], 1e-6),
            # log(2cosh(beta x))/beta - |x| lies in [0, log 2 / beta]
            at_most("finite-beta gap to beta=inf", gap, math.log(2.0) / spec["beta"] + 1e-5),
        ]


@dataclass(frozen=True)
class Ensemble:
    """Sampling- and memory-heavy: writes tensors, snapshots and leaves.

    Each replica samples a p2+p4 tree-correlated ensemble, round-trips it
    through a manifest on disk, then runs a branching experiment (which
    samples its own ensemble and materializes every leaf) with a short
    gradient ascent and the sphere extension.
    """

    n: int = 48
    ga_steps: int = 10
    NOMINAL_S = (4.3,)

    def inputs(self, seed, index):
        g = _gen(seed, index)
        return {
            "gammas": {2: float(g.uniform(0.5, 0.9)), 4: float(g.uniform(0.3, 0.7))},
            "h": float(g.uniform(0.0, 0.3)),
            "p1": float(g.uniform(0.2, 0.8)),
            "q1": float(g.uniform(0.2, 0.7)),
            "ensemble_seed": int(g.integers(2**62)),
            "branching_seed": int(g.integers(2**62)),
            "point_seed": int(g.integers(2**62)),
        }

    def steps(self, spec, workdir):
        m = sl.Mixture(spec["gammas"], h=spec["h"])
        shape = sl.TreeShape(TREE_KS)
        pladder = sl.CorrelationLadder((0.0, spec["p1"], 1.0))
        qladder = sl.OverlapLadder((0.0, spec["q1"], 1.0))
        manifest = os.path.join(workdir, "manifest")

        def round_trip():
            ens = sl.sample_ensemble(m, self.n, shape, pladder, spec["ensemble_seed"])
            ensembles.save_manifest(ens, manifest)
            return [ens, ensembles.load_manifest(manifest)]

        def branching():
            return sl.run_branching_experiment(
                self._ascent, m, self.n, shape, pladder, qladder, 0.1, 1,
                spec["branching_seed"], extend=True,
            )

        return [
            (round_trip, lambda out: self._check_round_trip(spec, out)),
            (branching, self._check_branching),
        ]

    def _ascent(self, h, seed):
        x0 = 0.5 * _unit_sphere_point(np.random.default_rng(seed), h.n)
        return sl.gradient_ascent(h, x0, self.ga_steps, 0.05).final

    def _check_round_trip(self, spec, out):
        # The sampled ensemble is dropped once compared, so the leaves
        # materialised below do not raise the peak RSS above the step's own.
        same = _bit_identical(out.pop(0), out[0])
        loaded = out[0]
        gen = np.random.default_rng(spec["point_seed"])
        worst = 0.0
        for u in loaded.leaves():
            x = _unit_sphere_point(gen, loaded.n)
            direct = sl.energy(loaded.leaf_hamiltonian(u), x)
            worst = max(worst, abs(loaded.leaf_energy(u, x) - direct) / max(1.0, abs(direct)))
        return [
            Check("manifest round trip bit-identical", float(not same), 0.0, bool(same)),
            at_most("leaf_energy vs energy(leaf_hamiltonian), relative", worst, 1e-9),
        ]

    def _check_branching(self, reports):
        ext = reports[0].extension
        sphere = max(abs(float(x @ x) / x.size - 1.0) for x in ext["points"].values())
        dev = ext["max_deviation"]
        return [
            at_most("extended points off the sphere", sphere, 1e-9),
            Check("extension overlap deviation is finite", dev, math.inf, bool(math.isfinite(dev))),
        ]


def _bit_identical(ens, loaded):
    same = (
        ens.shape == loaded.shape
        and ens.ladder == loaded.ladder
        and ens.mixture == loaded.mixture
        and (ens.n, ens.seed) == (loaded.n, loaded.seed)
        and ens.node_hams.keys() == loaded.node_hams.keys()
    )
    for node, h in ens.node_hams.items():
        other = loaded.node_hams[node]
        same = same and h.mixture == other.mixture and h.seed == other.seed
        for p, t in h.tensors.items():
            u = other.tensors[p]
            same = (
                same
                and t.shape == u.shape
                and t.dtype == u.dtype
                and np.array_equal(t.view(np.uint64), u.view(np.uint64))
            )
    return same


WORKLOADS = {"ascent": Ascent(), "parisi": Parisi(), "ensemble": Ensemble()}


def replica_count(workload, seconds):
    """The replica count whose nominal run time is closest to `seconds`
    (ties go to more replicas). The count, and so the work, depends only on
    the workload and `seconds`, never on how fast the machine is."""
    costs = workload.NOMINAL_S
    total, k = 0.0, 0
    while True:
        longer = total + costs[min(k, len(costs) - 1)]
        if k >= 1 and abs(longer - seconds) > abs(total - seconds):
            return k
        total, k = longer, k + 1
