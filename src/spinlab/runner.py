"""Batch experiment runner: a JSON config (or CLI flags) in, reproducible
JSON/CSV artifacts out.

Subcommands: thresholds, optimize, chi, concentration, branching, sandwich,
embed, pde, selftest.  Each handler returns its results and CSV artifacts;
`run` alone writes run.json.  Re-running a config byte-reproduces every
numeric payload; timings and timestamps (among them selftest's per-criterion
seconds) live only under the "meta" key.  A selftest criterion name that
matches no criterion exits 2 before any criterion runs.  A run that raises
removes the output directories it made, so a refused run leaves none.
"""

import json
import math
import os
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from jsonschema import Draft202012Validator

from . import rng
from .ensembles import (
    CorrelationLadder,
    OverlapLadder,
    TreeShape,
    chi_align,
    sample_ensemble,
    target_overlap_matrix,
)
from .errors import ArgumentError, NumericError, ResourceError
from .hamiltonian import DEFAULT_MAX_TENSOR_ENTRIES, check_budget, energy, sample_hamiltonian
from .mixture import Mixture
from .ogp import (
    check_chi_properties,
    constrained_grand_max,
    estimate_chi,
    overlap_concentration,
    run_branching_experiment,
)
from .optimizers import (
    AmpSpec,
    Trajectory,
    amp,
    export_trajectory_csv,
    gradient_ascent,
    langevin,
    lipschitz_probe,
    subag_ascent,
)
from .parisi import (
    PiecewiseZeta,
    alg_is_numeric,
    alg_sp,
    interpolation_bound_sp,
    opt_sp_numeric,
    solve_parisi_pde,
)
from .parisi.interpolation import composite_profile
from .parisi.pde import _parisi_value
from .points import project_ball, sphere_point
from .ultrametric import (
    embed_energy_greedy,
    embedding_to_csv,
    full_binary_tree,
    star_tree,
    tree_from_json,
    validate_embedding,
)

SUBCOMMANDS = (
    "thresholds",
    "optimize",
    "chi",
    "concentration",
    "branching",
    "sandwich",
    "embed",
    "pde",
    "selftest",
)

SCHEMA = {
    "type": "object",
    "required": ["subcommand"],
    "additionalProperties": False,
    "properties": {
        "subcommand": {"enum": list(SUBCOMMANDS)},
        "mixture": {
            "oneOf": [
                {"type": "string"},
                {
                    "type": "object",
                    "required": ["gammas"],
                    "properties": {
                        "gammas": {"type": "object"},
                        "h": {"type": "number", "minimum": 0},
                    },
                },
            ]
        },
        "n": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
        "seeds": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
        "out": {"type": "string"},
        "workers": {"type": "integer", "minimum": 1, "maximum": 64},
        "alg": {"type": "object"},
        "delta": {"type": "number"},
        "eta": {"type": "number"},
        "reps": {"type": "integer", "minimum": 1},
        "p": {"type": "number"},
        "p_grid": {"type": "array", "items": {"type": "number"}},
        "lambda": {"type": "number"},
        "ks": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "pladder": {"type": "array", "items": {"type": "number"}},
        "qladder": {"type": "array", "items": {"type": "number"}},
        "zeta": {
            "type": "object",
            "required": ["breaks", "values"],
            "properties": {
                "breaks": {"type": "array", "items": {"type": "number"}},
                "values": {"type": "array", "items": {"type": "number"}},
            },
        },
        "beta": {"type": "number"},
        "a": {"type": "number"},
        "grid": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
        "knots": {"type": "integer", "enum": [8 * 2**k for k in range(7)]},  # alg_is_levels doubles from 8
        "ising": {"type": "boolean"},
        "tree": {
            "type": ["object", "string"],
            "properties": {
                "star": {"type": "integer", "minimum": 1},
                "binary": {"type": "integer", "minimum": 1},
            },
        },
        "restarts": {"type": "integer", "minimum": 1},
        "C": {"type": "number"},
        "B": {"type": "number"},
        "criteria": {"type": "array"},
        "chi": {"type": "string"},
    },
}


# The concentration run's Lipschitz probe: the disorder perturbation scale
# (small, so the ratio measures the local slope) and the number of perturbations.
LIPSCHITZ_EPS = 1e-3
LIPSCHITZ_REPS = 4


@dataclass
class RunResult:
    status: int
    payload: dict
    artifacts: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)  # written beside the timestamp


def parse_mixture(spec) -> Mixture:
    """"p4" -> pure quartic; "p2+p4" sums; dict {"gammas": {...}, "h": ...}."""
    if isinstance(spec, Mixture):
        return spec
    if isinstance(spec, str):
        gammas = {}
        for term in spec.split("+"):
            coef, star, name = term.strip().rpartition("*")
            try:
                if not name.startswith("p"):
                    raise ValueError(name)
                p, coef = int(name[1:]), float(coef) if star else 1.0
            except ValueError:
                raise ArgumentError(
                    f"bad mixture term {term!r} (want e.g. 'p4' or '0.5*p2')"
                ) from None
            gammas[p] = gammas.get(p, 0.0) + coef
        return Mixture(gammas)
    try:
        gammas = {int(p): float(g) for p, g in spec["gammas"].items()}
        hfield = float(spec.get("h", 0.0))
    except (AttributeError, KeyError, TypeError, ValueError):
        raise ArgumentError(
            f"bad mixture {spec!r} (want {{'gammas': {{p: number, ...}}, 'h': number}})"
        ) from None
    return Mixture(gammas, h=hfield)


def _dump17(obj, indent=0):
    """JSON text with floats at 17 significant digits (bit-faithful); a
    non-finite float raises NumericError, as JSON cannot hold it."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_dump17(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_dump17(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (np.floating, float)):
        if not math.isfinite(obj):
            raise NumericError(f"non-finite value {float(obj)} has no JSON form")
        return format(float(obj), ".17g")
    if isinstance(obj, (np.integer, int)):
        return str(int(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def write_run_json(path, config, results, meta=None):
    payload = {
        "config": config,
        "results": results,
        "meta": {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), **(meta or {})},
    }
    text = _dump17(payload)  # before the file opens, so a refused payload leaves none
    with open(path, "w") as f:
        f.write(text + "\n")


def _matrix_csv(path, mat):
    np.savetxt(path, np.asarray(mat), delimiter=",", fmt="%.17g")


def map_replicas(fn, seeds, workers: int = 1):
    """Apply fn(seed) over replica seeds; results come back in input order, so
    the output is identical whatever the worker count."""
    if workers <= 1:
        return [fn(s) for s in seeds]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, seeds))


def _gradient_ascent(spec):
    steps, lr = int(spec.get("steps", 10)), float(spec.get("lr", 0.05))
    start_scale = float(spec.get("start_scale", 0.5))

    def alg(h, seed):
        x0 = sphere_point(rng.stream(seed, "ga-x0").standard_normal(h.n)) * start_scale
        return gradient_ascent(h, x0, steps, lr)

    return alg


def _subag(spec):
    delta, mode = float(spec.get("delta", 0.125)), spec.get("mode", "top_eig")
    return lambda h, seed: subag_ascent(h, delta, mode, seed=seed)


def _langevin(spec):
    beta, horizon = float(spec.get("beta", 1.0)), float(spec.get("horizon", 0.5))
    dt, r = float(spec.get("dt", 0.01)), float(spec.get("r", 1.0))
    return lambda h, seed: langevin(h, beta, horizon, dt, r=r, seed=seed)


def _amp(spec):
    horizon = int(spec.get("horizon", 2))

    def alg(h, seed):
        # one AmpSpec per call, so replica threads share no state-evolution cache;
        # clipping keeps |f_t|_N <= 1, so every gradient stays inside the sqrt(2) ball
        clip = AmpSpec(fs=[lambda *xs: np.clip(xs[-1], -1.0, 1.0)] * horizon,
                       lipschitz=[1.0] * horizon, horizon=horizon)
        return amp(h, clip, seed=seed)

    return alg


def _one_point(name, point):
    """One-iterate trajectory; its energy is taken on B_N, as AMP records it."""

    def alg(h, seed):
        x = point(h)
        return Trajectory([x], [energy(h, project_ball(x, 1.0))], name, seed=seed)

    return alg


def _constant(spec):
    value = float(spec.get("value", 0.5))
    return _one_point("constant", lambda h: np.full(h.n, value))


def _coef_linear(spec):
    scale = float(spec.get("scale", 0.8))
    return _one_point("coef_linear", lambda h: scale * h.coefficients[: h.n])


ALGORITHMS = {
    "gradient_ascent": _gradient_ascent,
    "subag": _subag,
    "langevin": _langevin,
    "amp": _amp,
    "constant": _constant,
    "coef_linear": _coef_linear,
}


def build_algorithm(spec: dict):
    """The algorithm table: spec {"name": ..., params} -> (h, seed) -> Trajectory."""
    name = spec.get("name")
    if name not in ALGORITHMS:
        raise ArgumentError(f"unknown algorithm {name!r} (known: {', '.join(ALGORITHMS)})")
    return ALGORITHMS[name](spec)


def point_algorithm(spec: dict):
    """(h, seed) -> final iterate, the form the overlap experiments take."""
    traj = build_algorithm(spec)
    return lambda h, seed: traj(h, seed).final


def _chi_fn(name: str):
    table = {
        "identity": lambda p: p,
        "square": lambda p: p * p,
        "linear_scaled": lambda p: 0.64 * p,
    }
    if name not in table:
        raise ArgumentError(f"unknown chi function {name!r}")
    return table[name]


def validate_config(config: dict):
    validator = Draft202012Validator(SCHEMA)
    errors = sorted(validator.iter_errors(config), key=lambda e: e.path)
    if errors:
        err = errors[0]
        path = "/".join(str(p) for p in err.path) or "<root>"
        raise ArgumentError(f"config field {path}: {err.message}")


def _outermost_missing(path):
    """The outermost directory on the way to `path` that does not exist yet
    (path itself included), or None when path exists."""
    path, missing = os.path.abspath(path), None
    while not os.path.lexists(path):
        path, missing = os.path.dirname(path), path
    return missing


def run(config: dict, out_dir=None) -> RunResult:
    """Dispatch a validated config and write its run.json; returns the exit
    status, the payload and the artifacts, run.json last."""
    validate_config(config)
    sub = config["subcommand"]
    out = out_dir or config.get("out") or f"runs/{sub}"
    handler = {
        "thresholds": _run_thresholds,
        "optimize": _run_optimize,
        "chi": _run_chi,
        "concentration": _run_concentration,
        "branching": _run_branching,
        "sandwich": _run_sandwich,
        "embed": _run_embed,
        "pde": _run_pde,
        "selftest": _run_selftest,
    }[sub]
    made = _outermost_missing(out)
    os.makedirs(out, exist_ok=True)
    try:
        result = handler(config, out)
        path = os.path.join(out, "run.json")
        write_run_json(path, config, result.payload, result.meta)
    except Exception:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise
    result.artifacts.append(path)
    return result


def _run_thresholds(config, out):
    m = parse_mixture(config.get("mixture", "p4"))
    value, regime, q_hat = alg_sp(m)
    results = {
        "alg_sp": {"value": value, "regime": regime, "q_hat": q_hat},
        "opt_sp_numeric": opt_sp_numeric(m),
        "mixture": {"gammas": m.gammas, "h": m.h},
    }
    if config.get("ising"):
        results["alg_is_numeric"] = alg_is_numeric(m, knots=int(config.get("knots", 8)))
    return RunResult(0, results)


def _run_optimize(config, out):
    m = parse_mixture(config.get("mixture", "p4"))
    n = int(config.get("n", 64))
    seeds = config.get("seeds", [int(config.get("seed", 0))])
    alg_spec = config.get("alg", {"name": "subag", "delta": 0.125})
    workers = int(config.get("workers", 1))
    alg = build_algorithm(alg_spec)
    concurrent = min(workers, len(seeds))
    if concurrent > 1:
        # every concurrent replica holds its own tensors
        check_budget(m, n)
        entries = concurrent * sum(n**p for p in m.ps)
        if entries > DEFAULT_MAX_TENSOR_ENTRIES:
            raise ResourceError(
                f"{concurrent} concurrent replicas hold {entries} tensor entries,"
                f" over the budget of {DEFAULT_MAX_TENSOR_ENTRIES}"
            )

    def one(seed):
        h = sample_hamiltonian(m, n, rng.derive_seed(seed, "optimize"))
        return seed, alg(h, seed)

    artifacts = []
    summary = []
    for seed, traj in map_replicas(one, seeds, workers):
        csv_path = os.path.join(out, f"trajectory_seed{seed}.csv")
        export_trajectory_csv(traj, csv_path)
        artifacts.append(csv_path)
        summary.append(
            {"seed": seed, "final_energy_per_n": traj.final_energy / n, "steps": len(traj.iterates)}
        )
    results = {"algorithm": alg_spec, "n": n, "runs": summary}
    return RunResult(0, results, artifacts)


def _run_chi(config, out):
    m = parse_mixture(config.get("mixture", "p2"))
    n = int(config.get("n", 48))
    alg = point_algorithm(config.get("alg", {"name": "gradient_ascent"}))
    p_grid = tuple(config.get("p_grid", (0.0, 0.25, 0.5, 0.75, 1.0)))
    est = estimate_chi(
        alg, m, n, p_grid, int(config.get("reps", 20)), int(config.get("seed", 0)),
        algorithm_id=str(config.get("alg", {}).get("name", "")),
    )
    report = check_chi_properties(est)
    results = {
        "p_grid": list(est.p_grid),
        "chi_hat": list(est.chi_hat),
        "se": list(est.se),
        "classification": report.classification,
        "flags": report.flags,
    }
    csv_path = os.path.join(out, "chi.csv")
    _matrix_csv(csv_path, np.stack([est.p_grid, est.chi_hat, est.se]))
    return RunResult(0, results, [csv_path])


def _run_concentration(config, out):
    m = parse_mixture(config.get("mixture", "p2"))
    alg = point_algorithm(config.get("alg", {"name": "gradient_ascent"}))
    n, seed = int(config.get("n", 48)), int(config.get("seed", 0))
    rep = overlap_concentration(
        alg,
        m,
        n,
        float(config.get("p", 0.5)),
        int(config.get("reps", 30)),
        float(config.get("lambda", 0.2)),
        seed,
    )
    max_ratio, mean_ratio, _ = lipschitz_probe(alg, m, n, LIPSCHITZ_EPS, LIPSCHITZ_REPS, seed)
    results = {
        "mean": rep.mean,
        "sd": rep.sd,
        "fraction": rep.fraction,
        "wilson": list(rep.wilson),
        "lambda": rep.lam,
        "reps": rep.reps,
        "lipschitz": {
            "max_ratio": max_ratio,
            "mean_ratio": mean_ratio,
            "eps": LIPSCHITZ_EPS,
            "reps": LIPSCHITZ_REPS,
        },
    }
    return RunResult(0, results)


def _parse_ladders(config, m):
    shape = TreeShape(tuple(config.get("ks", (2, 2))))
    qladder = OverlapLadder(tuple(config.get("qladder", (0.0, 0.5, 1.0))))
    if "pladder" in config:
        pladder = CorrelationLadder(tuple(config["pladder"]))
    else:
        pladder = chi_align(_chi_fn(config.get("chi", "identity")), qladder)
    return shape, pladder, qladder


def _run_branching(config, out):
    m = parse_mixture(config.get("mixture", "p2"))
    n = int(config.get("n", 64))
    shape, pladder, qladder = _parse_ladders(config, m)
    alg = point_algorithm(config.get("alg", {"name": "gradient_ascent"}))
    reports = run_branching_experiment(
        alg,
        m,
        n,
        shape,
        pladder,
        qladder,
        float(config.get("eta", 0.1)),
        int(config.get("reps", 1)),
        int(config.get("seed", 0)),
    )
    artifacts = []
    rows = []
    for i, rep in enumerate(reports):
        rpath = os.path.join(out, f"overlap_rep{i}.csv")
        qpath = os.path.join(out, f"target_rep{i}.csv")
        _matrix_csv(rpath, rep.overlap_matrix)
        _matrix_csv(qpath, rep.target_matrix)
        artifacts.extend([rpath, qpath])
        rows.append(
            {
                "seed": rep.seed,
                "max_deviation": rep.max_deviation,
                "grand_energy_per_n": rep.grand_energy / n,
                "leaf_energies_per_n": {str(k): v / n for k, v in rep.leaf_energies.items()},
            }
        )
    results = {"ks": list(shape.ks), "pladder": list(pladder.ps), "qladder": list(qladder.qs), "reps": rows}
    return RunResult(0, results, artifacts)


def _run_sandwich(config, out):
    m = parse_mixture(config.get("mixture", "p2"))
    n = int(config.get("n", 48))
    shape, pladder, qladder = _parse_ladders(config, m)
    ens = sample_ensemble(m, n, shape, pladder, int(config.get("seed", 0)))
    q_mat = target_overlap_matrix(shape, qladder)
    anchor = np.zeros(n) if qladder.qs[0] == 0 else sphere_point(
        rng.stream(config.get("seed", 0), "anchor").standard_normal(n)
    ) * math.sqrt(qladder.qs[0])
    eta = float(config.get("eta", 0.2))
    primal = constrained_grand_max(
        ens, q_mat, anchor, eta, int(config.get("restarts", 3)), int(config.get("seed", 0))
    )
    beta = float(config.get("beta", 4.0))
    levels = np.linspace(0.2, 0.8, qladder.depth)
    zeta = PiecewiseZeta.on_knots(qladder.qs[:-1], levels)
    if "B" in config:
        b_val = float(config["B"])
    else:
        # B_zeta(0) of the composite is then the old default sqrt(max(xi''(1), 1))
        composite = composite_profile(PiecewiseZeta.zero(), zeta, beta, shape, pladder, qladder)
        b_val = math.sqrt(max(m.xi(1.0, 2), 1.0)) + composite.integral_xi2(m)
    bound = interpolation_bound_sp(
        b_val,
        PiecewiseZeta.zero(),
        zeta,
        beta,
        eta,
        shape,
        pladder,
        qladder,
        m,
        float(config.get("C", 1.0)),
        n,
    )
    # null without a feasible primal point: there is nothing to compare
    holds = None if primal.best_energy is None else primal.best_energy <= bound / shape.n_leaves
    results = {
        "primal_grand_energy_per_n": primal.best_energy,
        "primal_feasible": primal.feasible,
        "bound_per_n": bound / shape.n_leaves,
        "bound_total": bound,
        "sandwich_holds": holds,
    }
    return RunResult(0, results)


def _run_embed(config, out):
    m = parse_mixture(config.get("mixture", "p2"))
    n = int(config.get("n", 96))
    tree_cfg = config.get("tree", {"star": 3})
    if isinstance(tree_cfg, str):
        with open(tree_cfg) as f:
            tree = tree_from_json(f.read())
    elif "star" in tree_cfg:
        tree = star_tree(int(tree_cfg["star"]))
    elif "binary" in tree_cfg:
        tree = full_binary_tree(int(tree_cfg["binary"]))
    else:
        tree = tree_from_json(tree_cfg)
    h = sample_hamiltonian(m, n, int(config.get("seed", 0)))
    emb, energies, profile = embed_energy_greedy(
        h, tree, float(config.get("delta", 0.125)), seed=int(config.get("seed", 0))
    )
    ok, (worst, label) = validate_embedding(tree, emb, tol=1e-6)
    csv_path = os.path.join(out, "embedding.csv")
    embedding_to_csv(emb, csv_path)
    results = {
        "validated": ok,
        "worst_violation": worst,
        "worst_constraint": label,
        "energies_per_n": {str(v): e / n for v, e in energies.items()},
        "threshold_profile": {str(v): p for v, p in profile.items()},
    }
    return RunResult(0 if ok else 4, results, [csv_path])


def _run_pde(config, out):
    m = parse_mixture(config.get("mixture", "p2"))
    zcfg = config.get("zeta", {"breaks": [0.0], "values": [0.0]})
    zeta = PiecewiseZeta(tuple(zcfg["breaks"]), tuple(zcfg["values"]))
    beta = float(config.get("beta", math.inf))
    a = float(config.get("a", 0.0))
    grid = tuple(config["grid"]) if config.get("grid") else None
    sol = solve_parisi_pde(m, zeta, a=a, beta=beta, grid=grid, center=m.h)
    results = {
        "phi_at_0_h": float(sol.eval(0.0, m.h)),
        "parisi_is": _parisi_value(sol, zeta, m) if a == 0.0 and math.isinf(beta) else None,
        "diagnostics": {
            "grid_points": int(len(sol.grid)),
            "gh_nodes": sol.meta["gh_nodes"],
            "gh_rows": sol.meta["gh_rows"],
            "self_check_delta": sol.meta.get("self_check_delta"),
            "self_check_entries": sol.meta.get("self_check_entries"),
            "times": list(sol.times),
        },
    }
    return RunResult(0, results)


def _run_selftest(config, out):
    from .acceptance import run_all

    results = run_all(names=config.get("criteria"))
    payload = {
        "criteria": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
        "all_passed": all(r.passed for r in results),
    }
    meta = {"criterion_seconds": {r.name: r.seconds for r in results}}
    return RunResult(0 if payload["all_passed"] else 5, payload, meta=meta)
