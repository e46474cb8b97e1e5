"""Batch experiment runner: a JSON config (or CLI flags) in, reproducible
JSON/CSV artifacts out.

`DEFAULTS` gives each subcommand (thresholds, optimize, chi, concentration,
branching, sandwich, embed, pde, selftest) its keys and their defaults, None
where the handler decides; `FIELDS` gives each key's JSON schema, and
`ALGORITHMS` each `alg` name's parameter defaults, whose types are the
parameters' types.  Any other key or parameter exits 2.  `run` lays the
config over its row once; a handler returns its results and CSV artifacts,
and `run` alone writes run.json through `json.dumps`, echoing the config as
given; its floats are Python's shortest round-trip form, so an integral
float reads back as a float.  A mixture string has one grammar
(`parse_mixture`), and a malformed one exits 2.  Re-running a config
byte-reproduces every numeric payload; timings and timestamps (among them
selftest's per-criterion seconds) live only under the "meta" key.  A
selftest criterion name that matches no criterion exits 2 before any
criterion runs.  A run that raises removes the output directories it made,
so a refused run leaves none.  The thresholds, sandwich and pde handlers,
and selftest's acceptance suite, import spinlab.parisi, and with it scipy,
when they run; the other subcommands load scipy only for a Lanczos solve
(n above `hamiltonian.DENSE_EIGH_CAP` = 144).
"""

import json
import math
import numbers
import os
import re
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .ensembles import (
    CorrelationLadder,
    OverlapLadder,
    TreeShape,
    sample_ensemble,
    target_overlap_matrix,
)
from .errors import ArgumentError, NumericError
from .hamiltonian import check_budget, energy, pool_map, sample_hamiltonian
from .mixture import Mixture, _exponent
from .ogp import (
    check_chi_grid,
    check_chi_properties,
    check_grand_max_budget,
    constrained_grand_max,
    estimate_chi,
    overlap_concentration,
    run_branching_experiment,
)
from .optimizers import (
    AmpSpec,
    Trajectory,
    _end_in_ball,
    amp,
    export_trajectory_csv,
    gradient_ascent,
    langevin,
    lipschitz_probe,
    subag_ascent,
)
from .points import project_ball, sphere_point
from .ultrametric import (
    check_direction_budget,
    embed_energy_greedy,
    embedding_to_csv,
    full_binary_tree,
    star_tree,
    tree_from_json,
    validate_embedding,
)

_GRADIENT_ASCENT = {"name": "gradient_ascent"}
_DECIMAL = re.compile(r"([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")  # a mixture coefficient
_LADDERS = {"ks": [2, 2], "qladder": [0.0, 0.5, 1.0], "pladder": None}

DEFAULTS = {
    "thresholds": {"mixture": "p4", "ising": False, "knots": 8, "out": None},
    "optimize": {"mixture": "p4", "n": 64, "seed": 0, "seeds": None,
                 "alg": {"name": "subag", "delta": 0.125}, "workers": 1, "out": None},
    "chi": {"mixture": "p2", "n": 48, "seed": 0, "alg": _GRADIENT_ASCENT,
            "p_grid": [0.0, 0.25, 0.5, 0.75, 1.0], "reps": 20, "out": None},
    "concentration": {"mixture": "p2", "n": 48, "seed": 0, "alg": _GRADIENT_ASCENT,
                      "p": 0.5, "reps": 30, "lambda": 0.2, "out": None},
    "branching": {"mixture": "p2", "n": 64, "seed": 0, "alg": _GRADIENT_ASCENT, **_LADDERS,
                  "reps": 1, "out": None},
    "sandwich": {"mixture": "p2", "n": 48, "seed": 0, **_LADDERS, "eta": 0.2, "restarts": 3,
                 "beta": 4.0, "B": None, "C": 1.0, "out": None},
    "embed": {"mixture": "p2", "n": 96, "seed": 0, "tree": {"star": 3}, "delta": 0.125, "out": None},
    "pde": {"mixture": "p2", "zeta": {"breaks": [0.0], "values": [0.0]}, "beta": math.inf,
            "a": 0.0, "grid": None, "out": None},
    "selftest": {"criteria": None, "out": None},
}

_NUMBER = {"type": "number"}
_NUMBERS = {"type": "array", "items": _NUMBER}
_ARMS = {"type": "integer", "minimum": 1}

FIELDS = {
    "subcommand": {"enum": list(DEFAULTS)},
    "mixture": {
        "oneOf": [
            {"type": "string"},
            {
                "type": "object",
                "required": ["gammas"],
                "properties": {"gammas": {"type": "object"}, "h": {"type": "number", "minimum": 0}},
            },
        ]
    },
    "n": {"type": "integer", "minimum": 1},
    "seed": {"type": "integer"},
    "seeds": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
    "out": {"type": "string"},
    "workers": {"type": "integer", "minimum": 1, "maximum": 64},
    "alg": {"type": "object"},  # checked against its row of ALGORITHMS
    "delta": _NUMBER,
    "eta": _NUMBER,
    "reps": {"type": "integer", "minimum": 1},
    "p": _NUMBER,
    "p_grid": _NUMBERS,
    "lambda": _NUMBER,
    "ks": {"type": "array", "items": {"type": "integer", "minimum": 1}},
    "pladder": _NUMBERS,
    "qladder": _NUMBERS,
    "zeta": {"type": "object", "required": ["breaks", "values"],
             "properties": {"breaks": _NUMBERS, "values": _NUMBERS}},
    "beta": _NUMBER,
    "a": _NUMBER,
    "grid": {**_NUMBERS, "minItems": 2, "maxItems": 2},
    "knots": {"type": "integer", "enum": [8 * 2**k for k in range(7)]},  # alg_is_levels doubles from 8
    "ising": {"type": "boolean"},
    "tree": {  # a tree file's path, or exactly one of three closed objects
        "oneOf": [
            {"type": "string"},
            *(
                {"type": "object", "additionalProperties": False, "properties": {key: sub}, "required": [key]}
                for key, sub in (("star", _ARMS), ("binary", _ARMS), ("vertices", {"type": "array"}))
            ),
        ]
    },
    "restarts": {"type": "integer", "minimum": 1},
    "C": _NUMBER,
    "B": _NUMBER,
    "criteria": {"type": "array"},
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
    """"p4" -> pure quartic; "0.5*p2+p4" sums distinct terms, each p<int> or
    <decimal>*p<int> in ASCII: p as `mixture._exponent` reads a key ("p4",
    not "p04"), the coefficient digits with at most one point and an
    optional exponent ("0.5", "1e0"); dict {"gammas": {...}, "h": ...}."""
    if isinstance(spec, Mixture):
        return spec
    if isinstance(spec, str):
        gammas = {}
        for term in spec.split("+"):
            coef, star, name = term.strip().rpartition("*")
            if not name.startswith("p") or (star and not _DECIMAL.fullmatch(coef)):
                raise ArgumentError(f"bad mixture term {term!r} (want e.g. 'p4' or '0.5*p2')")
            p = _exponent(name[1:])
            if p in gammas:
                raise ArgumentError(f"mixture exponent p={p} is given twice in {spec!r}")
            gammas[p] = float(coef) if star else 1.0
        return Mixture(gammas)
    try:
        return Mixture(spec["gammas"], h=spec.get("h", 0.0))
    except (AttributeError, KeyError, TypeError, ArgumentError) as exc:
        raise ArgumentError(
            f"bad mixture {spec!r}: {exc} (want {{'gammas': {{p: number, ...}}, 'h': number}})"
        ) from None


def write_run_json(path, config, results, meta=None):
    """run.json: floats in Python's shortest round-trip form (bit-faithful,
    and an integral float keeps its point), numpy scalars as their Python
    values; a non-finite float raises NumericError, as JSON cannot hold it."""
    payload = {
        "config": config,
        "results": results,
        "meta": {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), **(meta or {})},
    }
    try:  # before the file opens, so a refused payload leaves none
        text = json.dumps(payload, indent=2, allow_nan=False, default=lambda v: v.item())
    except ValueError as exc:
        raise NumericError(f"non-finite value has no JSON form ({exc})") from None
    with open(path, "w") as f:
        f.write(text + "\n")


def _matrix_csv(path, mat):
    np.savetxt(path, np.asarray(mat), delimiter=",", fmt="%.17g")


def _gradient_ascent(steps, lr, start_scale):
    def alg(h, seed):
        x0 = sphere_point(rng.stream(seed, "ga-x0").standard_normal(h.n)) * start_scale
        return gradient_ascent(h, x0, steps, lr)

    return alg


def _amp(horizon):
    # clipping keeps |f_t|_N <= 1, so every gradient stays inside the sqrt(2) ball
    clip = AmpSpec(fs=[lambda *xs: np.clip(xs[-1], -1.0, 1.0)] * horizon,
                   lipschitz=[1.0] * horizon, horizon=horizon)
    return lambda h, seed: amp(h, clip, seed=seed)


def _constant(value):
    if not abs(value) <= 1.0:
        raise ArgumentError(f"constant value={value} must lie in [-1, 1], so that the point is in B_N")
    return _one_point("constant", lambda h: np.full(h.n, value))


def _one_point(name, point):
    """One-point trajectory; its energy is taken on B_N, as AMP records it,
    and it ends through `_end_in_ball`, so a point outside B_N is followed
    by its projection and `final` lies in B_N."""

    def alg(h, seed):
        iterates = [point(h)]
        energies = [energy(h, project_ball(iterates[0], 1.0))]
        _end_in_ball(h, iterates, energies)
        return Trajectory(iterates, energies, name, seed=seed)

    return alg


# name -> (parameter defaults, builder(**parameters) -> (h, seed) -> Trajectory)
ALGORITHMS = {
    "gradient_ascent": ({"steps": 10, "lr": 0.05, "start_scale": 0.5}, _gradient_ascent),
    "subag": (
        {"delta": 0.125, "mode": "top_eig"},
        lambda delta, mode: lambda h, seed: subag_ascent(h, delta, mode, seed=seed),
    ),
    "langevin": (
        {"beta": 1.0, "horizon": 0.5, "dt": 0.01, "r": 1.0},
        lambda beta, horizon, dt, r: lambda h, seed: langevin(h, beta, horizon, dt, r=r, seed=seed),
    ),
    "amp": ({"horizon": 2}, _amp),
    "constant": ({"value": 0.5}, _constant),
    "coef_linear": (
        {"scale": 0.8},
        # the first n disorder entries, read from the lowest-p tensor without concatenating every tensor
        lambda scale: _one_point("coef_linear", lambda h: scale * h.tensors[h.mixture.ps[0]].ravel()[: h.n]),
    ),
}

_JSON_TYPES = {int: "integer", float: "number", str: "string"}


def _cast(value, schema):
    """JSON numbers as their field's Python type (the schema takes 2.0 as an integer)."""
    if isinstance(value, list) and "items" in schema:
        return [_cast(v, schema["items"]) for v in value]
    if type(value) not in (int, float):
        return value
    return int(value) if schema.get("type") == "integer" else float(value)


def _is_type(value, name):
    """JSON Schema's types: 2.0 is an integer, and true is not a number."""
    if isinstance(value, bool):
        return name == "boolean"
    if name == "integer":
        return isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    kinds = {"boolean": bool, "number": numbers.Number, "string": str, "array": list, "object": dict}
    return isinstance(value, kinds[name])


# Each keyword of the JSON Schema (2020-12) subset that FIELDS and _closed
# use: (argument, instance, schema) -> a (relative path, message) per error,
# in jsonschema's wording.


def _type(types, value, schema):
    types = [types] if isinstance(types, str) else types
    if not any(_is_type(value, t) for t in types):
        yield (), f"{value!r} is not of type {', '.join(map(repr, types))}"


def _minimum(limit, value, schema):
    if _is_type(value, "number") and value < limit:
        yield (), f"{value!r} is less than the minimum of {limit!r}"


def _maximum(limit, value, schema):
    if _is_type(value, "number") and value > limit:
        yield (), f"{value!r} is greater than the maximum of {limit!r}"


def _enum(options, value, schema):
    if not any(o == value and isinstance(o, bool) == isinstance(value, bool) for o in options):
        yield (), f"{value!r} is not one of {options!r}"


def _items(item, value, schema):
    if isinstance(value, list):
        for i, v in enumerate(value):
            yield from _errors(item, v, (i,))


def _min_items(limit, value, schema):
    if isinstance(value, list) and len(value) < limit:
        yield (), f"{value!r} {'should be non-empty' if limit == 1 else 'is too short'}"


def _max_items(limit, value, schema):
    if isinstance(value, list) and len(value) > limit:
        yield (), f"{value!r} {'is expected to be empty' if limit == 0 else 'is too long'}"


def _required(keys, value, schema):
    if isinstance(value, dict):
        yield from (((), f"{k!r} is a required property") for k in keys if k not in value)


def _properties(props, value, schema):
    if isinstance(value, dict):
        for k, sub in props.items():
            if k in value:
                yield from _errors(sub, value[k], (k,))


def _additional_properties(allowed, value, schema):  # only `false` is used (_closed)
    if isinstance(value, dict):
        extras = sorted(set(value) - set(schema.get("properties", {})), key=str)
        if extras:
            verb = "was" if len(extras) == 1 else "were"
            yield (), f"Additional properties are not allowed ({', '.join(map(repr, extras))} {verb} unexpected)"


def _one_of(options, value, schema):
    valid = [o for o in options if next(_errors(o, value), None) is None]
    if not valid:
        yield (), f"{value!r} is not valid under any of the given schemas"
    elif len(valid) > 1:
        yield (), f"{value!r} is valid under each of {', '.join(map(repr, valid))}"


_KEYWORDS = {
    "type": _type,
    "minimum": _minimum,
    "maximum": _maximum,
    "enum": _enum,
    "items": _items,
    "minItems": _min_items,
    "maxItems": _max_items,
    "required": _required,
    "properties": _properties,
    "additionalProperties": _additional_properties,
    "oneOf": _one_of,
}


def _errors(schema, value, where=()):
    """(path, message) for each error of value against schema, keyword by
    keyword in the schema's order, as jsonschema's iter_errors yields them."""
    for keyword, arg in schema.items():
        for path, message in _KEYWORDS[keyword](arg, value, schema):
            yield (*where, *path), message


def _check(schema, instance, where=()):
    """ArgumentError naming the first error by path, as jsonschema sorts them."""
    first = min(_errors(schema, instance), key=lambda e: e[0], default=None)
    if first is not None:
        path = "/".join(str(p) for p in (*where, *first[0])) or "<root>"
        raise ArgumentError(f"config field {path}: {first[1]}")


def _closed(properties):
    return {"type": "object", "additionalProperties": False, "properties": properties}


def _algorithm(spec: dict):
    """(name, parameters): spec checked against its row of ALGORITHMS and laid
    over that row's defaults."""
    name = spec.get("name")
    if not isinstance(name, str) or name not in ALGORITHMS:
        raise ArgumentError(f"unknown algorithm {name!r} (known: {', '.join(ALGORITHMS)})")
    defaults = ALGORITHMS[name][0]
    types = {k: {"type": _JSON_TYPES[type(d)]} for k, d in defaults.items()}
    _check(_closed({"name": {"type": "string"}, **types}), spec, ("alg",))
    return name, {k: _cast(spec.get(k, d), types[k]) for k, d in defaults.items()}


def build_algorithm(spec: dict):
    """The algorithm table: spec {"name": ..., params} -> (h, seed) -> Trajectory."""
    name, params = _algorithm(spec)
    return ALGORITHMS[name][1](**params)


def point_algorithm(spec: dict):
    """(h, seed) -> final iterate, the form the overlap experiments take."""
    traj = build_algorithm(spec)
    return lambda h, seed: traj(h, seed).final


def validate_config(config: dict):
    """Check config against its subcommand's row of DEFAULTS, and its `alg`
    object against that algorithm's row of ALGORITHMS."""
    subcommand = {"subcommand": FIELDS["subcommand"]}
    _check({"type": "object", "required": ["subcommand"], "properties": subcommand}, config)
    _check(_closed({**subcommand, **{k: FIELDS[k] for k in DEFAULTS[config["subcommand"]]}}), config)
    if "alg" in config:
        _algorithm(config["alg"])


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
    cfg = {k: _cast(v, FIELDS[k]) for k, v in {**DEFAULTS[sub], **config}.items()}
    out = out_dir or cfg["out"] or f"runs/{sub}"
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
        result = handler(cfg, out)
        path = os.path.join(out, "run.json")
        write_run_json(path, config, result.payload, result.meta)
    except Exception:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise
    result.artifacts.append(path)
    return result


def _run_thresholds(cfg, out):
    from .parisi import alg_is_numeric, alg_sp, opt_sp_numeric

    m = parse_mixture(cfg["mixture"])
    value, regime, q_hat = alg_sp(m)
    results = {
        "alg_sp": {"value": value, "regime": regime, "q_hat": q_hat},
        "opt_sp_numeric": opt_sp_numeric(m),
        "mixture": {"gammas": m.gammas, "h": m.h},
    }
    if cfg["ising"]:
        results["alg_is_numeric"] = alg_is_numeric(m, knots=cfg["knots"])
    return RunResult(0, results)


def _run_optimize(cfg, out):
    m, n, workers = parse_mixture(cfg["mixture"]), cfg["n"], cfg["workers"]
    seeds = cfg["seeds"] or [cfg["seed"]]
    alg = build_algorithm(cfg["alg"])
    concurrent = min(workers, len(seeds))
    if concurrent > 1:
        # every concurrent replica holds its own tensors
        check_budget(m, n, concurrent, f"{concurrent} concurrent replicas hold")

    def one(seed):
        h = sample_hamiltonian(m, n, rng.derive_seed(seed, "optimize"))
        return seed, alg(h, seed)

    artifacts = []
    summary = []
    for seed, traj in pool_map(one, seeds, workers=workers):  # in seed order
        csv_path = os.path.join(out, f"trajectory_seed{seed}.csv")
        export_trajectory_csv(traj, csv_path)
        artifacts.append(csv_path)
        summary.append(
            {"seed": seed, "final_energy_per_n": traj.final_energy / n, "steps": len(traj.iterates)}
        )
    results = {"algorithm": cfg["alg"], "n": n, "runs": summary}
    return RunResult(0, results, artifacts)


def _run_chi(cfg, out):
    check_chi_grid(cfg["p_grid"])  # before the first replica runs
    alg = point_algorithm(cfg["alg"])
    est = estimate_chi(
        alg, parse_mixture(cfg["mixture"]), cfg["n"], tuple(cfg["p_grid"]), cfg["reps"], cfg["seed"]
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


def _run_concentration(cfg, out):
    m, n, seed = parse_mixture(cfg["mixture"]), cfg["n"], cfg["seed"]
    alg = point_algorithm(cfg["alg"])
    rep = overlap_concentration(alg, m, n, cfg["p"], cfg["reps"], cfg["lambda"], seed)
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


def _parse_ladders(cfg):
    shape = TreeShape(tuple(cfg["ks"]))
    qladder = OverlapLadder(tuple(cfg["qladder"]))
    ps = cfg["pladder"]
    return shape, CorrelationLadder.matching(qladder) if ps is None else CorrelationLadder(tuple(ps)), qladder


def _run_branching(cfg, out):
    n = cfg["n"]
    shape, pladder, qladder = _parse_ladders(cfg)
    alg = point_algorithm(cfg["alg"])
    # eta is None: run_branching_experiment reads no eta, and the runner asks for no extension
    reports = run_branching_experiment(
        alg, parse_mixture(cfg["mixture"]), n, shape, pladder, qladder, None, cfg["reps"], cfg["seed"]
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


def _run_sandwich(cfg, out):
    from .parisi import PiecewiseZeta, interpolation_bound_sp
    from .parisi.interpolation import composite_profile

    m, n, seed, beta = parse_mixture(cfg["mixture"]), cfg["n"], cfg["seed"], cfg["beta"]
    shape, pladder, qladder = _parse_ladders(cfg)
    check_grand_max_budget(m, n, shape, pladder)  # before a node is sampled
    ens = sample_ensemble(m, n, shape, pladder, seed)
    q_mat = target_overlap_matrix(shape, qladder)
    anchor = np.zeros(n) if qladder.qs[0] == 0 else sphere_point(
        rng.stream(seed, "anchor").standard_normal(n)
    ) * math.sqrt(qladder.qs[0])
    primal = constrained_grand_max(ens, q_mat, anchor, cfg["eta"], cfg["restarts"], seed)
    levels = np.linspace(0.2, 0.8, qladder.depth)
    zeta = PiecewiseZeta.on_knots(qladder.qs[:-1], levels)
    if cfg["B"] is not None:
        b_val = cfg["B"]
    else:
        # B_zeta(0) of the composite is then the old default sqrt(max(xi''(1), 1))
        composite = composite_profile(PiecewiseZeta.zero(), zeta, beta, shape, pladder, qladder)
        b_val = math.sqrt(max(m.xi(1.0, 2), 1.0)) + composite.integral_xi2(m)
    bound = interpolation_bound_sp(
        b_val, PiecewiseZeta.zero(), zeta, beta, cfg["eta"], shape, pladder, qladder, m, cfg["C"], n
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


def _run_embed(cfg, out):
    n, tree_cfg = cfg["n"], cfg["tree"]
    if isinstance(tree_cfg, str):
        with open(tree_cfg) as f:
            tree = tree_from_json(f.read())
    elif "vertices" in tree_cfg:
        tree = tree_from_json(tree_cfg)
    else:  # a star or binary tree: a step on each of its |V| - 1 edges, so 2|V| + 1 directions or more
        ((form, size),) = tree_cfg.items()
        size = int(size)  # a binary tree has 2^(size+1) - 1 vertices; past n's bit length they exceed n already
        verts = size + 1 if form == "star" else 2 ** (min(size, n.bit_length()) + 1) - 1
        check_direction_budget(n, 2 * verts + 1, exact=False)
        tree = star_tree(size) if form == "star" else full_binary_tree(size)
    h = sample_hamiltonian(parse_mixture(cfg["mixture"]), n, cfg["seed"])
    emb, energies, profile = embed_energy_greedy(h, tree, cfg["delta"], seed=cfg["seed"])
    ok, (worst, label) = validate_embedding(tree, emb, tol=1e-6)
    csv_path = os.path.join(out, "embedding.csv")
    embedding_to_csv(emb, csv_path)
    results = {
        "validated": ok,
        "worst_violation": worst,
        "worst_constraint": None if ok else label,  # null when every deviation is within tolerance
        "energies_per_n": {str(v): e / n for v, e in energies.items()},
        "threshold_profile": {str(v): p for v, p in profile.items()},
    }
    return RunResult(0 if ok else 4, results, [csv_path])


def _run_pde(cfg, out):
    from .parisi import PiecewiseZeta, solve_parisi_pde
    from .parisi.pde import _parisi_value

    m, beta, a = parse_mixture(cfg["mixture"]), cfg["beta"], cfg["a"]
    zeta = PiecewiseZeta(tuple(cfg["zeta"]["breaks"]), tuple(cfg["zeta"]["values"]))
    grid = tuple(cfg["grid"]) if cfg["grid"] else None
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


def _run_selftest(cfg, out):
    from .acceptance import run_all

    results = run_all(names=cfg["criteria"])
    payload = {
        "criteria": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
        "all_passed": all(r.passed for r in results),
    }
    meta = {"criterion_seconds": {r.name: r.seconds for r in results}}
    return RunResult(0 if payload["all_passed"] else 5, payload, meta=meta)
