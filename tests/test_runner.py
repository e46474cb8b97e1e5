import json
import math
import tracemalloc

import numpy as np
import pytest

from spinlab import acceptance, rng, runner
from spinlab.errors import ArgumentError, NumericError, ResourceError
from spinlab.hamiltonian import energy, sample_hamiltonian
from spinlab.mixture import Mixture, pure
from spinlab.optimizers import AmpSpec, amp, lipschitz_probe
from spinlab.parisi import PiecewiseZeta, parisi_is, pde, solve_parisi_pde
from spinlab.points import norm_n_sq, project_ball
from spinlab.runner import build_algorithm, parse_mixture, point_algorithm, run, validate_config
from spinlab.__main__ import main

from conftest import coefficients


def test_parse_mixture():
    m = parse_mixture("p4")
    assert m.gammas == {4: 1.0} and m.h == 0.0
    m = parse_mixture("0.5*p2+p4")
    assert m.gammas == {2: 0.5, 4: 1.0}
    m = parse_mixture({"gammas": {"2": 0.7}, "h": 0.3})
    assert m.gammas == {2: 0.7} and m.h == 0.3
    for bad in ("q4", "x4", "p", "p4.5", "a*p2", "0.5*0.5*p2", "p2+"):
        with pytest.raises(ArgumentError):
            parse_mixture(bad)
    assert parse_mixture("1e0*p4").gammas == {4: 1.0}
    assert parse_mixture(" p2 + p4 ").gammas == {2: 1.0, 4: 1.0}


@pytest.mark.parametrize("bad", ["p1_0", "p\u0664", "p 4", "p04", "1_0*p2", "\u0660.\u0665*p2", "p2+0.5*p2"])
def test_malformed_mixture_strings_exit_2(tmp_path, bad):
    """Python numeric literals (underscores, non-ASCII digits, spaces, leading
    zeros) and a repeated p are refused by --mixture and --set alike."""
    with pytest.raises(ArgumentError):
        parse_mixture(bad)
    assert main(["thresholds", "--mixture", bad, "--out", str(tmp_path / "a")]) == 2
    assert main(["thresholds", "--set", f"mixture={bad}", "--out", str(tmp_path / "b")]) == 2
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


# a value each key's field takes: its first non-null default over the rows
# of DEFAULTS, or one given here where every row leaves it to the handler
_VALID = {"seeds": [0], "pladder": [0.0, 1.0], "B": 2.0, "grid": [6.0, 0.01], "criteria": ["1"]}
for _row in runner.DEFAULTS.values():
    for _key, _value in _row.items():
        if _value is not None:
            _VALID.setdefault(_key, _value)


def test_schema_validation(tmp_path, capsys):
    with pytest.raises(ArgumentError, match="subcommand"):
        validate_config({"subcommand": "nope"})
    with pytest.raises(ArgumentError):
        validate_config({})
    validate_config({"subcommand": "thresholds", "mixture": "p4"})
    for stray in ("sed", "steps"):  # a typo, and a setting that lives in "alg"
        with pytest.raises(ArgumentError, match="Additional properties"):
            validate_config({"subcommand": "thresholds", stray: 3})
    keys = set().union(*runner.DEFAULTS.values())
    assert set(runner.FIELDS) == keys | {"subcommand"}
    # (config, the key the refusal names): every key another subcommand takes
    # is refused where the row lacks it, with a value its field would take
    cases = [
        ({"subcommand": sub, key: _VALID[key]}, key)
        for sub, row in runner.DEFAULTS.items()
        for key in sorted(keys - set(row))
    ]
    # and for every algorithm, an unknown parameter and each wrong-typed one
    for name, (defaults, _) in runner.ALGORITHMS.items():
        validate_config({"subcommand": "optimize", "alg": {"name": name, **defaults}})
        algs = [({"detla": 0.1}, "detla")]
        algs += [({k: 1 if isinstance(d, str) else "x"}, k) for k, d in defaults.items()]
        algs += [({k: 0.5}, k) for k, d in defaults.items() if isinstance(d, int)]
        cases += [({"subcommand": "optimize", "alg": {"name": name, **p}}, k) for p, k in algs]
    for i, (config, key) in enumerate(cases):
        cfg, out = tmp_path / f"cfg{i}.json", tmp_path / f"o{i}"
        cfg.write_text(json.dumps(config))
        assert main(["run", str(cfg), "--out", str(out)]) == 2, config
        err = capsys.readouterr().err
        assert err.startswith("usage error: config field"), config
        assert f"'{key}' was unexpected" in err or f"alg/{key}:" in err, (config, err)
        assert not out.exists(), config


def _jsonschema_check(schema, instance, where=()):
    """runner._check as it was on jsonschema: the first error by path."""
    jsonschema = pytest.importorskip("jsonschema")
    errors = sorted(jsonschema.Draft202012Validator(schema).iter_errors(instance), key=lambda e: e.path)
    if errors:
        path = "/".join(str(p) for p in (*where, *errors[0].path)) or "<root>"
        raise ArgumentError(f"config field {path}: {errors[0].message}")


def _wrong_values(schema):
    """One value per way of breaking (or just passing) a field's schema."""
    out = ["x", True, False, None, {}, [], [1, 2, 3], ["x"], [True], [2.0, 0.5], 1.5, 2.0, 7, -3, 0]
    for bound in ("minimum", "maximum"):
        if bound in schema:
            out += [schema[bound] - 1, schema[bound] + 1, schema[bound] + 0.5]
    out += [v + 1 for v in schema.get("enum", []) if isinstance(v, int)] + ["nope"]
    return out


# nested objects: mixture, tree and zeta, valid and broken at each level
_NESTED = {
    "mixture": [{"gammas": {"2": 1.0}}, {"gammas": {"2": 1.0}, "h": -1}, {"gammas": {}, "h": "x"},
                {"h": 0.5}, {"gammas": 1}, {"gammas": [], "h": True}, {"gammas": {}, "other": 1}],
    "tree": [{"star": 0}, {"binary": 1.5}, {"star": True, "binary": "x"}, {"other": 1}, "t.json"],
    "zeta": [{"breaks": [0.0]}, {"breaks": ["x"], "values": [0.0]}, {"breaks": 1, "values": []},
             {}, {"breaks": [0.0, True], "values": [1, 2.0]}],
}


def test_config_checks_match_jsonschema(monkeypatch):
    """runner._check against jsonschema on every (subcommand, key) pair's
    valid value and its mutations, configs with two errors, and every
    algorithm's parameters: the same verdict, and the same message naming
    the same first-error path."""
    ours = runner._check

    def outcome(check, config):
        monkeypatch.setattr(runner, "_check", check)
        try:
            validate_config(config)
        except ArgumentError as exc:
            return str(exc)
        return None

    configs = [{}, {"subcommand": 3}, {"subcommand": "nope"}, {"subcommand": "pde", "bogus": 1, "zz": 2}]
    for sub, row in runner.DEFAULTS.items():
        for key in row:
            values = [_VALID.get(key, "runs/o"), *_wrong_values(runner.FIELDS[key]), *_NESTED.get(key, [])]
            configs += [{"subcommand": sub, key: v} for v in values]
            configs.append({"subcommand": sub, key: "x", "bogus": 1})
        keys = [k for k in row if k != "out"]
        configs.append({"subcommand": sub, **{k: True for k in keys}})
    for name, (defaults, _) in runner.ALGORITHMS.items():
        for key in defaults:
            for v in ("x", True, 0.5, 2, 2.0, None, [1]):
                configs.append({"subcommand": "optimize", "alg": {"name": name, **defaults, key: v}})
        configs.append({"subcommand": "optimize", "alg": {"name": name, "bogus": 1, **defaults}})
    refused = 0
    for config in configs:
        got, want = outcome(ours, config), outcome(_jsonschema_check, config)
        assert (got is None) == (want is None), (config, got, want)
        if want is not None:
            refused += 1
            assert got == want, (config, got, want)
    assert refused > 500


def test_fields_use_only_interpreted_keywords():
    """Every schema keyword in FIELDS (and in _closed) is one _check interprets."""
    seen = set()

    def walk(schema):
        seen.update(schema)
        assert schema.get("additionalProperties", False) is False
        for sub in schema.get("oneOf", []):
            walk(sub)
        for sub in schema.get("properties", {}).values():
            walk(sub)
        if "items" in schema:
            walk(schema["items"])

    for schema in runner.FIELDS.values():
        walk(schema)
    walk(runner._closed({}))
    assert seen <= set(runner._KEYWORDS), seen - set(runner._KEYWORDS)
    with pytest.raises(KeyError):
        runner._check({"pattern": "^x"}, "y")


@pytest.mark.parametrize("knots", [4, 12, 24, 1024])
def test_thresholds_rejects_knots_off_the_refinement_ladder(tmp_path, knots, monkeypatch):
    """alg_is_levels refines 8, 16, 32, ...: any other knot count exits 2
    before the ALG search starts."""
    monkeypatch.setattr("spinlab.parisi.alg_is_numeric", lambda *a, **k: pytest.fail("searched"))
    with pytest.raises(ArgumentError, match="knots"):
        validate_config({"subcommand": "thresholds", "ising": True, "knots": knots})
    argv = ["thresholds", "--mixture", "p2", "--ising", "--set", f"knots={knots}"]
    assert main(argv + ["--out", str(tmp_path / "t")]) == 2


def test_thresholds_run(tmp_path):
    res = run({"subcommand": "thresholds", "mixture": "p4"}, out_dir=str(tmp_path))
    assert res.status == 0
    assert res.payload["alg_sp"]["value"] == pytest.approx(math.sqrt(3.0), abs=1e-9)
    data = json.loads((tmp_path / "run.json").read_text())
    assert data["results"]["alg_sp"]["value"] == pytest.approx(math.sqrt(3.0), abs=1e-12)


def test_optimize_run_artifacts(tmp_path):
    config = {
        "subcommand": "optimize",
        "mixture": "p2",
        "n": 32,
        "seeds": [0, 1],
        "alg": {"name": "subag", "delta": 0.25},
    }
    res = run(config, out_dir=str(tmp_path))
    assert res.status == 0
    assert (tmp_path / "trajectory_seed0.csv").exists()
    assert (tmp_path / "trajectory_seed1.csv").exists()
    assert len(res.payload["runs"]) == 2


@pytest.mark.parametrize("n", [64, 520])  # the dense Hessian path, and Lanczos above its cap
def test_optimize_rejects_an_unknown_subag_mode(tmp_path, n):
    cfg = tmp_path / "cfg.json"
    alg = {"name": "subag", "delta": 0.125, "mode": "bogus"}
    cfg.write_text(json.dumps({"subcommand": "optimize", "mixture": "p2", "n": n, "alg": alg}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_every_subcommand_takes_every_algorithm(tmp_path):
    config = {"subcommand": "optimize", "mixture": "p2", "n": 16, "seed": 4,
              "alg": {"name": "constant", "value": 0.5}}
    res = run(config, out_dir=str(tmp_path / "opt"))
    assert res.payload["runs"][0]["steps"] == 1
    h = sample_hamiltonian(pure(2), 16, rng.derive_seed(4, "optimize"))
    want = energy(h, np.full(16, 0.5)) / 16
    assert res.payload["runs"][0]["final_energy_per_n"] == want
    config = {"subcommand": "chi", "mixture": "p2", "n": 16, "reps": 10, "seed": 3,
              "alg": {"name": "amp", "horizon": 1}, "p_grid": [0.0, 0.5, 1.0]}
    res = run(config, out_dir=str(tmp_path / "chi"))
    assert res.status == 0
    assert res.payload["chi_hat"][0] < res.payload["chi_hat"][-1]
    with pytest.raises(ArgumentError, match="unknown algorithm"):
        run({**config, "alg": {"name": "nope"}}, out_dir=str(tmp_path / "bad"))


def test_coef_linear_reads_the_first_n_disorder_coefficients():
    """coef_linear reads the lowest-p tensor in place of concatenating every
    tensor into the disorder vector: the same n entries, bit for bit."""
    h = sample_hamiltonian(Mixture({4: 0.8, 2: 0.6}), 5, seed=3)
    got = build_algorithm({"name": "coef_linear"})(h, 0).iterates[0]
    assert np.array_equal(got, 0.8 * coefficients(h)[: h.n])


def test_one_point_algorithms_end_in_the_unit_ball():
    """coef_linear's point lies outside B_N on some seeds at n = 16; its
    projection follows it, so `final` is the point last scored."""
    coef_linear = build_algorithm({"name": "coef_linear"})
    outside = 0
    for seed in range(200):
        h = sample_hamiltonian(pure(2), 16, seed)
        traj = coef_linear(h, seed)
        raw = traj.iterates[0]
        outside += norm_n_sq(raw) > 1.0
        assert len(traj.iterates) == 1 + (norm_n_sq(raw) > 1.0)
        assert np.array_equal(traj.final, project_ball(raw, 1.0))
        assert traj.energies[-1] == traj.energies[0] == energy(h, traj.final)
    assert outside > 0
    h = sample_hamiltonian(pure(2), 16, 0)
    traj = build_algorithm({"name": "constant", "value": -1.0})(h, 0)
    assert len(traj.iterates) == 1 and np.array_equal(traj.final, np.full(16, -1.0))


def test_amp_default_horizon_stays_in_the_evaluation_ball(tmp_path):
    # the unclipped identity put |x^1|_N^2 near xi'(1), and the next gradient
    # outside the sqrt(2) ball, on most of these seeds
    # x^0, x^1, x^2, then the projection of x^2 when x^2 lies outside B_N
    alg = build_algorithm({"name": "amp"})
    for m in (pure(2), pure(4), Mixture({2: 1.0, 4: 1.0})):
        for seed in range(10):
            h = sample_hamiltonian(m, 16, seed)
            traj = alg(h, seed)
            raw = traj.iterates[2]
            assert len(traj.iterates) == 3 + (norm_n_sq(raw) > 1.0) and np.all(np.isfinite(traj.energies))
            assert np.array_equal(traj.final, project_ball(raw, 1.0))
            assert traj.energies[-1] == traj.energies[2] == energy(h, traj.final)
    # x^0 = 1 is inside the clip, so one step is the plain identity step
    h = sample_hamiltonian(pure(2), 16, 3)
    identity = AmpSpec(fs=[lambda *xs: xs[-1]], lipschitz=[1.0], horizon=1)
    one = build_algorithm({"name": "amp", "horizon": 1})(h, 3)
    assert np.array_equal(one.final, amp(h, identity, seed=3).final)
    assert main(["optimize", "--alg", "amp", "--n", "16", "--out", str(tmp_path / "amp")]) == 0


def test_amp_hands_the_overlap_experiments_points_in_the_unit_ball(tmp_path):
    """The point an overlap experiment reads is the projected last iterate,
    whose energy amp records: inside B_N, where the raw iterate was not."""
    alg = point_algorithm({"name": "amp"})
    norms = [norm_n_sq(alg(sample_hamiltonian(pure(2), 16, seed), seed)) for seed in range(10)]
    assert max(norms) <= 1.0 + 1e-12 and min(norms) > 0.99
    cfg = {"mixture": "p2", "n": 16, "alg": {"name": "amp"}}
    chi = run({"subcommand": "chi", **cfg, "reps": 10, "p_grid": [0, 0.5, 1]}, out_dir=str(tmp_path / "chi"))
    assert chi.status == 0 and chi.payload["chi_hat"][-1] <= 1.0 + 1e-12
    conc = run({"subcommand": "concentration", **cfg}, out_dir=str(tmp_path / "conc"))
    assert conc.status == 0 and conc.payload["mean"] <= 1.0 + 1e-12
    branching = run({"subcommand": "branching", **cfg}, out_dir=str(tmp_path / "br"))
    r_mat = np.loadtxt(tmp_path / "br" / "overlap_rep0.csv", delimiter=",")
    assert branching.status == 0 and np.all(np.diag(r_mat) <= 1.0 + 1e-12)


def test_amp_builds_its_clipped_spec_once_per_build(monkeypatch):
    """The clipped AmpSpec, and with it the state-evolution and Onsager Monte
    Carlo, is made once per build_algorithm call, not once per run."""
    built = []

    class Counting(runner.AmpSpec):
        def __post_init__(self):
            built.append(self.horizon)
            super().__post_init__()

    monkeypatch.setattr(runner, "AmpSpec", Counting)
    alg = build_algorithm({"name": "amp", "horizon": 3})
    for seed in range(3):
        alg(sample_hamiltonian(pure(2), 16, seed), seed)
    assert built == [3]


def test_optimize_amp_is_byte_identical_at_every_worker_count(tmp_path, fake_cpus):
    """Replicas share one AmpSpec; at 3 workers they run on a pool of 3 (the
    config's workers, not the one CPU) and write what 1 worker writes."""
    pools = fake_cpus(1)  # so each tensor fill runs inline and the one pool is the replicas'
    config = {"subcommand": "optimize", "mixture": "p2", "n": 16, "seeds": [0, 1, 2], "alg": {"name": "amp"}}
    written = []
    for workers in (1, 3):
        out = tmp_path / f"w{workers}"
        res = run({**config, "workers": workers}, out_dir=str(out))
        results = json.loads((out / "run.json").read_text())["results"]
        csvs = [(out / f"trajectory_seed{s}.csv").read_bytes() for s in (0, 1, 2)]
        written.append((json.dumps(results), csvs, len(res.artifacts)))
    assert pools == [3]
    assert written[0] == written[1]


@pytest.mark.parametrize("value", (1.3, -1.0000001))
def test_constant_outside_the_unit_ball_exits_2(tmp_path, capsys, value):
    argv = ["optimize", "--n", "16", "--set", f'alg={{"name": "constant", "value": {value}}}']
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert "[-1, 1]" in capsys.readouterr().err and not (tmp_path / "o").exists()
    h = sample_hamiltonian(pure(2), 16, 0)
    for edge in (-1.0, 1.0):  # the sphere itself is in B_N
        assert norm_n_sq(build_algorithm({"name": "constant", "value": edge})(h, 0).final) == 1.0


@pytest.mark.parametrize("p_grid", ([0.0, 0.5], [0.0, 0.5, 0.9], [0.25, 0.5, 1.0], [0.0, 0.5, 1.0, 1.5]))
def test_chi_refuses_a_bad_grid_before_the_first_replica(tmp_path, capsys, monkeypatch, p_grid):
    ran = []
    monkeypatch.setattr(runner, "estimate_chi", lambda *args, **kwargs: ran.append(args))
    argv = ["chi", "--n", "16", "--set", f"p_grid={json.dumps(p_grid)}", "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert "p = 0 and p = 1" in capsys.readouterr().err
    assert ran == [] and not (tmp_path / "o").exists()


def test_byte_reproducibility(tmp_path):
    config = {
        "subcommand": "chi",
        "mixture": "p2",
        "n": 16,
        "reps": 10,
        "seed": 3,
        "alg": {"name": "constant", "value": 0.5},
        "p_grid": [0.0, 0.5, 1.0],
    }
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(config, out_dir=str(out1))
    run(config, out_dir=str(out2))
    d1 = json.loads((out1 / "run.json").read_text())
    d2 = json.loads((out2 / "run.json").read_text())
    assert d1["results"] == d2["results"]
    assert d1["config"] == d2["config"]
    assert (out1 / "chi.csv").read_bytes() == (out2 / "chi.csv").read_bytes()


def test_pde_run(tmp_path):
    config = {
        "subcommand": "pde",
        "mixture": "p2",
        "zeta": {"breaks": [0.0], "values": [0.0]},
        "grid": [6.0, 0.01],
    }
    res = run(config, out_dir=str(tmp_path))
    assert res.status == 0
    want = math.sqrt(2.0) * math.sqrt(2 / math.pi)
    assert res.payload["phi_at_0_h"] == pytest.approx(want, abs=1e-5)


def test_pde_run_reports_gh_rows(tmp_path):
    """diagnostics.gh_rows is the solve's count of computed shifted-slice
    rows, fewer than gh_steps x gh_nodes."""
    config = {
        "subcommand": "pde",
        "mixture": "p2",
        "zeta": {"breaks": [0.0, 0.5], "values": [0.4, 1.0]},
        "grid": [6.0, 0.01],
    }
    diag = run(config, out_dir=str(tmp_path)).payload["diagnostics"]
    sol = solve_parisi_pde(pure(2), PiecewiseZeta((0.0, 0.5), (0.4, 1.0)), grid=(6.0, 0.01))
    assert diag["gh_rows"] == sol.meta["gh_rows"] < diag["gh_nodes"] * sol.meta["gh_steps"]


def test_pde_run_reads_parisi_is_off_its_own_solve(tmp_path, monkeypatch):
    """run.json's results are those of one self-checked solve: parisi_is is
    the value parisi_is gives, with no second solve, and the diagnostics
    carry the self-check's entry count."""
    zeta = PiecewiseZeta((0.0, 0.5), (0.4, 1.0))
    sol = solve_parisi_pde(pure(2), zeta, grid=(6.0, 0.01))
    want = parisi_is(zeta, pure(2), grid=(6.0, 0.01))
    solves = []
    solve = pde.solve_parisi_pde

    def counted(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(pde, "solve_parisi_pde", counted)
    monkeypatch.setattr("spinlab.parisi.solve_parisi_pde", counted)
    config = {
        "subcommand": "pde",
        "mixture": "p2",
        "zeta": {"breaks": [0.0, 0.5], "values": [0.4, 1.0]},
        "grid": [6.0, 0.01],
    }
    run(config, out_dir=str(tmp_path))
    results = json.loads((tmp_path / "run.json").read_text())["results"]
    assert len(solves) == 1
    assert results["parisi_is"] == want
    assert results["phi_at_0_h"] == sol.eval(0.0, 0.0)
    diag = results["diagnostics"]
    assert diag["self_check_delta"] == sol.meta["self_check_delta"]
    assert diag["self_check_entries"] == sol.meta["self_check_entries"]


def test_pde_run_rejects_non_finite_zeta(tmp_path):
    """json.load reads NaN and Infinity; such a profile exits 2 before any
    solve."""
    for i, zeta in enumerate(
        (
            {"breaks": [0.0], "values": [math.nan]},
            {"breaks": [0.0], "values": [math.inf]},
            {"breaks": [0.0, math.nan], "values": [0.0, 1.0]},
            {"breaks": [0.0, -math.inf], "values": [0.0, 1.0]},
        )
    ):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps({"subcommand": "pde", "mixture": "p2", "zeta": zeta, "grid": [6.0, 0.01]}))
        assert main(["run", str(cfg), "--out", str(tmp_path / f"o{i}")]) == 2, zeta


def test_thresholds_rejects_non_finite_mixtures(tmp_path):
    """json.load reads NaN and Infinity; a mixture holding one exits 2
    instead of writing NaN thresholds."""
    for i, mixture in enumerate(({"gammas": {"2": math.nan}}, {"gammas": {"2": 0.5}, "h": math.inf})):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps({"subcommand": "thresholds", "mixture": mixture}))
        assert main(["run", str(cfg), "--out", str(tmp_path / f"o{i}")]) == 2, mixture


# a bool or a numeric string is no gamma_p, and "02" is no plain decimal
# (it would fold into p = 2 beside the "2" entry)
@pytest.mark.parametrize(
    "gammas",
    [{"2": "abc"}, {"x": 1}, {"2": [1]}, {"2": True}, {"2": "0.5"}, {"2": 1, "02": 0.5}],
)
def test_thresholds_rejects_ill_typed_gammas(tmp_path, gammas):
    with pytest.raises(ArgumentError, match="bad mixture"):
        parse_mixture({"gammas": gammas})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "thresholds", "mixture": {"gammas": gammas}}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_mixture_sorts_its_terms_and_refuses_bools_and_repeated_exponents():
    assert Mixture({"10": 1, "2": 1}).ps == (2, 10)
    assert Mixture({"10": 1, "2": 1}) == Mixture({2: 1.0, 10: 1.0})
    for gammas, h in (({2: True}, 0.0), ({2: 1.0}, True), ({2: 1.0}, "0.5"), ({True: 1.0}, 0.0)):
        with pytest.raises(ArgumentError):
            Mixture(gammas, h=h)
    with pytest.raises(ArgumentError, match="given twice"):
        Mixture({2: 1.0, "2": 0.5})


def test_thresholds_rejects_a_gamma_whose_xi_overflows(tmp_path):
    with pytest.raises(ArgumentError, match="overflows"):
        Mixture({2: 1e308})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "thresholds", "mixture": {"gammas": {"2": 1e308}}}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o" / "run.json").exists()


def test_run_json_refuses_non_finite_values(tmp_path, monkeypatch):
    for bad in (math.inf, -math.inf, math.nan, np.float64(math.nan)):
        with pytest.raises(NumericError, match="non-finite"):
            runner.write_run_json(tmp_path / "run.json", {}, {"value": [1.0, bad]})
        assert not (tmp_path / "run.json").exists()
    monkeypatch.setattr("spinlab.parisi.alg_sp", lambda m: (math.inf, "full_rsb", 0.0))
    assert main(["thresholds", "--mixture", "p4", "--out", str(tmp_path / "o")]) == 4
    assert not (tmp_path / "o" / "run.json").exists()


def test_pde_run_rejects_zero_beta(tmp_path):
    config = {"subcommand": "pde", "mixture": "p2", "beta": 0, "grid": [6.0, 0.01]}
    with pytest.raises(ArgumentError, match="beta"):
        run(config, out_dir=str(tmp_path / "r"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg), "--out", str(tmp_path / "m")]) == 2


def test_pde_run_rejects_malformed_grids(tmp_path, monkeypatch):
    """Bad grids exit 2 (usage) or 3 (over the budget) before any slice or
    quadrature matrix is allocated."""

    def refuse(*args, **kwargs):
        raise AssertionError("no solve may start on a malformed grid")

    monkeypatch.setattr("spinlab.parisi.pde._backward", refuse)
    cases = (
        ([10, 0], 2),
        ([0, 0], 2),
        ([10, -0.05], 2),
        ([10], 2),
        ([10, 0.05, 3], 2),
        ([1e9, 0.01], 3),
    )
    for i, (grid, code) in enumerate(cases):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps({"subcommand": "pde", "mixture": "p2", "grid": grid}))
        assert main(["run", str(cfg), "--out", str(tmp_path / f"o{i}")]) == code, grid
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="budget"):
            run({"subcommand": "pde", "grid": [1e9, 0.01]}, out_dir=str(tmp_path / "r"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_optimize_workers_bounded_by_the_tensor_budget(tmp_path, monkeypatch):
    """Nine concurrent p4 replicas at n = 64 hold 9 * 2^24 entries, over the
    2^27 budget: refused before any tensor is sampled or thread started."""

    def refuse(*args, **kwargs):
        raise AssertionError("nothing may run once the budget is exceeded")

    monkeypatch.setattr("spinlab.runner.sample_hamiltonian", refuse)
    monkeypatch.setattr("spinlab.runner.pool_map", refuse)
    config = {"subcommand": "optimize", "mixture": "p4", "n": 64, "seeds": list(range(9))}
    for workers, code in ((9, 3), (65, 2)):
        cfg = tmp_path / f"cfg{workers}.json"
        cfg.write_text(json.dumps({**config, "workers": workers}))
        assert main(["run", str(cfg), "--out", str(tmp_path / f"o{workers}")]) == code
    want = "9 concurrent replicas hold 150994944 tensor entries, over the budget of 134217728"
    with pytest.raises(ResourceError, match=f"^{want}$"):
        run({**config, "workers": 12}, out_dir=str(tmp_path / "r"))


def test_embed_run(tmp_path):
    config = {
        "subcommand": "embed",
        "mixture": "p2",
        "n": 64,
        "tree": {"star": 2},
        "delta": 0.25,
        "seed": 1,
    }
    res = run(config, out_dir=str(tmp_path))
    assert res.status == 0
    assert res.payload["validated"]
    assert (tmp_path / "embedding.csv").exists()


def test_embed_rejects_malformed_tree(tmp_path):
    cfg = tmp_path / "cfg.json"
    bad_json = tmp_path / "tree.json"
    bad_json.write_text("{not json")
    trees = [
        {"foo": 1},
        {"vertices": [{"id": "r", "height": 0.0}]},
        {"vertices": [{"id": "r", "parent": None}]},
        {"vertices": [{"parent": None, "height": 0.0}]},
        {"vertices": "r"},
        str(bad_json),
        {"star": "abc"},
        {"binary": "x"},
        {"star": 0},
        {"vertices": [{"id": "r", "parent": None, "height": 0.0}, {"id": "a", "parent": ["r"], "height": 1.0}]},
        # exactly one tree form, and nothing beside it
        {"star": 2, "extra": 1},
        {"star": 3, "binary": 2},
        {"vertices": [{"id": "r", "parent": None, "height": 0.0}], "star": 2},
    ]
    for i, tree in enumerate(trees):
        cfg.write_text(json.dumps({"subcommand": "embed", "mixture": "p2", "n": 16, "tree": tree}))
        assert main(["run", str(cfg), "--out", str(tmp_path / f"o{i}")]) == 2, tree


# the 3-leaf tree "r" -> {"m" -> {"a", "b"}, "c"}, and each way of breaking it:
# new heights for some vertices, or a vertex whose id is taken
_GOOD_TREE = {"r": (None, 0.25), "m": ("r", 0.75), "a": ("m", 1.0), "b": ("m", 1.0), "c": ("r", 1.0)}
_BAD_TREES = {
    "nan_height": {"a": math.nan},
    "infinite_height": {"a": math.inf, "b": math.inf, "c": math.inf},
    "leaf_above_one": {"a": 2.0, "b": 2.0, "c": 2.0},
    "root_below_zero": {"r": -0.5},
    "repeated_id": None,
}


@pytest.mark.parametrize("case", sorted(_BAD_TREES))
def test_embed_refuses_a_malformed_tree_file(tmp_path, capsys, case):
    vertices = [{"id": v, "parent": p, "height": h} for v, (p, h) in _GOOD_TREE.items()]
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"vertices": vertices}))
    if case == "repeated_id":
        vertices.append({"id": "c", "parent": "m", "height": 1.0})
    else:
        vertices = [{**v, "height": _BAD_TREES[case].get(v["id"], v["height"])} for v in vertices]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": vertices}))  # NaN and Infinity as JSON literals
    argv = ["embed", "--mixture", "p2", "--n", "24", "--set"]
    assert main(argv + [f"tree={good}", "--out", str(tmp_path / "ok")]) == 0
    capsys.readouterr()
    out = tmp_path / "refused"
    assert main(argv + [f"tree={bad}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("delta", ("0", "-0.1", "NaN"))
def test_embed_refuses_a_non_positive_or_non_finite_delta(tmp_path, capsys, delta):
    """Each ended in a traceback (ZeroDivisionError, a math domain error)."""
    out = tmp_path / "o"
    assert main(["embed", "--n", "24", "--set", f"delta={delta}", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("usage error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    (
        ["optimize", "--alg", "subag", "--delta", "0"],
        ["optimize", "--alg", "langevin", "--set", "alg.dt=0"],
        ["optimize", "--alg", "gradient_ascent", "--set", "alg.steps=-1"],
        ["sandwich", "--set", "restarts=1", "--set", "eta=0"],
    ),
    ids=("subag-delta", "langevin-dt", "gradient-ascent-steps", "sandwich-eta"),
)
def test_degenerate_step_settings_exit_2(tmp_path, capsys, argv):
    """A zero step or eta, refused by the function doing the math: each ended
    in a ZeroDivisionError, or silently ran no step."""
    out = tmp_path / "o"
    assert main(argv + ["--mixture", "p2", "--n", "16", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("usage error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    (
        ["concentration", "--n", "16", "--set", "lambda=NaN"],
        ["sandwich", "--n", "16", "--set", "C=NaN"],
        ["optimize", "--n", "16", "--alg", "gradient_ascent", "--set", "alg.lr=NaN"],
        ["branching", "--n", "16", "--set", "qladder=[0.0,NaN,1.0]"],
        ["optimize", "--n", "16", "--alg", "langevin", "--set", "alg.beta=NaN"],
        ["pde", "--set", "beta=Infinity"],
    ),
    ids=("concentration-lambda", "sandwich-C", "gradient-ascent-lr", "branching-qladder", "langevin-beta",
         "pde-beta"),
)
def test_non_finite_set_values_exit_2(tmp_path, capsys, argv):
    """NaN and Infinity pass every schema bound: each of these reached the
    payload and exited 4, the pde run only after its whole solve, when its
    config echo had no JSON form."""
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: --set {argv[-1].partition('=')[0]}:") and "non-finite" in err
    assert not out.exists()


def test_concentration_run(tmp_path):
    config = {
        "subcommand": "concentration",
        "mixture": "p2",
        "n": 16,
        "reps": 30,
        "lambda": 0.2,
        "alg": {"name": "constant", "value": 0.5},
    }
    res = run(config, out_dir=str(tmp_path))
    assert res.status == 0
    assert res.payload["sd"] == 0.0
    # a constant output does not move with the disorder
    assert res.payload["lipschitz"] == {"max_ratio": 0.0, "mean_ratio": 0.0, "eps": 1e-3, "reps": 4}


def test_concentration_run_reports_the_lipschitz_probe(tmp_path):
    config = {"subcommand": "concentration", "mixture": "p2", "n": 16, "seed": 3}
    res = run(config, out_dir=str(tmp_path))

    def alg(h, seed):
        return build_algorithm({"name": "gradient_ascent"})(h, seed).final

    max_ratio, mean_ratio, _ = lipschitz_probe(alg, pure(2), 16, eps=1e-3, reps=4, seed=3)
    assert res.payload["lipschitz"] == {
        "max_ratio": max_ratio, "mean_ratio": mean_ratio, "eps": 1e-3, "reps": 4
    }
    assert 0.0 < mean_ratio <= max_ratio


def test_branching_run(tmp_path):
    config = {
        "subcommand": "branching",
        "mixture": "p2",
        "n": 24,
        "ks": [2],
        "qladder": [0.0, 1.0],
        "pladder": [0.0, 1.0],
        "alg": {"name": "constant", "value": 0.5},
        "reps": 1,
    }
    res = run(config, out_dir=str(tmp_path))
    assert res.status == 0
    assert (tmp_path / "overlap_rep0.csv").exists()


def test_sandwich_run(tmp_path):
    config = {
        "subcommand": "sandwich",
        "mixture": "p2",
        "n": 24,
        "ks": [1],
        "qladder": [0.2, 1.0],
        "pladder": [0.0, 1.0],
        "eta": 0.3,
        "restarts": 2,
        "B": 2.0,
        "beta": 2.0,
    }
    res = run(config, out_dir=str(tmp_path))
    assert res.status == 0
    assert "bound_per_n" in res.payload


@pytest.mark.parametrize("mixture", (None, "p4", "p2+p4"))
def test_sandwich_cli_defaults_are_feasible(tmp_path, mixture):
    """Without B the run picks one with B_zeta(0) = sqrt(max(xi''(1), 1)) for
    its composite profile, so the bound is defined at every default.  The
    default p2 run finds no feasible primal point, and its sandwich flag is
    then null, not a vacuous true."""
    argv = ["sandwich", "--n", "16", "--set", "restarts=1", "--out", str(tmp_path)]
    if mixture is not None:
        argv += ["--mixture", mixture]
    assert main(argv) == 0
    results = json.loads((tmp_path / "run.json").read_text())["results"]
    assert math.isfinite(results["bound_total"])
    assert results["primal_feasible"] is (mixture is not None)
    if results["primal_feasible"]:
        below = results["primal_grand_energy_per_n"] <= results["bound_per_n"]
        assert results["sandwich_holds"] is below
    else:
        assert results["primal_grand_energy_per_n"] is None
        assert results["sandwich_holds"] is None


def test_selftest_subset(tmp_path):
    res = run({"subcommand": "selftest", "criteria": ["1", "6"]}, out_dir=str(tmp_path))
    assert res.status == 0
    assert len(res.payload["criteria"]) == 2
    assert all(c["passed"] for c in res.payload["criteria"])


def test_run_json_writes_numpy_booleans_as_json_booleans(tmp_path):
    path = tmp_path / "run.json"
    runner.write_run_json(path, {}, {"a": np.bool_(False), "b": [np.True_, False]})
    text = path.read_text()
    assert '"a": false' in text
    assert "true" in text
    assert json.loads(text)["results"] == {"a": False, "b": [True, False]}


def test_run_json_keeps_integral_floats_floats(tmp_path):
    """An integral float is written with its point, so it reads back as a
    float; numpy scalars are written as their Python values."""
    path = tmp_path / "run.json"
    values = {"zero": 0.0, "two": np.float64(2.0), "half": np.float32(0.5), "count": np.int64(3)}
    runner.write_run_json(path, {}, values)
    back = json.loads(path.read_text())["results"]
    assert back == {"zero": 0.0, "two": 2.0, "half": 0.5, "count": 3}
    assert [type(back[k]) for k in values] == [float, float, float, int]
    assert main(["thresholds", "--mixture", "p4", "--out", str(tmp_path / "t")]) == 0
    q_hat = json.loads((tmp_path / "t" / "run.json").read_text())["results"]["alg_sp"]["q_hat"]
    assert type(q_hat) is float


def test_selftest_writes_numpy_booleans_as_json_booleans(tmp_path, monkeypatch):
    """Stub criteria that report numpy booleans; every real criterion reports
    a bool (test_acceptance checks it)."""

    def criterion_1_stub():
        return acceptance.CriterionResult("1 stub", np.bool_(True), "ok")

    def criterion_2_stub():
        return acceptance.CriterionResult("2 stub", np.bool_(False), "not ok")

    monkeypatch.setattr(acceptance, "CRITERIA", [criterion_1_stub, criterion_2_stub])
    assert main(["selftest", "--criteria", "1", "--out", str(tmp_path / "s")]) == 0
    results = json.loads((tmp_path / "s" / "run.json").read_text())["results"]
    assert [c["passed"] for c in results["criteria"]] == [True] and results["all_passed"] is True
    assert main(["selftest", "--out", str(tmp_path / "f")]) == 5
    results = json.loads((tmp_path / "f" / "run.json").read_text())["results"]
    assert [c["passed"] for c in results["criteria"]] == [True, False]
    assert type(results["all_passed"]) is bool and results["all_passed"] is False


def test_selftest_results_reproduce_and_seconds_live_under_meta(tmp_path):
    runs = []
    for name in ("a", "b"):
        res = run({"subcommand": "selftest", "criteria": ["1", "6"]}, out_dir=str(tmp_path / name))
        assert res.status == 0
        runs.append(json.loads((tmp_path / name / "run.json").read_text()))
    assert runs[0]["results"] == runs[1]["results"]
    for data in runs:
        names = [c["name"] for c in data["results"]["criteria"]]
        assert len(names) == 2
        seconds = data["meta"]["criterion_seconds"]
        assert list(seconds) == names and all(s > 0 for s in seconds.values())


def test_selftest_rejects_unknown_criteria_before_running_any(tmp_path, capsys, monkeypatch):
    out = tmp_path / "o"
    assert main(["selftest", "--criteria", "15", "foo", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'15'" in err and "'foo'" in err
    assert not (out / "run.json").exists()
    ran = []
    monkeypatch.setattr(acceptance, "run_criterion", lambda fn: ran.append(fn))
    with pytest.raises(ArgumentError, match="'foo'") as info:
        run({"subcommand": "selftest", "criteria": ["1", "foo"]}, out_dir=str(out))
    assert "'1'" not in str(info.value) and ran == []


def test_cli_exit_codes(tmp_path):
    assert main(["thresholds", "--mixture", "p4", "--out", str(tmp_path / "x")]) == 0
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    assert main(["thresholds", "--mixture", "x4", "--out", str(tmp_path / "y")]) == 2
    assert main(["thresholds", "--h", "0.5", "--out", str(tmp_path / "z")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"subcommand": "nope"}))
    assert main(["run", str(bad)]) == 2


@pytest.mark.parametrize("kind", ("malformed", "directory", "non_finite"))
def test_cli_unreadable_config_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "bad.json"
    if kind == "malformed":
        path.write_text("{bad")
    elif kind == "non_finite":
        path.write_text('{"subcommand": "pde", "beta": Infinity}')
    else:
        path.mkdir()
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    assert capsys.readouterr().err.startswith("usage error: config")


@pytest.mark.parametrize("case", ("out_is_a_file", "out_under_a_file", "tree_is_a_directory", "out_refused"))
def test_cli_unusable_paths_exit_2(tmp_path, capsys, monkeypatch, case):
    taken = tmp_path / "taken"
    taken.write_text("")
    out = {"out_is_a_file": taken, "out_under_a_file": taken / "sub"}.get(case, tmp_path / "o")
    argv = ["thresholds", "--mixture", "p2", "--out", str(out)]
    if case == "tree_is_a_directory":
        argv = ["embed", "--mixture", "p2", "--n", "16", "--set", f"tree={tmp_path}", "--out", str(out)]
    if case == "out_refused":
        def refuse(path, exist_ok=False):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(runner.os, "makedirs", refuse)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("usage error:")
    assert taken.is_file() and not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv", (["optimize", "--mixture", "p2", "--alg", "nope"], ["selftest", "--criteria", "15", "foo"])
)
def test_refused_run_leaves_no_output_directory(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path / "d")]) == 2
    assert main(argv + ["--out", str(tmp_path / "e" / "a" / "b")]) == 2
    assert list(tmp_path.iterdir()) == []
    kept = tmp_path / "kept"
    kept.mkdir()
    assert main(argv + ["--out", str(kept)]) == 2
    assert kept.is_dir()


@pytest.mark.parametrize("flags", (["--seeds", "0"], ["--seeds", "-2"], ["--set", "seeds=[]"]))
def test_cli_rejects_empty_seeds(tmp_path, flags):
    out = tmp_path / "o"
    argv = ["optimize", "--mixture", "p2", "--n", "16", "--alg", "constant", *flags]
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()


def test_integer_keys_given_as_whole_floats_read_as_integers(tmp_path):
    """The schema takes 2.0 as an integer, so run reads it as 2, in an array
    and an alg parameter too: seeds [1.0] ended in a TypeError."""
    config = {"subcommand": "optimize", "mixture": "p2", "n": 16, "seeds": [1, 2],
              "alg": {"name": "gradient_ascent", "steps": 3}}
    want = run(config, out_dir=str(tmp_path / "a")).payload
    floats = {**config, "n": 16.0, "seeds": [1.0, 2.0], "alg": {"name": "gradient_ascent", "steps": 3.0}}
    got = run(floats, out_dir=str(tmp_path / "b")).payload
    assert (got["n"], got["runs"]) == (want["n"], want["runs"])
    for seed in (1, 2):
        csv = f"trajectory_seed{seed}.csv"
        assert (tmp_path / "b" / csv).read_bytes() == (tmp_path / "a" / csv).read_bytes()


def test_cli_set_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "thresholds", "mixture": "p2"}))
    code = main(["run", str(cfg), "--set", "mixture=p4", "--out", str(tmp_path / "o")])
    assert code == 0
    data = json.loads((tmp_path / "o" / "run.json").read_text())
    assert data["results"]["alg_sp"]["value"] == pytest.approx(math.sqrt(3.0), abs=1e-9)
    cfg.write_text(json.dumps({"subcommand": "thresholds", "mixture": "p4"}))
    assert main(["run", str(cfg), "--set", "mixture.h=0.5", "--out", str(tmp_path / "s")]) == 2
    for stray in ("sed=3", "steps=3"):
        assert main(["run", str(cfg), "--set", stray, "--out", str(tmp_path / "s")]) == 2
