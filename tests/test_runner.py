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
from spinlab.runner import build_algorithm, parse_mixture, run, validate_config
from spinlab.__main__ import main


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


def test_schema_validation():
    with pytest.raises(ArgumentError, match="subcommand"):
        validate_config({"subcommand": "nope"})
    with pytest.raises(ArgumentError):
        validate_config({})
    validate_config({"subcommand": "thresholds", "mixture": "p4"})
    for stray in ("sed", "steps"):  # a typo, and a setting that lives in "alg"
        with pytest.raises(ArgumentError, match="Additional properties"):
            validate_config({"subcommand": "thresholds", stray: 3})


@pytest.mark.parametrize("knots", [4, 12, 24, 1024])
def test_thresholds_rejects_knots_off_the_refinement_ladder(tmp_path, knots, monkeypatch):
    """alg_is_levels refines 8, 16, 32, ...: any other knot count exits 2
    before the ALG search starts."""
    monkeypatch.setattr("spinlab.runner.alg_is_numeric", lambda *a, **k: pytest.fail("searched"))
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


def test_amp_default_horizon_stays_in_the_evaluation_ball(tmp_path):
    # the unclipped identity put |x^1|_N^2 near xi'(1), and the next gradient
    # outside the sqrt(2) ball, on most of these seeds
    alg = build_algorithm({"name": "amp"})
    for m in (pure(2), pure(4), Mixture({2: 1.0, 4: 1.0})):
        for seed in range(10):
            traj = alg(sample_hamiltonian(m, 16, seed), seed)
            assert len(traj.iterates) == 3 and np.all(np.isfinite(traj.energies))
    # x^0 = 1 is inside the clip, so one step is the plain identity step
    h = sample_hamiltonian(pure(2), 16, 3)
    identity = AmpSpec(fs=[lambda *xs: xs[-1]], lipschitz=[1.0], horizon=1)
    one = build_algorithm({"name": "amp", "horizon": 1})(h, 3)
    assert np.array_equal(one.final, amp(h, identity, seed=3).final)
    assert main(["optimize", "--alg", "amp", "--n", "16", "--out", str(tmp_path / "amp")]) == 0


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
    monkeypatch.setattr(runner, "solve_parisi_pde", counted)
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


@pytest.mark.parametrize("gammas", [{"2": "abc"}, {"x": 1}, {"2": [1]}])
def test_thresholds_rejects_ill_typed_gammas(tmp_path, gammas):
    with pytest.raises(ArgumentError, match="bad mixture"):
        parse_mixture({"gammas": gammas})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "thresholds", "mixture": {"gammas": gammas}}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2


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
    monkeypatch.setattr(runner, "alg_sp", lambda m: (math.inf, "full_rsb", 0.0))
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

    monkeypatch.setattr("spinlab.parisi.pde._solve_on_grid", refuse)
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
    monkeypatch.setattr("spinlab.runner.ThreadPoolExecutor", refuse)
    config = {"subcommand": "optimize", "mixture": "p4", "n": 64, "seeds": list(range(9))}
    for workers, code in ((9, 3), (65, 2)):
        cfg = tmp_path / f"cfg{workers}.json"
        cfg.write_text(json.dumps({**config, "workers": workers}))
        assert main(["run", str(cfg), "--out", str(tmp_path / f"o{workers}")]) == code
    with pytest.raises(ResourceError):
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
    ]
    for i, tree in enumerate(trees):
        cfg.write_text(json.dumps({"subcommand": "embed", "mixture": "p2", "n": 16, "tree": tree}))
        assert main(["run", str(cfg), "--out", str(tmp_path / f"o{i}")]) == 2, tree


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


def test_selftest_subset(tmp_path):
    res = run({"subcommand": "selftest", "criteria": ["1", "6"]}, out_dir=str(tmp_path))
    assert res.status == 0
    assert len(res.payload["criteria"]) == 2
    assert all(c["passed"] for c in res.payload["criteria"])


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
    monkeypatch.setattr(acceptance, "run_criterion", lambda fn, verbose=True: ran.append(fn))
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


@pytest.mark.parametrize("kind", ("malformed", "directory"))
def test_cli_unreadable_config_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "bad.json"
    if kind == "malformed":
        path.write_text("{bad")
    else:
        path.mkdir()
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("usage error: config")


@pytest.mark.parametrize("flags", (["--seeds", "0"], ["--seeds", "-2"], ["--set", "seeds=[]"]))
def test_cli_rejects_empty_seeds(tmp_path, flags):
    out = tmp_path / "o"
    argv = ["optimize", "--mixture", "p2", "--n", "16", "--alg", "constant", *flags]
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()


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
