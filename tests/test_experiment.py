import csv
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

import slqr.config as config_module
import slqr.experiment as experiment_module
from slqr.analysis import average_cost, solve_value_kernel
from slqr.cli import main
from slqr.config import fixture_path, from_dict, load_config, to_dict
from slqr.errors import InsufficientExcitationError, NotAdmissibleError, SolverFailure
from slqr.experiment import (
    CSV_HEADER,
    ConvergenceRecord,
    emit_convergence_csv,
    reference_solution,
    run_experiment,
)
from slqr.policy_iteration import policy_iteration


def read_lines(path):
    return path.read_text().splitlines()


def test_reference_solution_on_the_example_system(sec6, sec6_reference):
    model, cost = sec6
    p_ref, l_ref, lam_ref = reference_solution(model, cost)
    p_star, l_star, lam_star = sec6_reference
    np.testing.assert_allclose(p_ref, p_star, atol=1e-9)
    np.testing.assert_allclose(l_ref, l_star, atol=1e-9)
    assert abs(lam_ref - lam_star) <= 1e-9


def test_csv_header_only_for_empty_records(tmp_path):
    path = tmp_path / "convergence.csv"
    emit_convergence_csv([], path)
    assert read_lines(path) == [",".join(CSV_HEADER)]


def test_csv_single_record_has_two_lines(tmp_path):
    path = tmp_path / "convergence.csv"
    emit_convergence_csv([ConvergenceRecord("model_based", 0, 0, 0.5, 0.25, 2.0)],
                         path)
    lines = read_lines(path)
    assert len(lines) == 2
    assert lines[1] == "model_based,0,0,0.5,0.25,2.0"


def test_csv_rows_are_sorted_and_full_precision(tmp_path):
    records = [
        ConvergenceRecord("model_free", 2, 1, 0.1, 0.1, 2.0),
        ConvergenceRecord("model_based", 0, 1, 1.0 / 3.0, 0.2, 2.0),
        ConvergenceRecord("model_free", 0, 0, 0.3, 0.3, 2.0),
        ConvergenceRecord("model_based", 0, 0, 0.9, 0.4, 2.0),
        ConvergenceRecord("model_free", 2, 0, 0.2, 0.5, 2.0),
    ]
    path = tmp_path / "convergence.csv"
    emit_convergence_csv(records, path)
    lines = read_lines(path)
    keys = [tuple(line.split(",")[:3]) for line in lines[1:]]
    assert keys == [("model_based", "0", "0"), ("model_based", "0", "1"),
                    ("model_free", "0", "0"), ("model_free", "2", "0"),
                    ("model_free", "2", "1")]
    third = lines[2].split(",")[3]
    assert float(third) == 1.0 / 3.0  # repr round-trips exactly


def test_run_experiment_scalar_fixture_end_to_end(tmp_path):
    config = load_config(fixture_path("scalar_smoke"))
    summary = run_experiment(config, output_dir=tmp_path / "out")
    assert (tmp_path / "out" / "convergence.csv").is_file()
    assert (tmp_path / "out" / "summary.json").is_file()
    assert "aborted" not in summary

    ref = summary["reference"]
    assert abs(ref["lambda"] - 1.266321) <= 1e-4
    mb = summary["model_based"]
    assert mb["converged"] and mb["gain_error"] <= 1e-6
    seeds = summary["model_free"]["seeds"]
    assert sorted(seeds) == ["0", "1", "2"]
    for entry in seeds.values():
        assert entry["converged"]
        assert entry["gain_error"] <= 0.1

    on_disk = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert on_disk["reference"]["lambda"] == ref["lambda"]


@pytest.mark.parametrize("fixture, seeds, cost_mode", [
    ("scalar_smoke", None, None), ("example_sec6", [0], None),
    ("example_sec6", [0], "empirical")],
    ids=["scalar_smoke", "example_sec6", "example_sec6_empirical"])
def test_run_experiment_is_byte_deterministic(tmp_path, fixture, seeds, cost_mode):
    # example_sec6 is the fixture with input channels, whose rollout also
    # forms the channel-times-probe products; in empirical mode the fit also
    # solves for D-hat.
    config = load_config(fixture_path(fixture))
    if seeds is not None:
        config = replace(config, seeds=seeds)
    if cost_mode is not None:
        config = replace(config, learner=replace(config.learner, cost_mode=cost_mode))
    run_experiment(config, output_dir=tmp_path / "a")
    run_experiment(config, output_dir=tmp_path / "b")
    assert ((tmp_path / "a" / "convergence.csv").read_bytes()
            == (tmp_path / "b" / "convergence.csv").read_bytes())
    assert ((tmp_path / "a" / "summary.json").read_bytes()
            == (tmp_path / "b" / "summary.json").read_bytes())


def test_model_based_trace_contracts_monotonically(tmp_path, sec6_config):
    # Every recorded gain error shrinks strictly until the optimum is hit.
    config = replace(sec6_config, mode="model_based")
    run_experiment(config, output_dir=tmp_path)
    rows = [line.split(",") for line in read_lines(tmp_path / "convergence.csv")[1:]]
    assert all(row[0] == "model_based" for row in rows)
    errors = [float(row[3]) for row in rows]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-6
    taus = [int(row[2]) for row in rows]
    assert taus == list(range(len(rows)))


def test_learner_failure_aborts_with_context_and_partial_artifacts(tmp_path):
    doc = to_dict(load_config(fixture_path("scalar_smoke")))
    doc["mode"] = "model_free"
    doc["learner"]["rollout_len"] = 2  # two samples cannot identify 3 parameters
    config = from_dict(doc)
    with pytest.raises(InsufficientExcitationError,
                       match="method model_free, seed 0: iteration 0"):
        run_experiment(config, output_dir=tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["aborted"] is True
    assert "reference" in summary
    assert read_lines(tmp_path / "convergence.csv") == [",".join(CSV_HEADER)]


def test_aborted_summary_lists_the_seeds_whose_rows_were_written(tmp_path, monkeypatch):
    doc = to_dict(load_config(fixture_path("scalar_smoke")))
    doc["mode"] = "model_free"
    doc["seeds"] = [0, 1, 2]
    config = from_dict(doc)
    learn = experiment_module.run_online_learning

    def failing_on_seed_2(model, cost, learner):
        if learner.seed == 2:
            raise SolverFailure("seed 2 fails")
        return learn(model, cost, learner)

    monkeypatch.setattr(experiment_module, "run_online_learning", failing_on_seed_2)
    with pytest.raises(SolverFailure, match="^method model_free, seed 2: seed 2 fails$"):
        run_experiment(config, output_dir=tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert sorted(summary) == ["aborted", "model_free", "reference"]
    assert summary["model_free"]["cost_mode"] == config.learner.cost_mode
    rows = [line.split(",") for line in read_lines(tmp_path / "convergence.csv")[1:]]
    assert rows and {row[1] for row in rows} == {"0", "1"}
    assert sorted(summary["model_free"]["seeds"]) == ["0", "1"]


def test_inadmissible_initial_gain_is_reported_before_any_rollout(tmp_path):
    doc = to_dict(load_config(fixture_path("scalar_smoke")))
    doc["mode"] = "model_free"
    doc["learner"]["initial_gain"] = [[5.0]]
    config = from_dict(doc)
    # The wording of policy_iteration's own initial check.
    with pytest.raises(NotAdmissibleError,
                       match=r"^method model_free: initial gain is not admissible: "
                             r"moment spectral radius \S+ >= 1$"):
        run_experiment(config, output_dir=tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["aborted"] is True
    assert "reference" in summary
    assert read_lines(tmp_path / "convergence.csv") == [",".join(CSV_HEADER)]


@pytest.mark.parametrize("fixture", ["scalar_smoke", "example_sec6"])
@pytest.mark.parametrize("mode", ["model_based", "model_free", "both"])
def test_one_admissibility_check_per_experiment(tmp_path, monkeypatch, fixture, mode):
    # Both fixtures start the learner from the zero gain, which the
    # policy-iteration run has already checked: one exact check in all.
    config = replace(load_config(fixture_path(fixture)), mode=mode, seeds=[0])
    assert not config.learner.initial_gain.any()
    calls = []
    check = experiment_module.is_admissible

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    for module in ("slqr.analysis", "slqr.policy_iteration", "slqr.experiment"):
        monkeypatch.setattr(f"{module}.is_admissible", counted)
    run_experiment(config, output_dir=tmp_path)
    assert len(calls) == 1


def separate_runs(config):
    """The reference and model_based summary blocks and CSV rows that two
    separate policy-iteration runs from the zero gain give: the reference's
    at (1e-10, 500) and the configured one at (pi.tol, pi.max_iter), whose
    final gain gets a cold solve of its own."""
    model, cost = config.model, config.cost
    zero = np.zeros((model.input_dim, model.state_dim))
    ref = policy_iteration(model, cost, zero, tol=1e-10, max_iter=500)
    assert ref.converged
    kernel_ref, gain_ref, lam_ref = ref.kernels[-1], ref.gains[-1], ref.costs[-1]
    trace = policy_iteration(model, cost, zero, tol=config.pi_tol,
                             max_iter=config.pi_max_iter)
    lams = trace.costs + [average_cost(solve_value_kernel(model, cost, trace.gains[-1]),
                                       model.D)]
    rows = [f"model_based,0,{tau},{float(np.linalg.norm(gain - gain_ref))!r},"
            f"{abs(lam - lam_ref) / abs(lam_ref)!r},{lam!r}"
            for tau, (gain, lam) in enumerate(zip(trace.gains, lams))]
    blocks = {
        "reference": {"P": kernel_ref.tolist(), "L": gain_ref.tolist(),
                      "lambda": lam_ref},
        "model_based": {
            "converged": trace.converged, "iterations": trace.iterations,
            "P": trace.kernels[-1].tolist(), "L": trace.gains[-1].tolist(),
            "lambda": trace.costs[-1],
            "gain_error": float(np.linalg.norm(trace.gains[-1] - gain_ref)),
        },
    }
    return blocks, rows, ref.iterations


@pytest.mark.parametrize("fixture", ["scalar_smoke", "example_sec6"])
def test_one_run_gives_what_two_separate_runs_give(tmp_path, fixture):
    base = replace(load_config(fixture_path(fixture)), mode="model_based")
    _, _, reference_sweeps = separate_runs(base)
    settings = [(base.pi_tol, base.pi_max_iter), (1e-6, base.pi_max_iter), (1e-9, 2),
                (1e-12, base.pi_max_iter), (1e-9, reference_sweeps)]
    for k, (tol, max_iter) in enumerate(settings):
        config = replace(base, pi_tol=tol, pi_max_iter=max_iter)
        blocks, rows, _ = separate_runs(config)
        run_experiment(config, output_dir=tmp_path / str(k))
        summary = json.loads((tmp_path / str(k) / "summary.json").read_text())
        for name, block in blocks.items():
            assert (json.dumps(summary[name], sort_keys=True)
                    == json.dumps(block, sort_keys=True)), (tol, max_iter, name)
        assert read_lines(tmp_path / str(k) / "convergence.csv")[1:] == rows, (tol, max_iter)


@pytest.mark.parametrize("mode", ["model_based", "model_free", "both"])
def test_one_policy_iteration_run_per_experiment(tmp_path, monkeypatch, mode):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return policy_iteration(*args, **kwargs)

    monkeypatch.setattr(experiment_module, "policy_iteration", counted)
    config = replace(load_config(fixture_path("scalar_smoke")), mode=mode, seeds=[0])
    run_experiment(config, output_dir=tmp_path)
    assert len(calls) == 1


def test_cli_fixtures_and_check(capsys):
    assert main(["fixtures"]) == 0
    out = capsys.readouterr().out
    assert "example_sec6" in out and "scalar_smoke" in out

    assert main(["check", "--config", "scalar_smoke"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "n=1" in out


def test_cli_leaves_the_numpy_error_state_unchanged(tmp_path, capsys):
    # Start from a state that is not numpy's default, so that a setting leaked
    # by an earlier main() call cannot match it by chance.
    with np.errstate(over="print", invalid="print"):
        before = np.geterr()
        assert main(["fixtures"]) == 0
        assert main(["run", "--config", "scalar_smoke", "--mode", "model_based",
                     "--out", str(tmp_path)]) == 0
        assert main(["check", "--config", str(tmp_path / "missing.json")]) == 1
        assert np.geterr() == before


def test_cli_run_model_based(tmp_path, capsys):
    code = main(["run", "--config", "example_sec6", "--mode", "model_based",
                 "--out", str(tmp_path / "mb")])
    assert code == 0
    out = capsys.readouterr().out
    assert "reference lambda* = 2.194275" in out
    assert (tmp_path / "mb" / "convergence.csv").is_file()


def test_cli_seed_override(tmp_path, capsys):
    code = main(["run", "--config", "scalar_smoke", "--seeds", "2",
                 "--out", str(tmp_path / "s")])
    assert code == 0
    summary = json.loads((tmp_path / "s" / "summary.json").read_text())
    assert sorted(summary["model_free"]["seeds"]) == ["2"]


def test_cli_output_dir_precedence(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SLQR_OUTPUT_DIR", str(tmp_path / "from_env"))
    assert main(["run", "--config", "scalar_smoke", "--mode", "model_based"]) == 0
    capsys.readouterr()
    assert (tmp_path / "from_env" / "summary.json").is_file()
    # An explicit --out wins over the environment.
    assert main(["run", "--config", "scalar_smoke", "--mode", "model_based",
                 "--out", str(tmp_path / "explicit")]) == 0
    capsys.readouterr()
    assert (tmp_path / "explicit" / "summary.json").is_file()


def test_cli_config_error_exit_code(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert main(["run", "--config", "scalar_smoke", "--seeds", "a,b"]) == 1


def test_cli_rollout_too_long_to_allocate_exits_2(tmp_path, capsys):
    # A rollout_len of 10**300 passes the loader; the rollout's allocation
    # fails numpy's size check and ends in one line and exit code 2.
    doc = to_dict(load_config(fixture_path("scalar_smoke")))
    doc["learner"]["rollout_len"] = 10**300
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--mode", "model_free",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n_steps is too large" in err
    assert err.count("\n") == 1


def test_cli_without_a_fixtures_directory_reports_an_unknown_fixture(
        tmp_path, capsys, monkeypatch):
    # A package built without its fixtures/ directory lists no fixtures, and
    # a fixture name is a config error, not a traceback.
    monkeypatch.setattr(config_module.resources, "files", lambda package: tmp_path)
    assert config_module.fixture_names() == []
    assert main(["check", "--config", "example_sec6"]) == 1
    err = capsys.readouterr().err
    assert err == "config error: unknown fixture 'example_sec6'; shipped fixtures: []\n"


def test_cli_unreadable_configs_are_a_config_error(tmp_path, capsys):
    # A directory and a file that is not UTF-8 each end in one line and exit
    # code 1, not a traceback.
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"mode": "caf\xe9"}')
    for path, message in ((tmp_path, "cannot read: Is a directory"),
                          (latin, "not UTF-8 text (byte 13")):
        for verb in ("run", "check"):
            assert main([verb, "--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error:") and message in err, err
            assert err.count("\n") == 1


def test_cli_output_dir_under_a_file_is_a_config_error(tmp_path, capsys, monkeypatch):
    # --out below a regular file (or that file itself) is rejected before any
    # solve runs, with one line and exit code 1.
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr("slqr.cli.run_experiment",
                        lambda *args, **kwargs: pytest.fail("solve ran"))
    for out in (blocker / "out", blocker / "a" / "b", blocker):
        assert main(["run", "--config", "scalar_smoke", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: output directory {out}: {blocker} is not a directory\n"


@pytest.mark.parametrize("seeds, message", [
    pytest.param("-1", "seeds[0] must be >= 0, got -1", id="-1"),
    pytest.param("0,-3", "seeds[1] must be >= 0, got -3", id="0,-3")])
def test_cli_negative_seeds_are_a_config_error(tmp_path, capsys, seeds, message):
    # Rejected with the config, before any solve runs or any file is written.
    out = tmp_path / "out"
    assert main(["run", "--config", "scalar_smoke", f"--seeds={seeds}",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def fixture_doc(name):
    return json.loads(fixture_path(name).read_text())


def test_cli_rejects_a_non_finite_config_value(tmp_path, capsys):
    doc = fixture_doc("scalar_smoke")
    doc["pi"]["tol"] = float("nan")
    path = tmp_path / "nan_tol.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "pi.tol" in capsys.readouterr().err


def test_cli_run_with_a_zero_optimal_cost(tmp_path, capsys):
    # Q = 0 makes lambda* = 0: a relative error is then inf, or 0.0 for an
    # exact lambda.
    doc = fixture_doc("scalar_smoke")
    doc["cost"]["Q"] = [[0]]
    path, out = tmp_path / "zero_q.json", tmp_path / "out"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    with open(out / "convergence.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reference"]["lambda"] == 0.0
    for row in rows:
        exact = float(row["lambda"]) == 0.0
        assert float(row["rel_cost_error"]) == (0.0 if exact else float("inf"))
    assert {row["method"] for row in rows} == {"model_based", "model_free"}
    for entry in summary["model_free"]["seeds"].values():
        assert entry["rel_cost_error"] == (0.0 if entry["lambda"] == 0.0 else float("inf"))


def test_cli_mode_override_requires_a_pi_section(tmp_path, capsys):
    doc = fixture_doc("scalar_smoke")
    doc["mode"] = "model_free"
    del doc["pi"]
    path = tmp_path / "no_pi.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--mode", "both",
                 "--out", str(tmp_path / "out")]) == 1
    assert "pi section" in capsys.readouterr().err


def test_cli_solver_failure_exit_code(tmp_path, capsys):
    doc = {
        "mode": "model_based",
        "model": {
            "A": [[0.9]], "B": [[1.0]],
            "state_noise": [{"matrix": [[1.0]], "variance": 0.2}],
            "input_noise": [],
            "D": [[1.0]], "X0": [[1.0]],
        },
        "cost": {"Q": [[1.0]], "R": [[1.0]]},
        "pi": {"tol": 1e-9, "max_iter": 100},
        "output_dir": str(tmp_path / "unused"),
    }
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: reference solve: ") and "not admissible" in err
    assert not (tmp_path / "unused").exists()


def test_cli_average_cost_beyond_the_float_range_exits_2(tmp_path, capsys):
    # D[0][0] = 1e308 keeps D finite, but tr(P D) of the zero gain overflows:
    # the reference solve fails at its first iteration, without a warning.
    doc = fixture_doc("example_sec6")
    doc["model"]["D"][0][0] = 1e308
    path = tmp_path / "huge_d.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        status = main(["run", "--config", str(path), "--mode", "model_based",
                       "--out", str(tmp_path / "out")])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error: reference solve: iteration 0: average cost tr(P D) is ")
    assert not (tmp_path / "out").exists()


def scalar_leaves(doc, path=()):
    """The paths of every entry of doc that is neither an object nor a list."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from scalar_leaves(value, path + (key,))
        else:
            yield path + (key,)


CORRUPTIONS = ["x", None, True, [], [[1, 2]], 2.5, 0, -1, 1e308, -1e308, 1e-320, {}]


def test_every_corrupted_scalar_leaf_stays_inside_the_cli_contract(tmp_path, capsys):
    # Each scalar of the fixture replaced in turn by each corruption, with
    # check and with a run in each mode: an exit code of 0, 1 or 2, and no
    # exception or RuntimeWarning.
    doc = fixture_doc("scalar_smoke")
    path, out = tmp_path / "corrupted.json", str(tmp_path / "out")
    commands = [["check"], ["run", "--mode", "model_based", "--out", out],
                ["run", "--mode", "model_free", "--seeds", "0", "--out", out]]
    breaches = []
    for leaf in scalar_leaves(doc):
        for value in CORRUPTIONS:
            corrupted = json.loads(json.dumps(doc))
            entry = corrupted
            for key in leaf[:-1]:
                entry = entry[key]
            entry[leaf[-1]] = value
            path.write_text(json.dumps(corrupted))
            for command in commands:
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error", RuntimeWarning)
                        status = main(command[:1] + ["--config", str(path)] + command[1:])
                except Exception as exc:   # any exception breaks the contract
                    status = f"{type(exc).__name__}: {exc}"
                if status not in (0, 1, 2):
                    breaches.append((leaf, value, command[:3], status))
    capsys.readouterr()
    assert breaches == []
