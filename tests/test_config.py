import json
import re
from dataclasses import replace

import numpy as np
import pytest

from slqr.config import (
    ExperimentConfig,
    fixture_names,
    fixture_path,
    from_dict,
    load_config,
    resolve_config,
    save_config,
    to_dict,
)
from slqr.errors import ConfigError


def minimal_doc():
    return {
        "mode": "model_based",
        "model": {
            "A": [[0.5]], "B": [[1.0]],
            "state_noise": [{"matrix": [[1.0]], "variance": 0.1}],
            "input_noise": [],
            "D": [[1.0]], "X0": [[1.0]],
        },
        "cost": {"Q": [[1.0]], "R": [[1.0]]},
        "pi": {"tol": 1e-9, "max_iter": 100},
    }


def learner_doc():
    doc = minimal_doc()
    doc["mode"] = "model_free"
    doc["learner"] = {
        "initial_gain": [[0.0]], "rollout_len": 100, "probe_var": 0.25,
        "rls_init_scale": 1e8, "max_iterations": 5, "gain_tol": 0.05,
        "cost_mode": "known_d",
    }
    doc["seeds"] = [0, 1]
    return doc


def test_shipped_fixtures_are_listed():
    assert fixture_names() == ["example_sec6", "scalar_smoke"]
    for name in fixture_names():
        assert fixture_path(name).is_file()
    with pytest.raises(ConfigError, match="unknown fixture"):
        fixture_path("nope")


def test_example_fixture_parses_to_the_published_system(sec6_config):
    config = sec6_config
    model, cost = config.model, config.cost
    assert config.mode == "both"
    assert model.state_dim == 3 and model.input_dim == 3
    np.testing.assert_allclose(np.diag(model.A), [0.8672, 0.7576, 0.7681])
    np.testing.assert_array_equal(model.B, np.eye(3))
    assert [var for _, var in model.state_noise] == [0.05, 0.015]
    assert [var for _, var in model.input_noise] == [0.05, 0.015]
    np.testing.assert_array_equal(model.D, 0.5 * np.eye(3))
    np.testing.assert_array_equal(model.X0, np.eye(3))
    np.testing.assert_array_equal(cost.Q, np.eye(3))
    np.testing.assert_array_equal(cost.R, np.eye(3))
    learner = config.learner
    assert learner.rollout_len == 42000
    assert learner.probe_var == 0.64
    assert learner.rls_init_scale == 1e8
    assert learner.max_iterations == 10
    assert learner.gain_tol == 0.05
    assert learner.cost_mode == "known_d"
    np.testing.assert_array_equal(learner.initial_gain, np.zeros((3, 3)))
    assert config.seeds == list(range(10))


def test_scalar_fixture_parses():
    config = load_config(fixture_path("scalar_smoke"))
    assert config.model.state_dim == 1 and config.model.input_dim == 1
    assert config.mode == "both"
    assert len(config.seeds) == 3


def test_missing_cost_entry_names_the_field():
    doc = minimal_doc()
    del doc["cost"]["R"]
    with pytest.raises(ConfigError, match=r"cost\.R"):
        from_dict(doc)


def test_negative_variance_names_the_channel():
    doc = minimal_doc()
    doc["model"]["state_noise"][0]["variance"] = -0.05
    with pytest.raises(ConfigError, match=r"state_noise\[0\] variance"):
        from_dict(doc)


@pytest.mark.parametrize("side", ["state_noise", "input_noise"])
@pytest.mark.parametrize("value", [{}, "ab", None, 3], ids=["object", "string", "null", "number"])
def test_a_channel_list_that_is_no_list_names_the_side(side, value):
    doc = minimal_doc()
    doc["model"][side] = value
    with pytest.raises(ConfigError, match=rf"^model\.{side} must be a list of channel objects$"):
        from_dict(doc)


def test_unknown_keys_are_rejected():
    doc = minimal_doc()
    doc["extra"] = 1
    with pytest.raises(ConfigError, match="unknown config field extra"):
        from_dict(doc)
    doc = minimal_doc()
    doc["model"]["G"] = [[1.0]]
    with pytest.raises(ConfigError, match=r"model\.G"):
        from_dict(doc)
    doc = learner_doc()
    doc["learner"]["warmup"] = 3
    with pytest.raises(ConfigError, match=r"learner\.warmup"):
        from_dict(doc)


def test_mode_values_are_checked():
    doc = minimal_doc()
    doc["mode"] = "offline"
    with pytest.raises(ConfigError, match="mode must be one of"):
        from_dict(doc)


def test_model_free_requires_seeds_and_learner():
    doc = learner_doc()
    doc["seeds"] = []
    with pytest.raises(ConfigError, match="seeds must be non-empty"):
        from_dict(doc)
    doc = learner_doc()
    del doc["learner"]
    with pytest.raises(ConfigError, match="learner"):
        from_dict(doc)
    # The rule holds for a config changed after loading, as by the CLI's --mode.
    with pytest.raises(ConfigError, match="learner"):
        replace(from_dict(minimal_doc()), mode="both")


def test_model_based_requires_pi_section():
    doc = minimal_doc()
    del doc["pi"]
    with pytest.raises(ConfigError, match="pi"):
        from_dict(doc)


def test_a_learner_config_without_pi_has_no_pi_settings(tmp_path):
    doc = learner_doc()
    del doc["pi"]
    config = from_dict(doc)
    assert (config.pi_tol, config.pi_max_iter) == (None, None)
    path = tmp_path / "no_pi.json"
    save_config(config, path)
    assert "pi" not in json.loads(path.read_text())
    assert to_dict(load_config(path)) == to_dict(config)
    # The rule holds for a config changed after loading, as by the CLI's --mode.
    with pytest.raises(ConfigError, match="pi section"):
        replace(config, mode="both")


@pytest.mark.parametrize("mode", ["model_based", "model_free", "both"])
@pytest.mark.parametrize("key", ["tol", "max_iter"])
def test_a_null_pi_value_is_an_error_in_every_mode(mode, key):
    # A null value is not an absent pi section: in model_free mode it would
    # load and then vanish from to_dict, in both mode it would be reported
    # as a missing section.
    doc = learner_doc()
    doc["mode"] = mode
    doc["pi"][key] = None
    with pytest.raises(ConfigError, match=rf"^pi\.{key} must not be null$"):
        from_dict(doc)


# Every number and matrix of learner_doc(), by its place in the document:
# (path, whether it is a matrix, its dotted name).
ENTRIES = [((section, key), False, f"{section}.{key}") for section, key in [
    ("learner", "rollout_len"), ("learner", "probe_var"), ("learner", "rls_init_scale"),
    ("learner", "max_iterations"), ("learner", "gain_tol"), ("learner", "cost_mode"),
    ("pi", "tol"), ("pi", "max_iter")]]
ENTRIES += [((section, key), True, f"{section}.{key}") for section, key in [
    ("model", "A"), ("model", "B"), ("model", "D"), ("model", "X0"), ("cost", "Q"),
    ("cost", "R"), ("learner", "initial_gain")]]
ENTRIES += [(("model", "state_noise", 0, "matrix"), True, "model.state_noise[0].matrix"),
            (("model", "state_noise", 0, "variance"), False, "model.state_noise[0].variance")]
NON_FINITE = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "huge": 10**400}


def set_entry(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize("path, value, field", [
    (("pi", "tol"), float("nan"), "pi.tol"),
    (("pi", "tol"), 10**400, "pi.tol"),
    (("model", "D"), [[float("nan")]], "model.D"),
    (("model", "A"), [[10**400]], "model.A"),
    (("model", "state_noise", 0, "variance"), float("inf"),
     "model.state_noise[0].variance"),
    (("cost", "Q"), [[float("-inf")]], "cost.Q"),
    (("learner", "probe_var"), float("nan"), "learner.probe_var"),
    (("learner", "initial_gain"), [[float("inf")]], "learner.initial_gain"),
] + [(path, [[bad]] if matrix else bad, field)
      for path, matrix, field in ENTRIES for bad in NON_FINITE.values()],
    ids=["nan", "huge", "nan-matrix", "huge-matrix", "inf", "-inf-matrix", "nan-learner",
         "inf-gain"] + [f"{field}-{name}" for _, _, field in ENTRIES for name in NON_FINITE])
def test_non_finite_values_name_the_field(tmp_path, path, value, field):
    # json reads NaN, Infinity, -Infinity and integers beyond the float
    # range; none of them is a valid entry.
    doc = learner_doc()
    set_entry(doc, path, value)
    file = tmp_path / "cfg.json"
    file.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=re.escape(field)):
        load_config(file)


def test_invalid_model_is_wrapped_as_config_error():
    doc = minimal_doc()
    doc["model"]["D"] = [[0.0]]
    with pytest.raises(ConfigError, match="D must be positive definite"):
        from_dict(doc)
    doc = minimal_doc()
    doc["cost"]["R"] = [[0.0]]
    with pytest.raises(ConfigError, match="R must be positive definite"):
        from_dict(doc)


def test_gain_shape_is_checked_against_the_model():
    doc = learner_doc()
    doc["learner"]["initial_gain"] = [[0.0, 0.0]]
    with pytest.raises(ConfigError, match="initial_gain"):
        from_dict(doc)


def test_scalar_values_are_type_checked():
    doc = minimal_doc()
    doc["pi"]["max_iter"] = 2.5
    with pytest.raises(ConfigError, match="max_iter must be an integer"):
        from_dict(doc)
    doc = minimal_doc()
    doc["pi"]["tol"] = "tight"
    with pytest.raises(ConfigError, match="tol must be a real number"):
        from_dict(doc)
    doc = minimal_doc()
    doc["seeds"] = [0, True]
    with pytest.raises(ConfigError, match=re.escape("seeds[1] must be an integer, got bool")):
        from_dict(doc)
    doc = minimal_doc()
    doc["output_dir"] = ""
    with pytest.raises(ConfigError, match="output_dir"):
        from_dict(doc)
    # A bool or a string is no number, in a matrix entry or in place of a
    # scalar, and a JSON null is none in a matrix entry. SystemModel names a
    # channel's entries "state_noise[0] variance" and "state_noise[0]".
    for path, matrix, field in ENTRIES:
        name = field.replace("].variance", "] variance").replace("].matrix", "]")
        for bad in (True, "1") + ((None,) if matrix else ()):
            doc = learner_doc()
            set_entry(doc, path, [[bad]] if matrix else bad)
            with pytest.raises(ConfigError, match=re.escape(name) + " must be"):
                from_dict(doc)


@pytest.mark.parametrize("field, value, message", [
    ("pi_tol", float("nan"), "pi.tol must be > 0"),
    ("pi_tol", -1.0, "pi.tol must be > 0"),
    ("pi_tol", "1e-9", "pi.tol must be a real number"),
    ("pi_tol", float("inf"), "pi.tol must be finite"),
    ("output_dir", "", "output_dir must be a non-empty string"),
    ("output_dir", None, "output_dir must be a non-empty string"),
    ("pi_max_iter", 0, "pi.max_iter must be >= 1"),
    ("pi_max_iter", 2.5, "pi.max_iter must be an integer"),
    ("seeds", [0, -1], "seeds[1] must be >= 0, got -1"),
    ("seeds", [0, 1.0], "seeds[1] must be an integer, got float"),
    ("seeds", (0, 1), "seeds must be a list of integers >= 0"),
])
def test_range_rules_hold_for_a_replaced_config(field, value, message):
    # ExperimentConfig checks the ranges itself, so a config changed after
    # loading, as by the CLI's --seeds, is held to them.
    config = from_dict(learner_doc())
    with pytest.raises(ConfigError, match=re.escape(message)):
        replace(config, **{field: value})


def test_seeds_are_stored_as_python_integers(tmp_path):
    # So is every other count, and save_config writes them as JSON integers.
    config = from_dict(learner_doc())
    learner = replace(config.learner, rollout_len=np.int64(100), max_iterations=np.int32(2),
                      seed=np.uint8(1))
    config = replace(config, seeds=[np.int64(3), 4], pi_max_iter=np.int16(50), learner=learner)
    assert config.seeds == [3, 4]
    counts = [*config.seeds, config.pi_max_iter, learner.rollout_len, learner.max_iterations,
              learner.seed]
    assert counts == [3, 4, 50, 100, 2, 1]
    assert all(type(count) is int for count in counts)
    path = tmp_path / "counts.json"
    save_config(config, path)
    assert to_dict(load_config(path)) == to_dict(config)


def test_round_trip_is_stable(sec6_config):
    doc = to_dict(sec6_config)
    assert to_dict(from_dict(doc)) == doc
    doc2 = to_dict(from_dict(to_dict(from_dict(learner_doc()))))
    assert doc2 == to_dict(from_dict(learner_doc()))
    # Real-valued settings load as floats, also when written as integers.
    doc = learner_doc()
    doc["learner"]["probe_var"] = doc["pi"]["tol"] = doc["model"]["state_noise"][0]["variance"] = 1
    saved = to_dict(from_dict(doc))
    assert all(type(value) is float for value in (
        saved["learner"]["probe_var"], saved["pi"]["tol"],
        saved["model"]["state_noise"][0]["variance"]))


def test_save_and_load_round_trip(tmp_path, sec6_config):
    path = tmp_path / "roundtrip.json"
    save_config(sec6_config, path)
    loaded = load_config(path)
    assert to_dict(loaded) == to_dict(sec6_config)


def test_load_reports_parse_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "mode": "both",\n  oops\n}\n')
    with pytest.raises(ConfigError, match="line 3"):
        load_config(path)
    path.write_text("[" * 100000 + "]" * 100000)   # deeper than json's recursion limit
    with pytest.raises(ConfigError, match="nested too deeply"):
        load_config(path)
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.json")


def test_resolve_config_accepts_paths_and_fixture_names(tmp_path):
    assert resolve_config("example_sec6") == fixture_path("example_sec6")
    path = tmp_path / "cfg.json"
    save_config(from_dict(minimal_doc()), path)
    assert resolve_config(str(path)) == path
    with pytest.raises(ConfigError, match="not found"):
        resolve_config(str(tmp_path / "missing.json"))


def test_top_level_document_must_be_an_object():
    with pytest.raises(ConfigError, match="must be an object"):
        from_dict([1, 2, 3])
