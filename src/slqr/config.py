"""Experiment configuration: one JSON document describing the plant, the cost,
and which solvers to run.

Schema (matrices are row-major nested arrays):

    {
      "mode": "model_based" | "model_free" | "both",
      "model": {
        "A": [[...]], "B": [[...]],
        "state_noise": [{"matrix": [[...]], "variance": 0.05}, ...],
        "input_noise": [{"matrix": [[...]], "variance": 0.05}, ...],
        "D": [[...]], "X0": [[...]]
      },
      "cost": {"Q": [[...]], "R": [[...]]},
      "pi": {"tol": 1e-9, "max_iter": 200},
      "learner": {
        "initial_gain": [[...]], "rollout_len": 42000, "probe_var": 0.64,
        "rls_init_scale": 1e8, "max_iterations": 10, "gain_tol": 0.05,
        "cost_mode": "known_d" | "empirical"
      },
      "seeds": [0, 1, ...],
      "output_dir": "results"
    }

"pi" is required for model_based/both, "learner" and non-empty "seeds" for
model_free/both. ExperimentConfig itself checks the mode, these rules and
the ranges of pi.tol (> 0), pi.max_iter (>= 1) and the seeds (integers
>= 0), so a config changed with dataclasses.replace, as by the CLI's
--mode and --seeds, is held to them too. Every number
in the document must be finite (json accepts NaN and Infinity).
load_config(save_config(cfg)) reproduces the config exactly.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigError, ValidationError
from .qlearning import LearnerConfig
from .system import CostModel, SystemModel, check_integer, check_positive, is_integer

MODES = ("model_based", "model_free", "both")

_MODEL_KEYS = {"A", "B", "state_noise", "input_noise", "D", "X0"}
_LEARNER_KEYS = {"initial_gain", "rollout_len", "probe_var", "rls_init_scale",
                 "max_iterations", "gain_tol", "cost_mode"}
_TOP_KEYS = {"mode", "model", "cost", "pi", "learner", "seeds", "output_dir"}


@dataclass
class ExperimentConfig:
    mode: str
    model: SystemModel
    cost: CostModel
    pi_tol: float | None   # None when the config has no pi section
    pi_max_iter: int | None
    learner: LearnerConfig | None
    seeds: list[int]
    output_dir: str

    def __post_init__(self):
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ConfigError("output_dir must be a non-empty string")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.seeds, list) or not all(
                is_integer(s) and s >= 0 for s in self.seeds):
            raise ConfigError(f"seeds must be a list of integers >= 0, got {self.seeds!r}")
        self.seeds = [int(s) for s in self.seeds]
        if self.runs_model_free():
            if self.learner is None:
                raise ConfigError("mode requires a learner section in the config")
            if not self.seeds:
                raise ConfigError("seeds must be non-empty when mode runs the learner")
        if self.runs_model_based() and None in (self.pi_tol, self.pi_max_iter):
            raise ConfigError("mode requires a pi section in the config")
        try:
            if self.pi_tol is not None:
                check_positive(self.pi_tol, "pi.tol", finite=True)
            if self.pi_max_iter is not None:
                check_integer(self.pi_max_iter, "pi.max_iter", 1)
        except ValidationError as exc:
            raise ConfigError(str(exc)) from None

    def runs_model_based(self) -> bool:
        return self.mode in ("model_based", "both")

    def runs_model_free(self) -> bool:
        return self.mode in ("model_free", "both")


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"config missing {where}{key}")
    return doc[key]


def _matrix(doc: dict, key: str, where: str) -> np.ndarray:
    raw = _require(doc, key, where)
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}{key} is not a numeric matrix: {exc}") from None
    if arr.ndim != 2:
        raise ConfigError(f"{where}{key} must be a 2-d nested array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ConfigError(f"{where}{key} has non-finite entries")
    return arr


def _number(doc: dict, key: str, where: str) -> float:
    raw = _require(doc, key, where)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{where}{key} must be a number, got {type(raw).__name__}")
    if not abs(raw) <= sys.float_info.max:   # NaN, Infinity or too large a float
        raise ConfigError(f"{where}{key} must be finite, got {raw}")
    return float(raw)


def _integer(doc: dict, key: str, where: str) -> int:
    raw = _require(doc, key, where)
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"{where}{key} must be an integer, got {type(raw).__name__}")
    return raw


def _reject_unknown(doc: dict, allowed: set, where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown config field {where}{sorted(unknown)[0]}")


def _noise_list(doc: dict, key: str, where: str) -> list[tuple[np.ndarray, float]]:
    raw = doc.get(key, [])
    if not isinstance(raw, list):
        raise ConfigError(f"{where}{key} must be a list of channel objects")
    channels = []
    for idx, entry in enumerate(raw):
        here = f"{where}{key}[{idx}]."
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}{key}[{idx}] must be an object")
        _reject_unknown(entry, {"matrix", "variance"}, here)
        mat = _matrix(entry, "matrix", here)
        var = _number(entry, "variance", here)
        if not var >= 0:
            raise ConfigError(f"{here}variance must be >= 0, got {var}")
        channels.append((mat, var))
    return channels


def from_dict(doc: dict) -> ExperimentConfig:
    """Build and fully validate a config from plain parsed data."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be an object")
    _reject_unknown(doc, _TOP_KEYS, "")

    mode = _require(doc, "mode", "")

    model_doc = _require(doc, "model", "")
    if not isinstance(model_doc, dict):
        raise ConfigError("model must be an object")
    _reject_unknown(model_doc, _MODEL_KEYS, "model.")
    try:
        model = SystemModel(
            A=_matrix(model_doc, "A", "model."),
            B=_matrix(model_doc, "B", "model."),
            D=_matrix(model_doc, "D", "model."),
            X0=_matrix(model_doc, "X0", "model."),
            state_noise=_noise_list(model_doc, "state_noise", "model."),
            input_noise=_noise_list(model_doc, "input_noise", "model."),
        )
        model.validate()
    except ValidationError as exc:
        raise ConfigError(f"model: {exc}") from None

    cost_doc = _require(doc, "cost", "")
    if not isinstance(cost_doc, dict):
        raise ConfigError("cost must be an object")
    _reject_unknown(cost_doc, {"Q", "R"}, "cost.")
    try:
        cost = CostModel(Q=_matrix(cost_doc, "Q", "cost."),
                         R=_matrix(cost_doc, "R", "cost."))
        cost.validate(model)
    except ValidationError as exc:
        raise ConfigError(f"cost: {exc}") from None

    pi_tol = pi_max_iter = None
    pi_doc = doc.get("pi")
    if pi_doc is not None:
        if not isinstance(pi_doc, dict):
            raise ConfigError("pi must be an object")
        _reject_unknown(pi_doc, {"tol", "max_iter"}, "pi.")
        pi_tol = _number(pi_doc, "tol", "pi.")
        pi_max_iter = _integer(pi_doc, "max_iter", "pi.")

    learner = None
    learner_doc = doc.get("learner")
    if learner_doc is not None:
        if not isinstance(learner_doc, dict):
            raise ConfigError("learner must be an object")
        _reject_unknown(learner_doc, _LEARNER_KEYS, "learner.")
        try:
            learner = LearnerConfig(
                initial_gain=_matrix(learner_doc, "initial_gain", "learner."),
                rollout_len=_integer(learner_doc, "rollout_len", "learner."),
                probe_var=_number(learner_doc, "probe_var", "learner."),
                rls_init_scale=_number(learner_doc, "rls_init_scale", "learner."),
                max_iterations=_integer(learner_doc, "max_iterations", "learner."),
                gain_tol=_number(learner_doc, "gain_tol", "learner."),
                seed=0,  # replaced per run by the seed sweep
                cost_mode=learner_doc.get("cost_mode", "known_d"),
            )
        except ValidationError as exc:
            raise ConfigError(f"learner: {exc}") from None
        if learner.initial_gain.shape != (model.input_dim, model.state_dim):
            raise ConfigError(
                f"learner.initial_gain must have shape "
                f"{(model.input_dim, model.state_dim)}, "
                f"got {learner.initial_gain.shape}"
            )

    return ExperimentConfig(mode=mode, model=model, cost=cost, pi_tol=pi_tol,
                            pi_max_iter=pi_max_iter, learner=learner,
                            seeds=doc.get("seeds", []),
                            output_dir=doc.get("output_dir", "results"))


def to_dict(config: ExperimentConfig) -> dict:
    """Plain-data form of a config; inverse of from_dict."""
    doc: dict = {
        "mode": config.mode,
        "model": {
            "A": config.model.A.tolist(),
            "B": config.model.B.tolist(),
            "state_noise": [{"matrix": mat.tolist(), "variance": var}
                            for mat, var in config.model.state_noise],
            "input_noise": [{"matrix": mat.tolist(), "variance": var}
                            for mat, var in config.model.input_noise],
            "D": config.model.D.tolist(),
            "X0": config.model.X0.tolist(),
        },
        "cost": {"Q": config.cost.Q.tolist(), "R": config.cost.R.tolist()},
        "seeds": list(config.seeds),
        "output_dir": config.output_dir,
    }
    if config.pi_tol is not None:
        doc["pi"] = {"tol": config.pi_tol, "max_iter": config.pi_max_iter}
    if config.learner is not None:
        doc["learner"] = {
            "initial_gain": config.learner.initial_gain.tolist(),
            "rollout_len": config.learner.rollout_len,
            "probe_var": config.learner.probe_var,
            "rls_init_scale": config.learner.rls_init_scale,
            "max_iterations": config.learner.max_iterations,
            "gain_tol": config.learner.gain_tol,
            "cost_mode": config.learner.cost_mode,
        }
    return doc


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:   # a directory, or a file that cannot be read
        raise ConfigError(f"{path}: cannot read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: parse error at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from None
    return from_dict(doc)


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(to_dict(config), indent=2, sort_keys=True) + "\n")


def fixture_names() -> list[str]:
    root = resources.files("slqr") / "fixtures"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def fixture_path(name: str) -> Path:
    path = resources.files("slqr") / "fixtures" / f"{name}.json"
    if not path.is_file():
        raise ConfigError(
            f"unknown fixture {name!r}; shipped fixtures: {fixture_names()}"
        )
    return Path(str(path))


def resolve_config(value: str) -> Path:
    """Accept either a filesystem path or a shipped fixture name."""
    path = Path(value)
    if path.exists():
        return path
    if "/" not in value and not value.endswith(".json"):
        return fixture_path(value)
    raise ConfigError(f"config file not found: {value}")
