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
model_free/both. The loader checks the document's structure, each section an
object with its required keys and no other, and one rule for the whole
document: every number in it is finite (json reads NaN, Infinity and integers
beyond the float range). The types that hold the values check them:
SystemModel, CostModel and LearnerConfig, whose ValidationError comes back as
a ConfigError prefixed with the section ("model.A must be ..."), and
ExperimentConfig, which checks the mode, the rules above and the ranges of
pi.tol (> 0), pi.max_iter (>= 1) and the seeds (distinct integers >= 0),
so that a config changed with dataclasses.replace, as by the CLI's --mode
and --seeds, is held to them too. Every error names the dotted path of its
entry. The types hold every real-valued setting as a float (1 loads as 1.0)
and every count as an int.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, fields
from importlib import resources
from pathlib import Path

from .errors import ConfigError, ValidationError
from .packing import as_matrix
from .qlearning import LearnerConfig
from .system import CostModel, SystemModel, check_integer, check_positive

MODES = ("model_based", "model_free", "both")


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
        if not isinstance(self.seeds, list):
            raise ConfigError(f"seeds must be a list of integers >= 0, got {self.seeds!r}")
        if self.runs_model_free():
            if self.learner is None:
                raise ConfigError("mode requires a learner section in the config")
            if not self.seeds:
                raise ConfigError("seeds must be non-empty when mode runs the learner")
        if self.runs_model_based() and None in (self.pi_tol, self.pi_max_iter):
            raise ConfigError("mode requires a pi section in the config")
        try:
            if self.pi_tol is not None:
                self.pi_tol = check_positive(self.pi_tol, "pi.tol", finite=True)
            if self.pi_max_iter is not None:
                self.pi_max_iter = check_integer(self.pi_max_iter, "pi.max_iter", 1)
            self.seeds = [check_integer(s, f"seeds[{i}]", 0) for i, s in enumerate(self.seeds)]
        except ValidationError as exc:
            raise ConfigError(str(exc)) from None
        for i, seed in enumerate(self.seeds):
            if seed in self.seeds[:i]:
                raise ConfigError(f"seeds[{i}] repeats seed {seed}")

    def runs_model_based(self) -> bool:
        return self.mode in ("model_based", "both")

    def runs_model_free(self) -> bool:
        return self.mode in ("model_free", "both")


def _fields(cls, skip: str = "") -> tuple[list[str], list[str]]:
    """The init fields of dataclass cls but skip, as (required, optional)."""
    init = [f for f in fields(cls) if f.init and f.name != skip]
    required = [f.name for f in init if f.default is MISSING and f.default_factory is MISSING]
    return required, [f.name for f in init if f.name not in required]


def _section(doc, where: str, required, optional=()) -> dict:
    """doc, checked to be an object that has every key in required and no
    key outside required and optional; where is its dotted path and a dot."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where[:-1] or 'config document'} must be an object")
    for key in required:
        if key not in doc:
            raise ConfigError(f"config missing {where}{key}")
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown config field {where}{sorted(unknown)[0]}")
    return doc


def _check_finite(doc) -> None:
    """ConfigError naming the dotted path of a number in doc that is NaN, infinite
    or an integer beyond the float range; no recursion, so any depth json reads."""
    entries = [("", doc)]
    for path, value in entries:   # breadth first, entries growing as it goes
        if isinstance(value, dict):
            entries += ((f"{path}.{key}" if path else key, item) for key, item in value.items())
        elif isinstance(value, list):
            entries += ((f"{path}[{idx}]", item) for idx, item in enumerate(value))
        elif (isinstance(value, (int, float)) and not isinstance(value, bool)
              and not abs(value) <= sys.float_info.max):
            raise ConfigError(f"{path} must be finite, got {value}")


def _channels(raw, where: str) -> list:
    """A channel list's (matrix, variance) pairs, for SystemModel to check."""
    if not isinstance(raw, list):
        raise ConfigError(f"{where} must be a list of channel objects")
    entries = [_section(entry, f"{where}[{idx}].", ("matrix", "variance"))
               for idx, entry in enumerate(raw)]
    return [(entry["matrix"], entry["variance"]) for entry in entries]


def from_dict(doc: dict) -> ExperimentConfig:
    """Build a config from plain parsed data: the document's structure and
    finiteness are checked here, every value by the type that holds it."""
    _section(doc, "", ("mode", "model", "cost"), ("pi", "learner", "seeds", "output_dir"))
    _check_finite(doc)

    model_doc = dict(_section(doc["model"], "model.", *_fields(SystemModel)))
    for side in ("state_noise", "input_noise"):
        model_doc[side] = _channels(model_doc.get(side, []), f"model.{side}")
    try:
        model = SystemModel(**model_doc)
        model.validate()
    except ValidationError as exc:
        raise ConfigError(f"model.{exc}") from None

    try:
        cost = CostModel(**_section(doc["cost"], "cost.", *_fields(CostModel)))
        cost.validate(model)
    except ValidationError as exc:
        raise ConfigError(f"cost.{exc}") from None

    pi = doc.get("pi")
    pi = {} if pi is None else _section(pi, "pi.", ("tol", "max_iter"))
    for key, value in pi.items():   # None stands for "no pi section" below
        if value is None:
            raise ConfigError(f"pi.{key} must not be null")

    learner = doc.get("learner")
    if learner is not None:
        _section(learner, "learner.", *_fields(LearnerConfig, skip="seed"))
        try:   # the seed is replaced per run by the seed sweep
            learner = LearnerConfig(**learner, seed=0)
            as_matrix(learner.initial_gain, "initial_gain", (model.input_dim, model.state_dim))
        except ValidationError as exc:
            raise ConfigError(f"learner.{exc}") from None

    return ExperimentConfig(mode=doc["mode"], model=model, cost=cost, pi_tol=pi.get("tol"),
                            pi_max_iter=pi.get("max_iter"), learner=learner,
                            seeds=doc.get("seeds", []),
                            output_dir=doc.get("output_dir", "results"))


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:   # a directory, or a file that cannot be read
        raise ConfigError(f"{path}: cannot read: {exc.strerror}") from None
    except RecursionError:
        raise ConfigError(f"{path}: nested too deeply to parse") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: parse error at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from None
    return from_dict(doc)


def fixture_names() -> list[str]:
    """Names of the shipped fixtures; none when the package ships no fixtures directory."""
    root = resources.files("slqr") / "fixtures"
    if not root.is_dir():
        return []
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
