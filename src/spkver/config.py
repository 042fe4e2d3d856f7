"""Pipeline configuration: a flat key=value text format with typed fields.

Each setting exists once: one `PipelineConfig` key with one default and at
most one range rule, in `_RANGES`. The stages read the keys they need from
the config itself, and the kernels take every setting from their caller:
none of them has a default of its own. Unknown keys are rejected and values
are checked when coerced; `validate()` then applies the range rules before
any cross-key check. The same keys are accepted on the command line via
repeated `--set key=value` flags.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from .extractor import Strategy
from .metrics import DcfParams, grid_divisions
from .synthgen import Task, trial_counts, trial_proportions


class ConfigError(ValueError):
    """Bad configuration key, value, or combination."""


# (keys, test, rule): the range rule of each setting that has one; a value
# that fails its test raises "<key> must <rule>, got <value>"
_RANGES = (
    (("dim", "n_top", "pct_speakers_per_batch"), lambda v: v >= 2, "be >= 2"),
    (("n_speakers", "n_phrases", "n_utts_per_cell", "n_dev_trials", "n_eval_trials",
      "n_enroll"), lambda v: v >= 1, "be >= 1"),
    (("phrase_strength", "language_shift", "noise_sigma", "epochs", "multitask_weight",
      "contrastive_weight", "plda_iters", "nplda_epochs", "lid_epochs"),
     lambda v: v >= 0, "be >= 0"),
    (("lr_initial", "lr_final", "hidden_dim", "emb_dim", "aam_scale", "nplda_lr",
      "nplda_alpha", "lid_lr"), lambda v: v > 0, "be positive"),
    (("train_fraction", "dev_fraction"), lambda v: 0.0 < v < 1.0, "lie in (0, 1)"),
    (("transcript_error_rate",), lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]"),
    (("aam_margin",), lambda v: 0.0 <= v < math.pi / 2, "lie in [0, pi/2)"),
    (("seed",), lambda v: 0 <= v < 2**63, "lie in [0, 2**63)"),
)


@dataclass
class PipelineConfig:
    workdir: str = "run"
    seed: int = 0

    # corpus generation
    dim: int = 16
    n_speakers: int = 30
    n_phrases: int = 4
    n_utts_per_cell: int = 8
    phrase_strength: float = 1.0
    language_shift: float = 0.0
    noise_sigma: float = 0.4
    transcript_error_rate: float = 0.0
    train_fraction: float = 0.5
    dev_fraction: float = 0.2

    # trial generation
    task: str = "TD"  # TD | TI
    n_dev_trials: int = 300
    n_eval_trials: int = 600
    proportions: Tuple[float, ...] = ()  # empty: task default
    n_enroll: int = 3

    # extractor training
    strategy: str = "AAM_ONLY"
    epochs: int = 40
    lr_initial: float = 0.05
    lr_final: float = 1e-4
    hidden_dim: int = 24
    emb_dim: int = 12
    multitask_weight: float = 1.0
    contrastive_weight: float = 1.0
    pct_speakers_per_batch: int = 8
    aam_scale: float = 32.0
    aam_margin: float = 0.2

    # backends
    backends: Tuple[str, ...] = ("cosine", "plda")  # subset of cosine|plda|nplda
    plda_iters: int = 15
    nplda_lr: float = 5e-5
    nplda_epochs: int = 5
    nplda_alpha: float = 10.0

    # score normalization
    norm_backend: str = "cosine"
    n_top: int = 200
    language_dependent: bool = True
    use_lid: bool = True
    lid_epochs: int = 200
    lid_lr: float = 0.5

    # detection cost
    p_target: float = 0.01
    c_miss: float = 10.0
    c_fa: float = 1.0

    # phrase filter / fusion
    filter_floor: float = -1000.0
    grid_step: float = 0.1

    def validate(self) -> None:
        """ConfigError for the first key that breaks its range rule, then for a
        bad name or a combination of keys that cannot run."""
        for keys, test, rule in _RANGES:
            for key in keys:
                if not test(getattr(self, key)):
                    raise ConfigError(f"{key} must {rule}, got {getattr(self, key)}")
        if self.task not in ("TD", "TI"):
            raise ConfigError(f"task must be TD or TI, got {self.task!r}")
        for backend in self.backends:
            if backend not in ("cosine", "plda", "nplda"):
                raise ConfigError(f"unknown backend {backend!r} (expected cosine, plda, or nplda)")
            if self.backends.count(backend) > 1:
                raise ConfigError(f"backend {backend!r} is listed more than once")
        if self.norm_backend not in self.backends:
            raise ConfigError(
                f"norm_backend {self.norm_backend!r} is not among backends {self.backends}"
            )
        if "nplda" in self.backends and self.task != "TD":
            raise ConfigError("the nplda backend needs phrase labels (task=TD)")
        if self.train_fraction + self.dev_fraction >= 1.0:
            raise ConfigError("train_fraction + dev_fraction must leave room for eval")
        # TD enrolls on the first n_enroll utterances of every (speaker, phrase)
        # cell and tests on the rest; TI enrolls across all of a speaker's phrases.
        if self.task == "TD" and self.n_enroll >= self.n_utts_per_cell:
            raise ConfigError(
                f"task=TD needs n_enroll < n_utts_per_cell, got {self.n_enroll} "
                f"and {self.n_utts_per_cell}"
            )
        if self.task == "TI" and self.n_enroll >= self.n_phrases * self.n_utts_per_cell:
            raise ConfigError(
                f"task=TI needs n_enroll < n_phrases * n_utts_per_cell, got {self.n_enroll} "
                f"and {self.n_phrases * self.n_utts_per_cell}"
            )
        if self.strategy == Strategy.PCT.value and self.n_utts_per_cell < 2:
            raise ConfigError(
                f"strategy=PCT needs n_utts_per_cell >= 2, got {self.n_utts_per_cell}"
            )
        try:
            Strategy(self.strategy)
            self.dcf_params()
            grid_divisions(self.grid_step)
            props = trial_proportions(Task(self.task), self.proportions)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.task == "TD" and self.n_phrases < 2:
            _, tw, _, iw = props
            if tw > 0 or iw > 0:
                raise ConfigError(
                    f"task=TD with TW or IW trials needs n_phrases >= 2, got {self.n_phrases}"
                )
        self.split_sizes()
        for name in ("n_dev_trials", "n_eval_trials"):  # EER and minDCF need both kinds
            counts = trial_counts(Task(self.task), getattr(self, name), self.proportions)
            kinds = {label.is_target for label, count in counts.items() if count > 0}
            if kinds != {True, False}:
                raise ConfigError(
                    f"{name}={getattr(self, name)} at proportions {','.join(map(str, props))} "
                    f"gives no {'nontarget' if True in kinds else 'target'} trial")

    def split_sizes(self) -> Tuple[int, int, int]:
        """Speakers in the train, dev and eval splits; ConfigError if one gets fewer than 2."""
        n_train = round(self.train_fraction * self.n_speakers)
        n_dev = round(self.dev_fraction * self.n_speakers)
        sizes = (n_train, n_dev, self.n_speakers - n_train - n_dev)
        if min(sizes) < 2:
            raise ConfigError(f"n_speakers={self.n_speakers} splits into {sizes} train/dev/eval "
                              "speakers; each split needs >= 2")
        return sizes

    def dcf_params(self) -> DcfParams:
        """The detection-cost operating point; DcfParams checks its values."""
        return DcfParams(self.p_target, self.c_miss, self.c_fa)


_FIELDS = {f.name: f for f in dataclasses.fields(PipelineConfig)}


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(value)
    return value


def _coerce(name: str, raw: str):
    field = _FIELDS.get(name)
    if field is None:
        raise ConfigError(f"unknown config key {name!r}")
    base = field.type
    try:
        if base == "int":
            return int(raw)
        if base == "float":
            return _finite(float(raw))
        if base == "bool":
            if raw.lower() in ("1", "true", "yes"):
                return True
            if raw.lower() in ("0", "false", "no"):
                return False
            raise ValueError(raw)
        if base.startswith("Tuple"):
            parts = tuple(raw.split(",")) if raw else ()
            if "" in parts:
                raise ValueError(raw)
            return tuple(_finite(float(p)) for p in parts) if name == "proportions" else parts
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {raw!r}") from exc


def load_config(path: Optional[str] = None, overrides=(), seed: Optional[int] = None) -> PipelineConfig:
    """Build a config from an optional file plus --set overrides.

    File syntax: one `key = value` (or `key=value`) per line, '#' comments,
    blank lines ignored. A passed seed overrides everything.
    """
    cfg = PipelineConfig()
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        for lineno, line in enumerate(text.split("\n"), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = stripped.partition("=")
            setattr(cfg, key.strip(), _coerce(key.strip(), value.strip()))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        setattr(cfg, key.strip(), _coerce(key.strip(), value.strip()))
    if seed is not None:
        cfg.seed = int(seed)
    cfg.validate()
    return cfg


def dump_config(cfg: PipelineConfig) -> list:
    """Deterministic key=value lines for manifests.

    The output location is excluded so that runs differing only in where
    they write produce identical manifests.
    """
    lines = []
    for name in sorted(_FIELDS.keys() - {"workdir"}):
        value = getattr(cfg, name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{name}={value}")
    return lines
