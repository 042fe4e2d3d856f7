"""Pipeline configuration: a flat key=value text format with typed fields.

Unknown keys are rejected; values are validated when coerced. The same keys
are accepted on the command line via repeated `--set key=value` flags.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from .extractor import Strategy, TrainConfig
from .metrics import DcfParams, grid_divisions
from .nplda import NpldaTrainConfig
from .synthgen import GenConfig, Task, trial_proportions


class ConfigError(ValueError):
    """Bad configuration key, value, or combination."""


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
        if self.task not in ("TD", "TI"):
            raise ConfigError(f"task must be TD or TI, got {self.task!r}")
        for backend in self.backends:
            if backend not in ("cosine", "plda", "nplda"):
                raise ConfigError(f"unknown backend {backend!r} (expected cosine, plda, or nplda)")
        if self.norm_backend not in self.backends:
            raise ConfigError(
                f"norm_backend {self.norm_backend!r} is not among backends {self.backends}"
            )
        if "nplda" in self.backends and self.task != "TD":
            raise ConfigError("the nplda backend needs phrase labels (task=TD)")
        if not 0.0 < self.train_fraction < 1.0 or not 0.0 < self.dev_fraction < 1.0:
            raise ConfigError("split fractions must lie in (0, 1)")
        if self.train_fraction + self.dev_fraction >= 1.0:
            raise ConfigError("train_fraction + dev_fraction must leave room for eval")
        if self.n_top < 2:
            raise ConfigError(f"n_top must be >= 2, got {self.n_top}")
        for name in ("n_dev_trials", "n_eval_trials", "n_enroll"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
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
        for name in ("plda_iters", "lid_epochs"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("hidden_dim", "emb_dim", "lid_lr"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        try:
            self.gen_config()
            self.train_config()
            self.nplda_config()
            grid_divisions(self.grid_step)
            trial_proportions(Task(self.task), self.proportions or None)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def gen_config(self, seed: int = 0) -> GenConfig:
        """The corpus-generation settings; GenConfig checks their values."""
        return GenConfig(
            n_speakers=self.n_speakers,
            n_phrases=self.n_phrases,
            n_utts_per_cell=self.n_utts_per_cell,
            dim=self.dim,
            phrase_strength=self.phrase_strength,
            language_shift=self.language_shift,
            noise_sigma=self.noise_sigma,
            transcript_error_rate=self.transcript_error_rate,
            seed=seed,
        )

    def dcf_params(self) -> DcfParams:
        """The detection-cost operating point; DcfParams checks its values."""
        return DcfParams(self.p_target, self.c_miss, self.c_fa)

    def nplda_config(self) -> NpldaTrainConfig:
        """The NPLDA fine-tuning settings; NpldaTrainConfig checks their values."""
        return NpldaTrainConfig(
            learning_rate=self.nplda_lr,
            epochs=self.nplda_epochs,
            alpha=self.nplda_alpha,
            dcf=self.dcf_params(),
        )

    def train_config(self, seed: int = 0) -> TrainConfig:
        """The extractor-training settings; TrainConfig checks their values."""
        return TrainConfig(
            strategy=Strategy(self.strategy),
            epochs=self.epochs,
            lr_initial=self.lr_initial,
            lr_final=self.lr_final,
            multitask_weight=self.multitask_weight,
            contrastive_weight=self.contrastive_weight,
            pct_speakers_per_batch=self.pct_speakers_per_batch,
            aam_scale=self.aam_scale,
            aam_margin=self.aam_margin,
            seed=seed,
        )


_FIELDS = {f.name: f for f in dataclasses.fields(PipelineConfig)}


def _coerce(name: str, raw: str):
    field = _FIELDS.get(name)
    if field is None:
        raise ConfigError(f"unknown config key {name!r}")
    base = field.type
    try:
        if base == "int":
            return int(raw)
        if base == "float":
            return float(raw)
        if base == "bool":
            if raw.lower() in ("1", "true", "yes"):
                return True
            if raw.lower() in ("0", "false", "no"):
                return False
            raise ValueError(raw)
        if base.startswith("Tuple"):
            if raw == "":
                return ()
            parts = [p for p in raw.split(",") if p != ""]
            if name in ("proportions",):
                return tuple(float(p) for p in parts)
            return tuple(parts)
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
