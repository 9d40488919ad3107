"""Run and sweep configuration files.

Flat INI sections, parsed with configparser.  A run config fully describes
one simulation: material constants, exponents, grid, integrator settings,
sine-mode initial data and output paths.  A sweep config is a run config
plus a [sweep] section and a [sweep.axes] section whose keys are
"section.option" paths with comma-separated override values.

Initial data are coefficient lists of the modes sin((k - 1/2) pi x / L),
which satisfy the clamped end and the zero-slope end exactly on any grid.
"""
from __future__ import annotations

import configparser
import itertools
import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .decay import FITS
from .errors import ConfigParse
from .grid import Grid1D, State, state_from_modes
from .integrator import StepConfig, Stepper, step_count
from .params import Exponents, MaterialParams, make_params, validate_exponents

FLOAT_FMT = "%.17g"


def fmt(value) -> str:
    """The one output formatter: floats (and tuples of them) in FLOAT_FMT,
    which round-trips bit-exactly, bools as true/false, None as ''."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT % value
    if isinstance(value, tuple):
        return ", ".join(FLOAT_FMT % v for v in value)
    return str(value)


# ---------------------------------------------------------------------------
# typed parsers: each maps the raw INI text to a value or raises ValueError

def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("on", "true", "yes", "1"):
        return True
    if low in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _floats(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _fit_model(raw: str) -> str:
    model = raw.strip()
    if model not in FITS:
        raise ValueError(f"fit model must be {'/'.join(FITS)}")
    return model


def _at_least(convert, low):
    def parser(raw: str):
        value = convert(raw)
        if not value >= low:
            raise ValueError(f"must be >= {low}")
        return value
    return parser


def parse(name: str, raw: str, parser):
    """Apply a typed parser; its ValueError becomes ConfigParse."""
    try:
        return parser(raw)
    except ValueError as exc:
        raise ConfigParse(f"{name} = {raw!r}: {exc}") from None


def _option(section: str, default, parser=float, key: Optional[str] = None):
    """A RunConfig field read from [section] key (default: the field name)."""
    return field(default=default,
                 metadata={"section": section, "key": key, "parser": parser})


@dataclass
class RunConfig:
    rho: float = _option("material", 1.0)
    alpha: float = _option("material", 2.0)
    beta: float = _option("material", 1.0)
    gamma: float = _option("material", 1.0)
    mu: float = _option("material", 1.0)
    m1: float = _option("exponents", 1.0)
    m2: float = _option("exponents", 1.0)
    n1: float = _option("exponents", 2.0)
    n2: float = _option("exponents", 2.0)
    L: float = _option("grid", 1.0)
    nx: int = _option("grid", 201, int)
    dt: float = _option("integrator", 1e-3)
    scheme: str = _option("integrator", "semi-implicit", str.strip)
    blowup_cutoff: float = _option("integrator", 1e6)
    damping: bool = _option("integrator", True, _bool)
    sources: bool = _option("integrator", True, _bool)
    v0: tuple = _option("initial", (0.1,), _floats)
    p0: tuple = _option("initial", (0.0,), _floats)
    v1: tuple = _option("initial", (0.0,), _floats)
    p1: tuple = _option("initial", (0.0,), _floats)
    t_end: float = _option("run", 1.0, _at_least(float, 0.0))
    record_every: int = _option("run", 1, _at_least(int, 1))
    seed: int = _option("run", 0, int)
    outdir: str = _option("output", "out", str.strip)
    fit_model: Optional[str] = _option("fit", None, _fit_model, key="model")
    fit_C: float = _option("fit", 2.0, _at_least(float, 1.0), key="C")

    # ---- constructed objects -------------------------------------------
    def material(self) -> MaterialParams:
        return make_params(self.rho, self.alpha, self.beta, self.gamma,
                           self.mu)

    def exponents(self) -> Exponents:
        return validate_exponents(self.m1, self.m2, self.n1, self.n2)

    def grid(self) -> Grid1D:
        return Grid1D(self.L, self.nx)

    def step_config(self) -> StepConfig:
        return StepConfig(dt=self.dt, scheme=self.scheme,
                          blowup_cutoff=self.blowup_cutoff,
                          damping_on=self.damping, sources_on=self.sources)

    def initial_state(self) -> State:
        return state_from_modes(self.grid(), self.v0, self.p0,
                                self.v1, self.p1)


# The one option table, derived from the RunConfig fields:
# (section, key) -> (RunConfig attribute, parser).  Loading, sweep axes
# (list options separate their values with ';', all others with ',') and
# expansion all read it.
OPTIONS = {
    (f.metadata["section"], f.metadata["key"] or f.name):
        (f.name, f.metadata["parser"])
    for f in fields(RunConfig)
}


@dataclass
class SweepConfig:
    base: RunConfig
    axes: dict                # {"section.option": [values...]} sorted keys
    # Parsed and validated, but members run in order: it has no effect
    # until batched stepping uses it as the batch-size cap.
    max_parallel: int = 4
    cap: int = 10_000


# [sweep] key -> parser; the values become SweepConfig fields
SWEEP_OPTIONS = {"max_parallel": _at_least(int, 1), "cap": int}


def _read_ini(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str        # case-sensitive keys (L vs l)
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigParse(f"cannot read {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigParse(str(exc)) from None
    return cp


def load_run_config(path: str) -> RunConfig:
    return _run_config_from_parser(_read_ini(path))


def _run_config_from_parser(cp: configparser.ConfigParser) -> RunConfig:
    cfg = RunConfig()
    for section in cp.sections():
        if section.startswith("sweep"):
            continue
        for key, raw in cp.items(section):
            if (section, key) not in OPTIONS:
                raise ConfigParse(f"unknown option [{section}] {key}")
            attr, parser = OPTIONS[(section, key)]
            setattr(cfg, attr, parse(f"[{section}] {key}", raw, parser))
    return validate_run_config(cfg)


def validate_run_config(cfg: RunConfig) -> RunConfig:
    """Fail fast on inconsistent physics by building every object a run
    needs and counting its steps; a ValueError becomes ConfigParse."""
    try:
        params = cfg.material()
        cfg.exponents()
        Stepper(cfg.grid(), params, cfg.step_config())
        step_count(cfg.t_end, cfg.dt)
        if cfg.seed < 0:
            raise ValueError(f"seed = {cfg.seed} must be >= 0")
    except ValueError as exc:
        raise ConfigParse(str(exc)) from None
    return cfg


def load_sweep_config(path: str) -> SweepConfig:
    cp = _read_ini(path)
    base = _run_config_from_parser(cp)
    if not cp.has_section("sweep.axes"):
        raise ConfigParse("sweep config needs a [sweep.axes] section")
    axes = {}
    for key, raw in cp.items("sweep.axes"):
        if "." not in key:
            raise ConfigParse(f"axis {key!r} must be 'section.option'")
        section, option = key.split(".", 1)
        if (section, option) not in OPTIONS:
            raise ConfigParse(f"unknown axis [{section}] {option}")
        parser = OPTIONS[(section, option)][1]
        sep = ";" if parser is _floats else ","
        values = [parse(f"[{section}] {option}", tok.strip(), parser)
                  for tok in raw.split(sep) if tok.strip()]
        if not values:
            raise ConfigParse(f"axis {key!r} has no values")
        axes[key] = values
    settings = {}
    if cp.has_section("sweep"):
        for key, raw in cp.items("sweep"):
            if key not in SWEEP_OPTIONS:
                raise ConfigParse(f"unknown option [sweep] {key}")
            settings[key] = parse(f"[sweep] {key}", raw, SWEEP_OPTIONS[key])
    sweep = SweepConfig(base=base, axes=dict(sorted(axes.items())),
                        **settings)
    size = math.prod(len(values) for values in axes.values())
    if size > sweep.cap:
        raise ConfigParse(f"sweep size {size} exceeds cap {sweep.cap}")
    return sweep


def expand_sweep(sweep: SweepConfig):
    """Deterministic cross-product of override combinations.

    Yields (overrides, RunConfig) with overrides a dict of axis -> value,
    in lexicographic order of the sorted axis names.  The configs are not
    validated here, so that one bad member cannot stop the others; pass
    each through validate_run_config before running it.
    """
    names = list(sweep.axes.keys())
    for combo in itertools.product(*(sweep.axes[n] for n in names)):
        overrides = dict(zip(names, combo))
        cfg = replace(sweep.base)
        for key, value in overrides.items():
            setattr(cfg, OPTIONS[tuple(key.split(".", 1))][0], value)
        yield overrides, cfg
