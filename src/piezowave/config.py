"""Run and sweep configuration files.

Flat INI sections, parsed with configparser.  A run config fully describes
one simulation: material constants, exponents, grid, integrator settings,
sine-mode initial data and output paths.  A sweep config is a run config
plus a [sweep] section and a [sweep.axes] section whose keys are
"section.option" paths with comma-separated override values.  Run and
[sweep] options alike are `_option` fields, read by one loader (`_load`)
through tables derived from those fields, so an unknown section or key is
an error anywhere.  The parsers only convert text to types; `build_run`
builds a run and checks every range, each check raising its own type.

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
from .errors import ConfigParse, InvalidArgument, check_count
from .grid import Grid1D, state_from_modes
from .integrator import StepConfig, midpoint_bands, step_count
from .params import make_params, validate_exponents

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
    word = raw.strip().lower()
    if word not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"not a boolean: {raw!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[word]


def _floats(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def parse(name: str, raw: str, parser):
    """Apply a typed parser; its ValueError becomes ConfigParse."""
    try:
        return parser(raw)
    except ValueError as exc:
        raise ConfigParse(f"{name} = {raw!r}: {exc}") from None


def _option(section: str, default, parser=float, key: Optional[str] = None):
    """A config field read from [section] key (default: the field name)."""
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
    t_end: float = _option("run", 1.0)
    record_every: int = _option("run", 1, int)
    seed: int = _option("run", 0, int)
    outdir: str = _option("output", "out", str.strip)
    fit_model: Optional[str] = _option("fit", None, str.strip, key="model")
    fit_C: float = _option("fit", 2.0, key="C")


def _table(cls) -> dict:
    """The option table of a config class, derived from its `_option`
    fields: (section, key) -> (attribute, parser)."""
    return {(f.metadata["section"], f.metadata["key"] or f.name):
            (f.name, f.metadata["parser"])
            for f in fields(cls) if f.metadata}


# The run option table.  Loading, sweep axes (list options separate their
# values with ';', all others with ',') and expansion all read it.
OPTIONS = _table(RunConfig)


@dataclass
class SweepConfig:
    base: RunConfig
    axes: dict                # {"section.option": [values...]} sorted keys
    # Parsed and validated, but without effect: members that share a shape
    # run as one batch, sized by cli.BATCH_BYTES.
    max_parallel: int = _option("sweep", 4, int)
    cap: int = _option("sweep", 10_000, int)


SWEEP_OPTIONS = _table(SweepConfig)


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


def _load(obj, cp: configparser.ConfigParser, table: dict, sections):
    """Set obj's attributes from every option of the given sections, each
    looked up in the option table and parsed; returns obj."""
    for section in sections:
        for key, raw in cp.items(section):
            if (section, key) not in table:
                raise ConfigParse(f"unknown option [{section}] {key}")
            attr, parser = table[(section, key)]
            setattr(obj, attr, parse(f"[{section}] {key}", raw, parser))
    return obj


def load_run_config(path: str) -> RunConfig:
    return _run_config_from_parser(_read_ini(path))


def _run_config_from_parser(cp: configparser.ConfigParser) -> RunConfig:
    sections = [s for s in cp.sections() if s not in ("sweep", "sweep.axes")]
    return _load(RunConfig(), cp, OPTIONS, sections)


def build_run(cfg: RunConfig):
    """(params, exps, grid, step config, initial state) of a run, checked
    along with what else a run needs: midpoint matrices with finite bands,
    the step count, seed, record_every and [fit] options.  Each check
    raises its own type (InvalidArgument for a value out of range)."""
    params = make_params(cfg.rho, cfg.alpha, cfg.beta, cfg.gamma, cfg.mu)
    exps = validate_exponents(cfg.m1, cfg.m2, cfg.n1, cfg.n2)
    grid = Grid1D(cfg.L, cfg.nx)
    step = StepConfig(dt=cfg.dt, scheme=cfg.scheme,
                      blowup_cutoff=cfg.blowup_cutoff,
                      damping_on=cfg.damping, sources_on=cfg.sources)
    midpoint_bands(grid, params, step)
    step_count(cfg.t_end, cfg.dt)
    check_count("seed", cfg.seed, 0)
    check_count("record_every", cfg.record_every, 1)
    if cfg.fit_model not in (None, *FITS):
        raise InvalidArgument(f"fit model = {cfg.fit_model!r} must be one "
                              f"of {'/'.join(FITS)}")
    if not 1.0 <= cfg.fit_C < math.inf:
        raise InvalidArgument(f"fit C = {cfg.fit_C} must be "
                              f"{'finite' if cfg.fit_C > 1.0 else '>= 1'}")
    return (params, exps, grid, step,
            state_from_modes(grid, cfg.v0, cfg.p0, cfg.v1, cfg.p1))


def load_sweep_config(path: str) -> SweepConfig:
    cp = _read_ini(path)
    base = _run_config_from_parser(cp)
    build_run(base)           # fail fast on inconsistent physics
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
    sweep = SweepConfig(base=base, axes=dict(sorted(axes.items())))
    _load(sweep, cp, SWEEP_OPTIONS, [s for s in cp.sections() if s == "sweep"])
    check_count("max_parallel", sweep.max_parallel, 1)
    size = math.prod(len(values) for values in axes.values())
    if size > sweep.cap:
        raise InvalidArgument(f"sweep size {size} exceeds cap {sweep.cap}")
    return sweep


def expand_sweep(sweep: SweepConfig):
    """Deterministic cross-product of override combinations.

    Yields (overrides, RunConfig) with overrides a dict of axis -> value,
    in lexicographic order of the sorted axis names.  The configs are not
    validated here, so that one bad member cannot stop the others: the CLI's
    run_all validates each member as it builds it (build_run).
    """
    names = list(sweep.axes.keys())
    for combo in itertools.product(*(sweep.axes[n] for n in names)):
        overrides = dict(zip(names, combo))
        yield overrides, replace(sweep.base, **{
            OPTIONS[tuple(key.split(".", 1))][0]: value
            for key, value in overrides.items()})
