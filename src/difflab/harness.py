"""Experiment harness: JSON configs in, reproducible reports out.

A config names one of the built-in experiment presets and overrides its
defaults.  The preset table is the schema: an override may only name a
field the preset has, and each ``system`` field is read once against the
type of its default, so a bad config fails before any solve and the echo
is what ran.  ``run_experiment`` builds the grid, draws every random
object from the config seed, runs the preset pipeline, and returns a
:class:`~difflab.report.RunReport` whose config block embeds the resolved
settings and the explicit-constants bundle in force.  Reports are
deterministic: the same config and seed produce byte-identical JSON/CSV.

Presets
-------
``heatkernel``
    Neumann box kernel: mass conservation, decay-slope and first-moment
    reports, fitted prefactors.
``oscdecay``
    Rough-coefficient run plus oscillation-decay and supremum checks on a
    parabolic cylinder (optionally forced, with a kernel-calibrated
    forcing constant).
``skt``
    Cross-diffusion pair: positivity / ceiling / clipping audits, the
    companion-variable identity residual, nu bounds, an energy balance,
    and the one-sided interpolation usage on the convexified potential.
``quad4``
    Closed quadratic quartet: mass conservation, mu pinching, and the
    collapsed-evolution identity residuals.
``general``
    Triangular-network presets: structural audit, transformed residual,
    transform consistency, and the quartet's three reports for the
    network's own mass, mu and potential.
``interp``
    Random admissible pair on a ball subdomain: cut-ball ladder and the
    full covering-based interpolation check.
"""

from __future__ import annotations

import copy
import json
import math
import pathlib
from dataclasses import fields

import numpy as np

from .errors import ConfigError, ParameterError
from .grid import Field, GridSpec, ParabolicCylinder, full_mask
from .interp import (_validate_hypotheses, cut_ball_check,
                     interpolation_check, random_admissible_pair)
from .kernel import (fitted_moment_prefactor, fitted_prefactor,
                     kernel_evolve, kernel_norm_report, moment_report)
from .norms import reciprocal
from .report import EstimateReport, RunReport, emit, jsonable
from .rough import (RoughCoefficient, explicit_constants, forcing_constant,
                    oscillation_decay_check, solve_rough,
                    supremum_bound_check)
from . import systems
from .systems import (PRESET_SYSTEMS, SKTParams, quadratic_solve,
                      skt_auxiliary, skt_solve, structural_checks)

__all__ = [
    "ExperimentConfig", "preset_config", "preset_names", "run_experiment",
    "run_with_refinement",
]


# ---------------------------------------------------------------------------
# preset defaults

# every preset is this base with its own entries laid over each block
_BASE = {
    "seed": 0,
    "grid": {"dim": 2, "extent": 1.0},
    "time": {"dt": "auto"},
    "estimate": {"p": "inf", "q": "inf", "alpha": 0.0,
                 "a0": 1.0, "c0": 2.0, "radius": 0.3, "r0": 0.25,
                 "eps": 0.25, "C": None},
    "output": {"dir": None, "stem": "report"},
}

_OWN = {
    "heatkernel": {
        "grid": {"n": 96},
        "time": {"t_end": 0.3, "n_frames": 96},
        "system": {"p_list": [1.0, 2.0, "inf"], "slope_tol": 0.1,
                   "moment_tol": 0.05, "source": "center"},
    },
    "oscdecay": {
        "grid": {"n": 33},
        "time": {"t_end": 0.06, "n_frames": 129},
        "system": {"forcing": "none", "f_amp": 1.0, "w_amp": 1.0,
                   "n_bumps": 6},
    },
    "skt": {
        "grid": {"n": 32},
        "time": {"t_end": 0.25, "n_frames": 33},
        "system": {"d1": 0.1, "d2": 0.2, "sigma": 0.5,
                   "r_u": 1.0, "r_v": 1.0,
                   "d11": 1.0, "d12": 0.5, "d21": 0.5, "d22": 1.0,
                   "u_amp": 0.8, "v_amp": 0.8, "n_bumps": 5,
                   "energy_p": 2},
        "estimate": {"p": 2.0, "q": 3.0, "r0": 0.3},
    },
    "quad4": {
        "grid": {"n": 32},
        "time": {"t_end": 0.5, "n_frames": 33},
        "system": {"diffusions": [1.0, 1.5, 0.5, 2.0], "amp": 1.0,
                   "n_bumps": 4},
    },
    "general": {
        "grid": {"n": 24},
        "time": {"t_end": 0.1, "n_frames": 65},
        "system": {"name": "uum", "m": 2, "b": [1.0, 2.0],
                   "sp": 2, "sq": 1, "diffusions": None,
                   "amp": 1.0, "n_bumps": 4,
                   "samples": 20000, "box": [0.0, 10.0]},
    },
    "interp": {
        "grid": {"dim": 3, "n": 24},
        "time": {"t_end": 0.0, "n_frames": 2},
        "system": {"n_bumps": 6, "margin": 0.5, "domain_radius": 0.3},
        "estimate": {"p": 2.0, "q": "auto", "alpha": 0.3, "r0": 0.2},
    },
}


# the one schema: an override may only name a leaf these dicts have, and
# each ``system`` leaf is read against the type of its default here
_PRESETS: dict[str, dict] = {
    name: {"experiment": name, **_BASE,
           **{block: {**_BASE.get(block, {}), **entries}
              for block, entries in own.items()}}
    for name, own in _OWN.items()}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def preset_config(name: str) -> dict:
    """Deep copy of a preset's default config."""
    if name not in _PRESETS:
        raise ConfigError(
            f"unknown experiment preset {name!r}; valid presets: "
            + ", ".join(preset_names()))
    return copy.deepcopy(_PRESETS[name])


# ---------------------------------------------------------------------------
# config loading and validation


def _merge(base: dict, override: dict, path: str = "") -> dict:
    """``base`` with ``override`` laid over it; a key ``base`` lacks fails."""
    out = copy.deepcopy(base)
    for key, val in override.items():
        where = f"{path}.{key}" if path else key
        if key not in out:
            raise ConfigError(f"unknown config field {where}; valid here: "
                              + ", ".join(sorted(out)))
        if isinstance(out[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{where} must be an object, got "
                                  f"{type(val).__name__}")
            out[key] = _merge(out[key], val, where)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _num(data: dict, section: str, key: str, *, lo=None, hi=None,
         strict_lo=False, allow_inf=False, allow_auto=False,
         integer=False):
    """Fetch ``section.key`` as a number with a field-precise error."""
    where = f"{section}.{key}"
    val = data[key]
    if allow_auto and val == "auto":
        return "auto"
    if isinstance(val, str):
        if allow_inf and val in ("inf", "Infinity"):
            return math.inf
        raise ConfigError(f"{where} must be a number, got {val!r}")
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where} must be a number, got "
                          f"{type(val).__name__}")
    val = float(val)
    if integer:
        if val != int(val):
            raise ConfigError(f"{where} must be an integer, got {val}")
        val = int(val)
    if lo is not None and (val <= lo if strict_lo else val < lo):
        op = ">" if strict_lo else ">="
        raise ConfigError(f"{where} must be {op} {lo}, got {val}")
    if hi is not None and val > hi:
        raise ConfigError(f"{where} must be <= {hi}, got {val}")
    return val


def _system(name: str, sysc: dict, dim: int) -> dict:
    """Each ``system`` leaf read against its preset default: a number, an
    integer >= 1, or a list of numbers for a list or null default
    (_numbers).  Shapes are checked too: ``source`` is "center" or ``dim``
    numbers, ``box`` two numbers lo < hi, and ``domain_radius`` is
    positive.  Pipelines check the other strings."""
    out = {}
    for key, default in _PRESETS[name]["system"].items():
        val = sysc[key]
        if key == "source":
            out[key] = val if val == "center" else _numbers(key, val, dim)
        elif isinstance(default, str) or (default is None and val is None):
            out[key] = val
        elif isinstance(default, int):
            out[key] = _num(sysc, "system", key, lo=1, integer=True)
        elif isinstance(default, float):
            out[key] = _num(sysc, "system", key, strict_lo=True,
                            lo=0 if key == "domain_radius" else None)
        else:
            out[key] = _numbers(key, val, 2 if key == "box" else None)
    box = out.get("box")
    if box is not None and not box[0] < box[1]:
        raise ConfigError(f"system.box must be [lo, hi] with lo < hi, "
                          f"got {box}")
    return out


def _numbers(key: str, val, length: int | None) -> list:
    """``system.key`` as a list of numbers, of ``length`` entries if given
    ("inf" allowed in ``p_list``, integers in ``b``)."""
    if not isinstance(val, list):
        raise ConfigError(f"system.{key} must be a list of numbers, "
                          f"got {type(val).__name__}")
    if length is not None and len(val) != length:
        raise ConfigError(f"system.{key} has {len(val)} entries, needs "
                          f"{length}")
    return [float(_num({f"{key}[{i}]": v}, "system", f"{key}[{i}]",
                       allow_inf=key == "p_list", integer=key == "b"))
            for i, v in enumerate(val)]


class ExperimentConfig:
    """Validated, fully resolved experiment configuration."""

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        name = data.get("experiment")
        if not isinstance(name, str):
            raise ConfigError("config needs an 'experiment' field naming "
                              "a preset")
        merged = _merge(preset_config(name), data)
        if "seed" not in data:
            raise ConfigError("config is missing the mandatory 'seed' field")

        self.experiment = name
        self.seed = _num(merged, "", "seed", lo=0, integer=True)

        g = merged["grid"]
        self.dim = _num(g, "grid", "dim", lo=1, hi=4, integer=True)
        n = g["n"]
        if isinstance(n, list):
            if len(n) != self.dim:
                raise ConfigError(
                    f"grid.n has {len(n)} entries for dim {self.dim}")
            self.n = tuple(_num({"n": k}, "grid", "n", lo=3, integer=True)
                           for k in n)
        else:
            self.n = (_num(g, "grid", "n", lo=3, integer=True),) * self.dim
        self.extent = _num(g, "grid", "extent", lo=0, strict_lo=True)

        t = merged["time"]
        self.t_end = _num(t, "time", "t_end", lo=0)
        self.dt = _num(t, "time", "dt", lo=0, strict_lo=True,
                       allow_auto=True)
        self.n_frames = _num(t, "time", "n_frames", lo=2, integer=True)

        e = merged["estimate"]
        self.p = _num(e, "estimate", "p", lo=1, allow_inf=True)
        alpha = _num(e, "estimate", "alpha", lo=0)
        if alpha >= 1:
            raise ConfigError(f"estimate.alpha must be < 1, got {alpha}")
        self.alpha = alpha
        q = e["q"]
        if q == "auto":
            if math.isinf(self.p):
                raise ConfigError("estimate.q 'auto' needs a finite estimate.p")
            q = self.p * (3.0 - alpha) / (2.0 - alpha)
        else:
            q = _num(e, "estimate", "q", lo=1, allow_inf=True)
        self.q = q
        self.a0 = _num(e, "estimate", "a0", lo=0, strict_lo=True)
        self.c0 = _num(e, "estimate", "c0", lo=1)
        self.radius = _num(e, "estimate", "radius", lo=0, strict_lo=True)
        self.r0 = _num(e, "estimate", "r0", lo=0, strict_lo=True)
        self.eps = _num(e, "estimate", "eps", lo=0, strict_lo=True, hi=0.5)
        self.frozen_c = (None if e["C"] is None
                         else _num(e, "estimate", "C", lo=0, strict_lo=True))
        try:
            self.constants = explicit_constants(self.dim, self.p, self.q,
                                                self.a0, self.c0)
        except ParameterError as exc:
            raise ConfigError(
                f"grid.dim = {self.dim}, estimate.p = {self.p:g} and "
                f"estimate.q = {self.q:g} admit no constants bundle: "
                f"{exc}") from exc
        if name in ("skt", "interp"):      # they run interpolation_check
            try:
                _validate_hypotheses(self.dim, self.p, self.q, alpha)
            except ParameterError as exc:
                raise ConfigError(
                    f"grid.dim = {self.dim}, estimate.p = {self.p:g}, "
                    f"estimate.q = {self.q:g} and estimate.alpha = "
                    f"{alpha:g} fail the interpolation hypotheses: "
                    f"{exc}") from exc

        self.system = merged["system"] = _system(name, merged["system"],
                                                   self.dim)
        out = merged["output"]
        if out["dir"] is not None and not isinstance(out["dir"], str):
            raise ConfigError("output.dir must be a string path or null")
        self.out_dir = out["dir"]
        self.stem = out["stem"]
        if not isinstance(self.stem, str) or not self.stem:
            raise ConfigError("output.stem must be a non-empty string")
        self.resolved = merged

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_json(cls, text_or_path) -> "ExperimentConfig":
        """Parse JSON text (first non-blank character ``{``) or read the
        config file at any other path."""
        text = str(text_or_path)
        if not text.lstrip().startswith("{"):
            try:
                text = pathlib.Path(text).read_text()
            except OSError as exc:
                raise ConfigError(
                    f"cannot read config {text}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls(data)

    # -- derived objects --------------------------------------------------

    def grid_spec(self) -> GridSpec:
        return GridSpec.make((self.extent,) * self.dim, self.n)

    def solver_dt(self):
        return None if self.dt == "auto" else self.dt

    def echo(self) -> dict:
        """Config block embedded in every report (JSON-safe)."""
        block = copy.deepcopy(self.resolved)
        block["estimate"]["q"] = self.q          # resolve 'auto'
        block["constants"] = self.constants.to_dict()
        return jsonable(block)

    def refined(self, k: int) -> "ExperimentConfig":
        """Same experiment with the mesh halved k times (frames scaled)."""
        if k < 0:
            raise ConfigError(f"refinement level must be >= 0, got {k}")
        data = copy.deepcopy(self.resolved)
        factor = 2 ** k
        n = [(m - 1) * factor + 1 for m in self.n]
        data["grid"]["n"] = n if isinstance(data["grid"]["n"], list) else n[0]
        data["time"]["n_frames"] = (self.n_frames - 1) * factor + 1
        if self.dt != "auto":
            data["time"]["dt"] = self.dt / factor ** 2
        return ExperimentConfig(data)


# ---------------------------------------------------------------------------
# shared random ingredients


def _random_bumps(mask, rng, n_bumps: int, amp: float) -> np.ndarray:
    """Smooth random field on the active nodes, roughly in [-amp, amp]."""
    coords = mask.node_coords()
    lo = coords.min(axis=0)
    span = coords.max(axis=0) - lo
    span[span == 0] = 1.0
    vals = np.zeros(coords.shape[0])
    for _ in range(n_bumps):
        c = lo + span * rng.uniform(0.1, 0.9, size=coords.shape[1])
        s = float(rng.uniform(0.1, 0.3)) * float(span.max())
        a = float(rng.uniform(-1.0, 1.0))
        vals += a * np.exp(-np.sum((coords - c) ** 2, axis=1) / (2 * s * s))
    peak = float(np.max(np.abs(vals)))
    if peak > 0:
        vals *= amp / peak
    return vals


def _positive_bumps(mask, rng, n_bumps: int, amp: float,
                    floor: float = 0.05) -> Field:
    vals = _random_bumps(mask, rng, n_bumps, amp)
    return Field(mask, floor * amp + 0.5 * amp + 0.5 * vals)


# fitted kernel prefactors are geometry-determined; cache by geometry so a
# batch of runs on the same grid calibrates once.  Hits and misses give the
# same numbers, so caching cannot break determinism.
_CALIBRATION_CACHE: dict = {}


def kernel_calibration(mask, t_end: float, q: float,
                       eps: float = 0.25) -> dict:
    """Fitted decay/moment prefactors for the Neumann kernel on ``mask``.

    Returns {"decay": sup_t ||G(t)||_{q'} t^{d/(2q)},
             "moment": sup_t m(t) / t^{1/2 - eps}} over the recorded frames
    up to ``t_end``.
    """
    key = (mask.grid.dim, tuple(mask.grid.n),
           tuple(np.round(mask.grid.extent, 12)),
           int(mask.active_count), round(float(t_end), 12),
           round(float(q), 12), round(float(eps), 12))
    if key in _CALIBRATION_CACHE:
        return _CALIBRATION_CACHE[key]
    center = tuple(0.5 * e for e in mask.grid.extent)
    kern = kernel_evolve(mask, center, t_end, n_frames=64)
    out = {
        "decay": fitted_prefactor(kern, reciprocal(1.0 - reciprocal(q)),
                                  t_hi=t_end),
        "moment": fitted_moment_prefactor(kern, eps, t_hi=t_end),
    }
    _CALIBRATION_CACHE[key] = out
    return out


# ---------------------------------------------------------------------------
# preset pipelines


def _run_heatkernel(cfg: ExperimentConfig, rng) -> list[EstimateReport]:
    mask = full_mask(cfg.grid_spec())
    sysc = cfg.system
    src = sysc["source"]
    if src == "center":
        src = tuple(0.5 * e for e in mask.grid.extent)
    kern = kernel_evolve(mask, src, cfg.t_end, dt=cfg.solver_dt(),
                         n_frames=cfg.n_frames)
    hd = mask.grid.h ** mask.grid.dim
    masses = hd * kern.values.sum(axis=1)
    drift = float(np.max(np.abs(masses - 1.0)))
    mass = EstimateReport(
        check="kernel_mass_conservation",
        lhs=drift, rhs=1e-9, passed=bool(drift <= 1e-9),
        params={"frames": int(kern.n_frames)},
        grid=mask.grid.record(),
        details={"mass_first": float(masses[0]),
                 "mass_last": float(masses[-1])},
    )
    p_list = sysc["p_list"]
    norms = kernel_norm_report(kern, p_list=p_list, tol=sysc["slope_tol"])
    moments = moment_report(kern, tol=sysc["moment_tol"])
    prefs = {f"prefactor_p{p:g}": fitted_prefactor(kern, p) for p in p_list}
    prefs["moment_prefactor"] = fitted_moment_prefactor(kern, cfg.eps)
    norms.details.update({k: float(v) for k, v in prefs.items()})
    return [mass, norms, moments]


def _run_oscdecay(cfg: ExperimentConfig, rng) -> list[EstimateReport]:
    mask = full_mask(cfg.grid_spec())
    consts = cfg.constants
    cyl_window = consts.beta * cfg.radius ** 2
    if cfg.t_end < cyl_window * (1 + 1e-9):
        raise ConfigError(
            f"time.t_end={cfg.t_end} is shorter than the parabolic window "
            f"beta R^2 = {cyl_window:.6g}")
    sysc = cfg.system
    a_vals = cfg.a0 * (1.0 + (cfg.c0 - 1.0)
                       * rng.random(mask.active_count))
    coeff = RoughCoefficient(Field(mask, a_vals), cfg.a0, cfg.c0)
    w0 = Field(mask, 0.5 + 0.5 * _random_bumps(
        mask, rng, sysc["n_bumps"], sysc["w_amp"]))
    forcing = None
    prefactor = None
    if sysc["forcing"] == "random":
        f_vals = _random_bumps(mask, rng, sysc["n_bumps"], sysc["f_amp"])
        forcing = Field(mask, f_vals)
        prefactor = kernel_calibration(mask, cyl_window, cfg.q,
                                       cfg.eps)["decay"]
    elif sysc["forcing"] != "none":
        raise ConfigError("system.forcing must be 'none' or 'random'")
    sol = solve_rough(w0, coeff, forcing=forcing, t_end=cfg.t_end,
                      dt=cfg.solver_dt(), n_frames=cfg.n_frames)
    center = tuple(0.5 * e for e in mask.grid.extent)
    cyl = ParabolicCylinder(t0=cfg.t_end, x0=center, radius=cfg.radius,
                            shape=consts.beta)
    checks = [
        oscillation_decay_check(sol, cyl, consts, forcing=forcing,
                                kernel_prefactor=prefactor),
        supremum_bound_check(sol, consts, w0, forcing=forcing,
                             kernel_prefactor=(prefactor or 1.0)),
    ]
    if forcing is not None:
        checks[0].details["forcing_constant"] = forcing_constant(
            consts, prefactor)
    return checks


def _run_skt(cfg: ExperimentConfig, rng) -> list[EstimateReport]:
    mask = full_mask(cfg.grid_spec())
    sysc = cfg.system
    params = SKTParams(**{f.name: sysc[f.name] for f in fields(SKTParams)})
    u0 = _positive_bumps(mask, rng, sysc["n_bumps"], sysc["u_amp"])
    v0 = _positive_bumps(mask, rng, sysc["n_bumps"], sysc["v_amp"])
    sol = skt_solve(u0, v0, params, cfg.t_end, dt=cfg.solver_dt(),
                    n_frames=cfg.n_frames)
    aux = skt_auxiliary(sol)
    gridd = mask.grid.record()

    neg = -min(float(sol.u.values.min()), float(sol.v.values.min()))
    positivity = EstimateReport(
        check="skt_positivity", lhs=neg, rhs=1e-8,
        passed=bool(neg <= 1e-8), params={"clipped_mass": sol.clipped_mass},
        grid=gridd, details={"u_min": float(sol.u.values.min()),
                             "v_min": float(sol.v.values.min())})

    ceiling = params.v_ceiling(float(v0.values.max()))
    v_sup = float(sol.v.values.max())
    v_cap = EstimateReport(
        check="skt_v_ceiling", lhs=v_sup, rhs=ceiling + 1e-8,
        passed=bool(v_sup <= ceiling + 1e-8),
        params={"v_init_max": float(v0.values.max()),
                "r_v_over_d22": params.r_v / params.d22},
        grid=gridd, details={})

    hd = mask.grid.h ** mask.grid.dim
    total0 = hd * float(u0.values.sum() + v0.values.sum())
    clip = EstimateReport(
        check="skt_clipping_audit", lhs=sol.clipped_mass,
        rhs=1e-8 * max(total0, 1e-30),
        passed=bool(sol.clipped_mass <= 1e-8 * max(total0, 1e-30)),
        params={"steps": sol.steps, "dt": sol.dt}, grid=gridd, details={})

    checks = [positivity, v_cap, clip,
              systems.nu_bounds_report(sol, aux), aux.residual,
              systems.lp_energy_report(sol, sysc["energy_p"])]

    w_t, lap_t = systems.convexified(sol, aux, sol.u.n_frames - 1)
    u_T = Field(mask, sol.u.values[-1])
    interp = interpolation_check(
        u_T, w_t, p=cfg.p, q=cfg.q, alpha=cfg.alpha, r0=cfg.r0,
        C=cfg.frozen_c, lap_w=lap_t)
    interp.details["convexity_coefficient"] = aux.coef
    checks.append(interp)
    return checks


def _run_quad4(cfg: ExperimentConfig, rng) -> list[EstimateReport]:
    mask = full_mask(cfg.grid_spec())
    sysc = cfg.system
    inits = [_positive_bumps(mask, rng, sysc["n_bumps"], sysc["amp"])
             for _ in range(4)]
    return _network_reports(quadratic_solve(
        inits, sysc["diffusions"], cfg.t_end, dt=cfg.solver_dt(),
        n_frames=cfg.n_frames))


def _network_reports(sol) -> list[EstimateReport]:
    """Mass conservation, mu pinching and the potential identities."""
    diff = sol.spec.diffusions
    return [systems.quad_mass_report(sol), systems.quad_mu_report(sol, diff),
            systems.quad_identity_report(sol, diff)]


def _general_spec(sysc: dict):
    name = sysc["name"]
    if name not in PRESET_SYSTEMS:
        raise ConfigError(f"system.name must be one of "
                          f"{sorted(PRESET_SYSTEMS)}, got {name!r}")
    keys = {"uum": ("m", "b"), "p_q_2s3": ("sp", "sq")}.get(name, ())
    if sysc["diffusions"] is not None:
        keys += ("diffusions",)
    return PRESET_SYSTEMS[name](**{k: sysc[k] for k in keys})


def _run_general(cfg: ExperimentConfig, rng) -> list[EstimateReport]:
    sysc = cfg.system
    spec = _general_spec(sysc)
    box = sysc["box"]
    structural = structural_checks(spec, n_samples=sysc["samples"], box=box,
                                   raise_on_violation=False)
    mask = full_mask(cfg.grid_spec())
    inits = [_positive_bumps(mask, rng, sysc["n_bumps"], sysc["amp"])
             for _ in range(spec.m)]
    sol = systems.general_solve(inits, spec, cfg.t_end, dt=cfg.solver_dt(),
                                n_frames=cfg.n_frames, sampled_box=box)
    return [structural,
            systems.transformed_residual_report(sol),
            systems.transform_consistency_report(sol)] + _network_reports(sol)


def _run_interp(cfg: ExperimentConfig, rng) -> list[EstimateReport]:
    mask = full_mask(cfg.grid_spec())
    sysc = cfg.system
    center = tuple(0.5 * e for e in mask.grid.extent)
    dom_r = sysc["domain_radius"] * cfg.extent
    max_r = 0.5 * cfg.extent - 2.5 * mask.grid.h
    if dom_r > max_r:
        raise ConfigError(
            f"system.domain_radius keeps the subdomain {dom_r:.4g} from "
            f"fitting strictly inside the box (max {max_r:.4g})")
    domain = mask.ball_nodes(center, dom_r)
    u, w = random_admissible_pair(
        mask, domain, rng, n_bumps=sysc["n_bumps"], margin=sysc["margin"])
    full = interpolation_check(u, w, p=cfg.p, q=cfg.q, alpha=cfg.alpha,
                               r0=cfg.r0, C=cfg.frozen_c, domain=domain)
    ladder = cut_ball_check(u, w, center, cfg.radius, p=cfg.p, q=cfg.q,
                            alpha=cfg.alpha, domain=domain)
    return [full, ladder]


_PIPELINES = {
    "heatkernel": _run_heatkernel,
    "oscdecay": _run_oscdecay,
    "skt": _run_skt,
    "quad4": _run_quad4,
    "general": _run_general,
    "interp": _run_interp,
}


# ---------------------------------------------------------------------------
# entry points


def _as_config(config) -> ExperimentConfig:
    """An ExperimentConfig as is; a dict, path or JSON text parsed."""
    if isinstance(config, ExperimentConfig):
        return config
    if isinstance(config, dict):
        return ExperimentConfig(config)
    return ExperimentConfig.from_json(config)


def run_experiment(config) -> RunReport:
    """Run one experiment described by a config (dict, path, or JSON text).

    Deterministic: every random draw comes from ``config.seed``.  The
    returned report embeds the resolved config and the constants bundle.
    """
    import time as _time

    cfg = _as_config(config)
    rng = np.random.default_rng(cfg.seed)
    t0 = _time.perf_counter()
    checks = _PIPELINES[cfg.experiment](cfg, rng)
    wall = _time.perf_counter() - t0
    report = RunReport(config=cfg.echo(), checks=checks, wall_time=wall)
    if cfg.out_dir is not None:
        emit(report, cfg.out_dir, stem=cfg.stem)
    return report


def run_with_refinement(config, levels: int) -> list[RunReport]:
    """Base run plus ``levels`` mesh halvings (reports in order)."""
    if levels < 0:
        raise ConfigError(f"refinement levels must be >= 0, got {levels}")
    cfg = _as_config(config)
    reports = []
    for k in range(levels + 1):
        sub = cfg if k == 0 else cfg.refined(k)
        if sub.out_dir is not None and k > 0:
            sub.resolved["output"]["stem"] = f"{cfg.stem}_r{k}"
            sub.stem = f"{cfg.stem}_r{k}"
        reports.append(run_experiment(sub))
    return reports
