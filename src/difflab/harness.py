"""Experiment harness: JSON configs in, reproducible reports out.

A config names one of the built-in experiment presets and overrides its
defaults.  The preset table is the schema: a preset has only the fields its
pipeline reads, an override may only name one of them, each field is read
once (``system`` fields against the type of their default), and a
``system`` field this run does not read must keep its default, so a bad
config fails before any solve and the echo is what ran.  ``run_experiment``
builds the grid, draws every random object from the config seed, runs the
preset pipeline, and returns a :class:`~difflab.report.RunReport` whose
config block embeds the resolved settings and, for ``oscdecay``, the a0 = 1
bundle its checks apply and its window guard reads.  Reports are
deterministic: the same config and seed produce byte-identical JSON/CSV.

Presets
-------
``heatkernel``
    Neumann box kernel: mass conservation, decay-slope and first-moment
    reports, fitted prefactors (``estimate.eps`` sets the moment one).
``oscdecay``
    Rough-coefficient run plus oscillation-decay and supremum checks on a
    parabolic cylinder (optionally forced; each check fits the kernel's
    decay prefactor it applies).  Its estimate leaves are p, q, a0, c0 and
    the cylinder radius.
``skt``
    Cross-diffusion pair: positivity / ceiling / clipping audits, the
    companion-variable identity residual, nu bounds, an energy balance,
    and the one-sided interpolation usage on the convexified potential.
``general``
    A reaction network named by ``system.name`` (the quadratic quartet
    ``quad4`` among them): structural audit, transformed residual,
    transform consistency, and the network's mass conservation, mu
    pinching and potential-identity reports.  A network leaf the named
    factory does not take keeps its default.
``interp``
    Random admissible pair on a ball subdomain: cut-ball ladder and the
    full covering-based interpolation check.
"""

from __future__ import annotations

import copy
import inspect
import json
import math
import pathlib
import time
from dataclasses import fields

import numpy as np

from .errors import ConfigError, ParameterError
from .grid import Field, GridSpec, full_mask
from .interp import (_validate_hypotheses, cut_ball_check,
                     interpolation_check, random_admissible_pair)
from .kernel import (fitted_moment_prefactor, fitted_prefactor,
                     kernel_evolve, kernel_norm_report, moment_report)
# bound only for the benchmark span that wraps harness.kernel_calibration
from .kernel import kernel_calibration  # noqa: F401
from .report import EstimateReport, RunReport, emit, jsonable
from .rough import (RoughCoefficient, explicit_constants,
                    oscillation_decay_check, solve_rough,
                    supremum_bound_check)
from . import systems
from .systems import (PRESET_SYSTEMS, SKTParams, skt_auxiliary, skt_solve,
                      structural_checks)

__all__ = [
    "ExperimentConfig", "preset_config", "preset_names", "run_experiment",
    "run_with_refinement",
]


# ---------------------------------------------------------------------------
# preset defaults

# every preset is this base with its own blocks laid over it, time.dt only
# where it marches; a preset has only the leaves its pipeline reads
_BASE = {
    "seed": 0,
    "grid": {"dim": 2, "extent": 1.0},
    "time": {"dt": "auto"},
    "output": {"dir": None, "stem": "report"},
}

_OWN = {
    "heatkernel": {
        "grid": {"n": 96},
        "time": {"t_end": 0.3, "n_frames": 96},
        "estimate": {"eps": 0.25},
        "system": {"p_list": [1.0, 2.0, "inf"], "slope_tol": 0.1,
                   "moment_tol": 0.05, "source": "center"},
    },
    "oscdecay": {
        "grid": {"n": 33},
        "time": {"t_end": 0.06, "n_frames": 129},
        "estimate": {"p": "inf", "q": "inf", "a0": 1.0, "c0": 2.0,
                     "radius": 0.3},
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
        "estimate": {"p": 2.0, "q": 3.0, "alpha": 0.0, "r0": 0.3,
                     "C": None},
    },
    "general": {
        "grid": {"n": 24},
        "time": {"t_end": 0.1, "n_frames": 65},
        "system": {"name": "uum", "m": 2, "b": [1.0, 2.0],
                   "sp": 2, "sq": 1, "diffusions": None,
                   "amp": 1.0, "n_bumps": 4, "samples": 20000},
    },
    "interp": {
        "grid": {"dim": 3, "n": 24},
        "system": {"n_bumps": 6, "margin": 0.5, "domain_radius": 0.3},
        "estimate": {"p": 2.0, "q": "auto", "alpha": 0.3, "r0": 0.2,
                     "C": None, "radius": 0.3},
    },
}


# the one schema: an override may only name a leaf these dicts have, and
# each ``system`` leaf is read against the type of its default here
_PRESETS: dict[str, dict] = {
    name: {"experiment": name,
           **{k: v for k, v in _BASE.items() if k != "time"},
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


def _num(val, where: str, *, lo=None, hi=None, strict_lo=False,
         strict_hi=False, allow_inf=False, keep=(), integer=False):
    """The config value ``val`` at ``where`` as a checked number (a value in
    ``keep`` passes as is)."""
    if val in keep:
        return val
    if allow_inf and val in ("inf", "Infinity"):
        return math.inf
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where} must be a number, got {val!r}")
    try:
        val = float(val)
    except OverflowError:
        raise ConfigError(f"{where} must be a finite number, got an integer "
                          f"beyond the float range") from None
    if math.isnan(val) or (math.isinf(val) and not allow_inf):
        raise ConfigError(f"{where} must be a finite number"
                          f"{' or inf' if allow_inf else ''}, got {val}")
    if integer:
        if val != int(val):
            raise ConfigError(f"{where} must be an integer, got {val}")
        val = int(val)
    if lo is not None and (val <= lo if strict_lo else val < lo):
        raise ConfigError(f"{where} must be {'>' if strict_lo else '>='} "
                          f"{lo}, got {val}")
    if hi is not None and (val >= hi if strict_hi else val > hi):
        raise ConfigError(f"{where} must be {'<' if strict_hi else '<='} "
                          f"{hi}, got {val}")
    return val


# the bounds of every grid, time and estimate leaf, keyed by leaf name
_LEAVES = {
    "dim": dict(lo=1, hi=4, integer=True),
    "n": dict(lo=3, integer=True),
    "extent": dict(lo=0, strict_lo=True),
    "t_end": dict(lo=0),
    "dt": dict(lo=0, strict_lo=True, keep=("auto",)),
    "n_frames": dict(lo=2, integer=True),
    "p": dict(lo=1, allow_inf=True),
    "q": dict(lo=1, allow_inf=True, keep=("auto",)),
    "alpha": dict(lo=0, hi=1, strict_hi=True),
    "a0": dict(lo=0, strict_lo=True),
    "c0": dict(lo=1),
    "radius": dict(lo=0, strict_lo=True),
    "r0": dict(lo=0, strict_lo=True),
    "eps": dict(lo=0, strict_lo=True, hi=0.5),
    "C": dict(lo=0, strict_lo=True, keep=(None,)),
}


def _system(name: str, sysc: dict, dim: int) -> dict:
    """Each ``system`` leaf read against its preset default: a number >= 0,
    an integer >= 1, or a list of numbers for a list or null default
    (_numbers).  Shapes are checked too: ``source`` is "center" or ``dim``
    numbers, and ``domain_radius`` is positive.  Pipelines check the other
    strings.  A leaf the run does not read (_unread) must keep its
    default."""
    out = {}
    for key, default in _PRESETS[name]["system"].items():
        val = sysc[key]
        if key == "source":
            out[key] = val if val == "center" else _numbers(key, val, dim)
        elif isinstance(default, str) or (default is None and val is None):
            out[key] = val
        elif isinstance(default, int):
            out[key] = _num(val, f"system.{key}", lo=1, integer=True)
        elif isinstance(default, float):
            out[key] = _num(val, f"system.{key}", lo=0,
                            strict_lo=key == "domain_radius")
        else:
            out[key] = _numbers(key, val, None)
    for key, condition in _unread(name, out).items():
        if out[key] != _PRESETS[name]["system"][key]:
            raise ConfigError(f"system.{key} = {out[key]!r} is not read: it "
                              f"is read only when {condition}")
    return out


def _network_leaves(network: str) -> list:
    """The ``general`` system leaves the factory of ``network`` reads: its
    named parameters, in order."""
    params = inspect.signature(PRESET_SYSTEMS[network]).parameters.values()
    return [p.name for p in params
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)]


def _unread(name: str, sysc: dict) -> dict:
    """The ``system`` leaves this run does not read, each with the
    condition under which a run reads it: ``oscdecay``'s f_amp without
    random forcing, and each network leaf of ``general`` that the named
    factory does not take."""
    if name == "oscdecay" and sysc["forcing"] != "random":
        return {"f_amp": "system.forcing is 'random'"}
    if name != "general" or sysc["name"] not in PRESET_SYSTEMS:
        return {}
    readers = {}
    for network in PRESET_SYSTEMS:
        for key in _network_leaves(network):
            readers.setdefault(key, []).append(repr(network))
    takes = _network_leaves(sysc["name"])
    return {key: "system.name is " + " or ".join(networks)
            for key, networks in readers.items() if key not in takes}


def _numbers(key: str, val, length: int | None) -> list:
    """``system.key`` as a list of numbers, of ``length`` entries if given
    ("inf" allowed in ``p_list``, integers in ``b``)."""
    if not isinstance(val, list):
        raise ConfigError(f"system.{key} must be a list of numbers, "
                          f"got {type(val).__name__}")
    if length is not None and len(val) != length:
        raise ConfigError(f"system.{key} has {len(val)} entries, needs "
                          f"{length}")
    return [float(_num(v, f"system.{key}[{i}]", allow_inf=key == "p_list",
                       integer=key == "b"))
            for i, v in enumerate(val)]


class ExperimentConfig:
    """Validated, fully resolved experiment configuration: each grid, time
    and estimate leaf is the attribute of its name (``n`` one count per
    axis).  The a0 = 1 constants bundle is built when the preset has ``a0``,
    and the interpolation hypotheses are checked when it has ``alpha``."""

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got "
                              f"{type(data).__name__}")
        name = data.get("experiment")
        if not isinstance(name, str):
            raise ConfigError("config needs an 'experiment' field naming "
                              "a preset")
        merged = _merge(preset_config(name), data)
        if "seed" not in data:
            raise ConfigError("config is missing the mandatory 'seed' field")

        self.experiment = name
        self.seed = _num(merged["seed"], "seed", lo=0, integer=True)
        for block in ("grid", "time", "estimate"):
            for key, val in merged.get(block, {}).items():
                where = f"{block}.{key}"
                if key == "n":                   # one count per axis
                    val = val if isinstance(val, list) else [val] * self.dim
                    if len(val) != self.dim:
                        raise ConfigError(f"grid.n has {len(val)} entries "
                                          f"for dim {self.dim}")
                    val = tuple(_num(k, where, **_LEAVES[key]) for k in val)
                else:
                    val = _num(val, where, **_LEAVES[key])
                setattr(self, key, val)

        e = merged.get("estimate", {})
        if e.get("q") == "auto":                 # the echo shows the q run
            if math.isinf(self.p):
                raise ConfigError("estimate.q 'auto' needs a finite estimate.p")
            alpha = getattr(self, "alpha", 0.0)
            e["q"] = self.q = self.p * (3.0 - alpha) / (2.0 - alpha)
        self.constants = None
        try:
            if "a0" in e:
                fault = (f"grid.dim = {self.dim}, estimate.p = {self.p:g} "
                         f"and estimate.q = {self.q:g} admit no constants "
                         f"bundle")
                self.constants = explicit_constants(self.dim, self.p, self.q,
                                                    1.0, self.c0)
            if "alpha" in e:
                fault = (f"grid.dim = {self.dim}, estimate.p = {self.p:g}, "
                         f"estimate.q = {self.q:g} and estimate.alpha = "
                         f"{self.alpha:g} fail the interpolation hypotheses")
                _validate_hypotheses(self.dim, self.p, self.q, self.alpha)
        except ParameterError as exc:
            raise ConfigError(f"{fault}: {exc}") from exc

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
    def from_json(cls, path) -> "ExperimentConfig":
        """Read the JSON config file at ``path``."""
        try:
            return cls(json.loads(pathlib.Path(path).read_text()))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc

    # -- derived objects --------------------------------------------------

    def grid_spec(self) -> GridSpec:
        return GridSpec.make((self.extent,) * self.dim, self.n)

    def solver_dt(self):
        return None if self.dt == "auto" else self.dt

    def echo(self) -> dict:
        """Config block embedded in every report (JSON-safe)."""
        block = dict(self.resolved)
        if self.constants is not None:
            block["constants"] = self.constants.to_dict()
        return jsonable(block)

    def refined(self, k: int) -> "ExperimentConfig":
        """Level k of a refinement ladder: the mesh halved k times, files
        stemmed ``<stem>_r<k>`` for k > 0 and, where there is a time block,
        the frames and a set dt scaled with the mesh."""
        if k < 0:
            raise ConfigError(f"refinement levels must be >= 0, got {k}")
        data = copy.deepcopy(self.resolved)
        if k > 0:
            data["output"]["stem"] = f"{self.stem}_r{k}"
        factor = 2 ** k
        n = [(m - 1) * factor + 1 for m in self.n]
        data["grid"]["n"] = n if isinstance(data["grid"]["n"], list) else n[0]
        if "time" in data:
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


def _positive_bumps(mask, rng, n_bumps: int, amp: float) -> Field:
    """Positive smooth field in about [0.05 amp, 1.05 amp]."""
    vals = _random_bumps(mask, rng, n_bumps, amp)
    return Field(mask, 0.05 * amp + 0.5 * amp + 0.5 * vals)


# ---------------------------------------------------------------------------
# preset pipelines


def _run_heatkernel(cfg: ExperimentConfig, rng) -> list[EstimateReport]:
    mask = full_mask(cfg.grid_spec())
    sysc = cfg.system
    src = mask.grid.center if sysc["source"] == "center" else sysc["source"]
    kern = kernel_evolve(mask, src, cfg.t_end, dt=cfg.solver_dt(),
                         n_frames=cfg.n_frames)
    hd = mask.grid.h ** mask.grid.dim
    masses = hd * kern.values.sum(axis=1)
    drift = float(np.max(np.abs(masses - 1.0)))
    # cannot fail beyond rounding: on this pure-Neumann box kernel_evolve
    # raises SolverError once a frame's mass drifts 1e-9 from frame 0's
    mass = EstimateReport(
        check="kernel_mass_conservation",
        lhs=drift, rhs=1e-9,
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
    window = cfg.a0 * cfg.constants.beta * cfg.radius ** 2   # real time
    if cfg.t_end < window * (1 + 1e-9):
        raise ConfigError(
            f"time.t_end={cfg.t_end} is shorter than the parabolic window "
            f"a0 beta R^2 = {window:.6g}")
    sysc = cfg.system
    a_vals = cfg.a0 * (1.0 + (cfg.c0 - 1.0)
                       * rng.random(mask.active_count))
    coeff = RoughCoefficient(Field(mask, a_vals), cfg.a0, cfg.c0)
    w0 = Field(mask, 0.5 + 0.5 * _random_bumps(
        mask, rng, sysc["n_bumps"], sysc["w_amp"]))
    forcing = None
    if sysc["forcing"] == "random":
        f_vals = _random_bumps(mask, rng, sysc["n_bumps"], sysc["f_amp"])
        forcing = Field(mask, f_vals)
    elif sysc["forcing"] != "none":
        raise ConfigError("system.forcing must be 'none' or 'random'")
    sol = solve_rough(w0, coeff, forcing=forcing, t_end=cfg.t_end,
                      dt=cfg.solver_dt(), n_frames=cfg.n_frames)
    return [oscillation_decay_check(sol, cfg.p, cfg.q, mask.grid.center,
                                    cfg.radius),
            supremum_bound_check(sol, cfg.p, cfg.q)]


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

    # cannot fail: skt_solve refuses negative initial data and march records
    # u and v after clipping them at 0, so neg <= 0
    neg = -min(float(sol.u.values.min()), float(sol.v.values.min()))
    positivity = EstimateReport(
        check="skt_positivity", lhs=neg, rhs=1e-8,
        params={"clipped_mass": sol.clipped_mass},
        grid=gridd, details={"u_min": float(sol.u.values.min()),
                             "v_min": float(sol.v.values.min())})

    ceiling = params.v_ceiling(float(v0.values.max()))
    v_sup = float(sol.v.values.max())
    v_cap = EstimateReport(
        check="skt_v_ceiling", lhs=v_sup, rhs=ceiling + 1e-8,
        params={"v_init_max": float(v0.values.max()),
                "r_v_over_d22": params.r_v / params.d22},
        grid=gridd, details={})

    hd = mask.grid.h ** mask.grid.dim
    total0 = hd * float(u0.values.sum() + v0.values.sum())
    clip = EstimateReport(
        check="skt_clipping_audit", lhs=sol.clipped_mass,
        rhs=1e-8 * max(total0, 1e-30),
        params={"steps": sol.steps, "dt": sol.dt}, grid=gridd, details={})

    checks = [positivity, v_cap, clip,
              systems.nu_bounds_report(sol, aux), aux.residual,
              systems.lp_energy_report(sol, sysc["energy_p"])]

    w_t, lap_t = systems.convexified(sol, aux, sol.u.n_frames - 1)
    u_T = Field(mask, sol.u.values[-1])
    interp = interpolation_check(
        u_T, w_t, p=cfg.p, q=cfg.q, alpha=cfg.alpha, r0=cfg.r0,
        C=cfg.C, lap_w=lap_t)
    interp.details["convexity_coefficient"] = aux.coef
    checks.append(interp)
    return checks


def _general_spec(sysc: dict):
    """The network ``system.name`` names, built from the leaves its factory
    takes (``diffusions`` only when not null)."""
    name = sysc["name"]
    if name not in PRESET_SYSTEMS:
        raise ConfigError(f"system.name must be one of "
                          f"{sorted(PRESET_SYSTEMS)}, got {name!r}")
    keys = [key for key in _network_leaves(name)
            if key != "diffusions" or sysc["diffusions"] is not None]
    return PRESET_SYSTEMS[name](**{k: sysc[k] for k in keys})


def _run_general(cfg: ExperimentConfig, rng) -> list[EstimateReport]:
    sysc = cfg.system
    spec = _general_spec(sysc)
    structural = structural_checks(spec, n_samples=sysc["samples"])
    mask = full_mask(cfg.grid_spec())
    inits = [_positive_bumps(mask, rng, sysc["n_bumps"], sysc["amp"])
             for _ in range(spec.m)]
    sol = systems.general_solve(inits, spec, cfg.t_end, dt=cfg.solver_dt(),
                                n_frames=cfg.n_frames)
    diff = sol.spec.diffusions
    return [structural,
            systems.transformed_residual_report(sol),
            systems.transform_consistency_report(sol),
            systems.quad_mass_report(sol), systems.quad_mu_report(sol, diff),
            systems.quad_identity_report(sol, diff)]


def _run_interp(cfg: ExperimentConfig, rng) -> list[EstimateReport]:
    mask = full_mask(cfg.grid_spec())
    sysc = cfg.system
    center = mask.grid.center
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
                               r0=cfg.r0, C=cfg.C, domain=domain)
    ladder = cut_ball_check(u, w, center, cfg.radius, p=cfg.p, q=cfg.q,
                            alpha=cfg.alpha, domain=domain)
    return [full, ladder]


_PIPELINES = {
    "heatkernel": _run_heatkernel,
    "oscdecay": _run_oscdecay,
    "skt": _run_skt,
    "general": _run_general,
    "interp": _run_interp,
}


# ---------------------------------------------------------------------------
# entry points


def _as_config(config) -> ExperimentConfig:
    """An ExperimentConfig as is; a dict validated into one."""
    return config if isinstance(config, ExperimentConfig) \
        else ExperimentConfig(config)


def run_experiment(config) -> RunReport:
    """Run one experiment described by a config (a dict or an
    ExperimentConfig; ``ExperimentConfig.from_json`` reads a file).

    Deterministic: every random draw comes from ``config.seed``.  The
    returned report embeds the resolved config (and the constants bundle
    when the preset builds one).
    """
    cfg = _as_config(config)
    rng = np.random.default_rng(cfg.seed)
    t0 = time.perf_counter()
    checks = _PIPELINES[cfg.experiment](cfg, rng)
    wall = time.perf_counter() - t0
    report = RunReport(config=cfg.echo(), checks=checks, wall_time=wall)
    if cfg.out_dir is not None:
        emit(report, cfg.out_dir, stem=cfg.stem)
    return report


def run_with_refinement(config, levels: int) -> list[RunReport]:
    """Base run plus ``levels`` mesh halvings (reports in order)."""
    if levels < 0:
        raise ConfigError(f"refinement levels must be >= 0, got {levels}")
    cfg = _as_config(config)
    return [run_experiment(cfg.refined(k) if k else cfg)
            for k in range(levels + 1)]
