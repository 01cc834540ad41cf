"""The three benchmark workloads: ``march``, ``sweep`` and ``interp``.

A workload has a fixed composition: the sequence of case kinds in one pass.
A *case* is one seeded input taken through solve and checks to its
``EstimateReport`` verdicts; it returns a ``RunReport`` whose JSON is the
payload that untraced and traced passes must reproduce byte for byte.  The
workload seed and the pass index change only the case seeds, never the
composition.  The benchmark draws every field itself; difflab receives only
configs and fields.

Why these three (each stresses a different layer):

* ``march``: long explicit solves on mid-to-large grids, where the
  divergence-form Laplacian dominates.  The criteria's grids are kept; the
  simulated time is a fixed share of each criterion's ``t_end`` so that one
  pass takes a few seconds.
* ``sweep``: hundreds of tiny rough-coefficient solves through the config
  harness and report emission, where per-step and per-call overhead
  dominates.
* ``interp``: the criterion-10 calibrate-then-verify protocol on the 32^3
  box, where the Hoelder threshold and the covering dominate and the
  operator runs only twice per case.
"""

from __future__ import annotations

import math
import pathlib

import numpy as np

import difflab as dl

WARMUP_PASS = 1_000_000      # pass index that seeds the set-up warm-ups


def case_seed(seed: int, pass_index: int, slot: int) -> int:
    """Seed of the case at ``slot`` of pass ``pass_index``."""
    seq = np.random.SeedSequence([seed, pass_index, slot])
    return int(seq.generate_state(1)[0])


def bumps(mask, rng, n_bumps: int, amp: float) -> np.ndarray:
    """Smooth random field on the active nodes with peak magnitude ``amp``."""
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
    return vals * (amp / max(float(np.max(np.abs(vals))), 1e-300))


def positive_bumps(mask, rng, n_bumps: int, amp: float) -> dl.Field:
    """Positive smooth field in about [0.05 amp, 1.05 amp]."""
    return dl.Field(mask, 0.55 * amp + 0.5 * bumps(mask, rng, n_bumps, amp))


def verdict(check: str, lhs: float, rhs: float, passed: bool,
            **details) -> dl.EstimateReport:
    """A check computed by the benchmark itself, reported like the lab's."""
    return dl.EstimateReport(check=check, lhs=float(lhs), rhs=float(rhs),
                             passed=bool(passed), details=details)


def fieldio_roundtrip(traj: dl.Trajectory, path: pathlib.Path):
    """Save and reload ``traj``; values and active set must come back exact.

    Frame times do not survive for unequally spaced frames (the format
    stores one dt); those frames are counted, not failed.
    """
    dl.save_trajectory(path, traj)
    back = dl.load_trajectory(path)
    path.unlink()
    same_active = np.array_equal(back.mask.active, traj.mask.active)
    same = same_active and np.array_equal(back.values, traj.values)
    diff = (float(np.max(np.abs(back.values - traj.values)))
            if same_active and back.values.shape == traj.values.shape
            else math.inf)
    want = traj.times - traj.times[0]
    if back.times.shape == want.shape:
        bad = ~np.isclose(back.times, want, rtol=1e-9, atol=1e-15)
        mismatch = int(np.count_nonzero(bad))
    else:
        mismatch = int(traj.n_frames)
    report = verdict("fieldio_roundtrip", diff, 0.0, same,
                     frames=int(traj.n_frames), times_mismatch=mismatch)
    return report, mismatch


class Workload:
    """Composition, fixtures and cases of one workload."""

    name = ""
    kinds: tuple = ()

    def __init__(self, scratch: pathlib.Path):
        self.scratch = scratch

    def setup(self) -> None:
        """Build the masks and grids the cases share."""

    def warmup_plan(self, seed: int) -> list:
        """One case per case kind, run during set-up."""
        kinds = list(dict.fromkeys(self.kinds))
        return [(k, case_seed(seed, WARMUP_PASS, i))
                for i, k in enumerate(kinds)]

    def plan(self, seed: int, pass_index: int) -> list:
        return [(k, case_seed(seed, pass_index, i))
                for i, k in enumerate(self.kinds)]

    def begin_pass(self) -> None:
        """Reset state that lives for one pass."""

    def run_case(self, kind: str, seed: int, warmup: bool = False):
        """Returns (RunReport, counters)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# march


GRAPH_R = 1.0
GRAPH_T_CAP = 49.0 * GRAPH_R ** 2 / (200.0 * 2)      # criterion 4, d = 2
GRAPH_AMP = GRAPH_R / (11.0 * 2) * 0.9
SKT_PARAMS = dict(d1=0.1, d2=0.2, sigma=0.5, r_u=1.0, r_v=1.0,
                  d11=1.0, d12=0.5, d21=0.5, d22=1.0)
QUAD_DIFF = (1.0, 1.5, 0.5, 2.0)


def phi_sin(x):
    return GRAPH_AMP * 0.5 * np.sin(np.pi * x[:, 0] / (2 * GRAPH_R))


class March(Workload):
    name = "march"
    kinds = ("heatkernel", "gauss_flat", "gauss_sin", "skt", "quad",
             "networks")
    # share of each criterion's t_end a timed case simulates; the network
    # audits and the general solve run at full size
    T_SHARE = 0.25
    # warm-ups only fill stencils and first-call paths; the graph kernels
    # must still reach the comparison window, which opens at 0.1 t_cap
    WARM_SHARE = {"heatkernel": 0.1, "gauss_flat": 0.12, "gauss_sin": 0.12,
                  "skt": 0.02, "quad": 0.02}

    def setup(self):
        grid = dl.GridSpec.make((2.0, 2.0), 193, origin=(-1.0, -1.0))
        self.graph = {
            "gauss_flat": dl.admissible_graph_domain(grid, GRAPH_R, 0.0),
            "gauss_sin": dl.admissible_graph_domain(grid, GRAPH_R, phi_sin),
        }
        self.box64 = dl.full_mask(dl.GridSpec.make((1.0, 1.0), 64))
        self.box24 = dl.full_mask(dl.GridSpec.make((1.0, 1.0), 24))
        self.skt = dl.SKTParams(**SKT_PARAMS)
        self.networks = [dl.preset_quad4(), dl.preset_uum(1, (1,)),
                         dl.preset_uum(2, (2, 1)), dl.preset_s1_2s2(),
                         dl.preset_p_q_2s3(1, 2), dl.preset_p_q_2s3(2, 2)]

    def run_case(self, kind, seed, warmup=False):
        share = self.WARM_SHARE.get(kind, 1.0) if warmup else self.T_SHARE
        counters = {"fieldio.times_mismatch": 0}
        traj_path = self.scratch / f"{kind}.traj"
        rng = np.random.default_rng(seed)
        config = {"workload": self.name, "kind": kind, "seed": seed,
                  "share": share}

        if kind == "heatkernel":
            return dl.run_experiment({
                "experiment": "heatkernel", "seed": seed,
                "time": {"t_end": 0.3 * share}}), counters

        trajectories = []
        if kind in self.graph:
            mask = self.graph[kind]
            src = dl.source_ball_center(GRAPH_R, None, 2)
            kern = dl.kernel_evolve(mask, tuple(src),
                                    t_end=GRAPH_T_CAP * share, n_frames=64)
            checks = [dl.gaussian_lower_bound_check(kern, GRAPH_R,
                                                    slack=0.05)]
            trajectories.append(kern)
        elif kind == "skt":
            u0 = positive_bumps(self.box64, rng, 5, 0.8)
            v0 = positive_bumps(self.box64, rng, 5, 0.8)
            sol = dl.skt_solve(u0, v0, self.skt, 1.0 * share, n_frames=33)
            aux = dl.skt_auxiliary(sol)
            low = min(float(sol.u.values.min()), float(sol.v.values.min()))
            cap = self.skt.v_ceiling(float(v0.values.max())) + 1e-8
            v_top = float(sol.v.values.max())
            w_t, lap_t = dl.skt_convexified(sol, aux, sol.u.n_frames - 1)
            u_end = dl.Field(self.box64, sol.u.values[-1])
            checks = [
                verdict("skt_positivity", -low, 1e-8, low >= -1e-8),
                verdict("skt_v_ceiling", v_top, cap, v_top <= cap),
                dl.nu_bounds_report(sol, aux), aux.residual,
                dl.lp_energy_report(sol, 2),
                dl.interpolation_check(u_end, w_t, p=2.0, q=3.0, alpha=0.0,
                                       r0=0.3, lap_w=lap_t),
            ]
            trajectories.append(sol.u)
        elif kind == "quad":
            inits = [positive_bumps(self.box64, rng, 4, 1.0)
                     for _ in range(4)]
            sol = dl.quadratic_solve(inits, QUAD_DIFF, 0.5 * share,
                                     n_frames=33)
            checks = [dl.quad_mass_report(sol),
                      dl.quad_mu_report(sol, QUAD_DIFF),
                      dl.quad_identity_report(sol, QUAD_DIFF)]
            trajectories.append(sol.w)
        elif kind == "networks":
            samples = 10_000 if warmup else 100_000
            checks = [dl.structural_checks(spec, n_samples=samples)
                      for spec in self.networks]
            spec = dl.preset_uum(2, (1.0, 2.0))
            inits = [positive_bumps(self.box24, rng, 4, 1.0)
                     for _ in range(spec.m)]
            sol = dl.general_solve(inits, spec, 0.1, n_frames=65,
                                   sampled_box=(0.0, 10.0))
            checks += [dl.transformed_residual_report(sol),
                       dl.transform_consistency_report(sol)]
        else:
            raise ValueError(f"unknown march case kind {kind!r}")

        for traj in trajectories:
            report, mismatch = fieldio_roundtrip(traj, traj_path)
            checks.append(report)
            counters["fieldio.times_mismatch"] += mismatch
        return dl.RunReport(config=config, checks=checks), counters


# ---------------------------------------------------------------------------
# sweep


class Sweep(Workload):
    name = "sweep"
    _base = ("osc1d_none", "osc2d_none", "osc1d_random", "osc2d_random",
             "pair1d", "pair2d", "sandwich1d", "sandwich2d")
    kinds = _base * 6

    def setup(self):
        self.masks = {1: dl.full_mask(dl.GridSpec.make((1.0,), 65)),
                      2: dl.full_mask(dl.GridSpec.make((1.0, 1.0), 33))}
        self.out = self.scratch / "reports"

    def run_case(self, kind, seed, warmup=False):
        dim = 1 if "1d" in kind else 2
        if kind.startswith("osc"):
            return self._oscdecay(kind, seed, dim), {}
        mask = self.masks[dim]
        rng = np.random.default_rng(seed)
        n = mask.active_count
        a = dl.Field(mask, 1.0 + rng.random(n))
        config = {"workload": self.name, "kind": kind, "seed": seed}
        if kind.startswith("pair"):
            # criterion 6: same clock and data, ordered forcings
            w0 = dl.Field(mask, rng.standard_normal(n))
            f_lo = bumps(mask, rng, 5, 1.0)
            f_hi = f_lo + np.abs(bumps(mask, rng, 5, 0.5))
            coeff = dl.RoughCoefficient(a, 1.0, 2.0)
            lo, hi = (dl.solve_rough(w0, coeff, forcing=dl.Field(mask, f),
                                     t_end=0.02, n_frames=17)
                      for f in (f_lo, f_hi))
            worst = float(np.max(lo.traj.values - hi.traj.values))
            check = verdict("comparison_ordered_forcing", worst, 1e-10,
                            worst <= 1e-10)
        else:
            # criterion 6: constant data, f >= 0, the slowest clock lowest
            w0 = dl.Field.constant(mask, float(rng.random()))
            f = dl.Field(mask, np.abs(bumps(mask, rng, 5, 1.0)))
            slow, mid, fast = (
                dl.solve_rough(w0, dl.RoughCoefficient(c, 1.0, 2.0),
                               forcing=f, t_end=0.02, n_frames=17)
                for c in (2.0, a, 1.0))
            worst = max(float(np.max(slow.traj.values - mid.traj.values)),
                        float(np.max(mid.traj.values - fast.traj.values)))
            check = verdict("comparison_coefficient_sandwich", worst, 1e-10,
                            worst <= 1e-10)
        return dl.RunReport(config=config, checks=[check]), {}

    def _oscdecay(self, kind, seed, dim):
        report = dl.run_experiment({
            "experiment": "oscdecay", "seed": seed,
            "grid": {"dim": dim, "n": 65 if dim == 1 else 33},
            "system": {"forcing": kind.split("_")[1]},
            "output": {"dir": str(self.out), "stem": kind}})
        same = ((self.out / f"{kind}.json").read_text() == report.to_json()
                and (self.out / f"{kind}.csv").read_text()
                == report.to_csv())
        report.checks.append(verdict("emitted_files_match", 0.0 if same
                                     else 1.0, 0.0, same))
        return report


# ---------------------------------------------------------------------------
# interp


INTERP_ALPHA = 0.3
INTERP_Q = 2.0 * (3.0 - INTERP_ALPHA) / (2.0 - INTERP_ALPHA)


class Interp(Workload):
    """Criterion 10, one protocol per pass: calibrate, freeze, verify.

    The frozen constant is 1.25 times the largest fitted constant of the
    pass.  Ten calibration seeds keep the chance that a fresh verification
    seed exceeds it small; with two, fitted constants vary by up to 1.9x
    across seeds, so the frozen constant would miss often.
    """

    name = "interp"
    kinds = ("calibrate",) * 10 + ("verify",) * 2
    HEADROOM = 1.25

    def setup(self):
        self.mask = dl.full_mask(dl.GridSpec.make((1.0, 1.0, 1.0), 32))
        coords = self.mask.node_coords()
        self.domain = np.all((coords > 0.15) & (coords < 0.85), axis=1)
        self.fitted = []

    def warmup_plan(self, seed):
        # both kinds run the same functions; only the constant differs
        return [("calibrate", case_seed(seed, WARMUP_PASS, 0))]

    def begin_pass(self):
        self.fitted = []

    def run_case(self, kind, seed, warmup=False):
        u, w = dl.random_admissible_pair(self.mask, self.domain,
                                         np.random.default_rng(seed))
        frozen = None
        if kind == "verify":
            frozen = self.HEADROOM * max(self.fitted)
        elif kind != "calibrate":
            raise ValueError(f"unknown interp case kind {kind!r}")
        rep = dl.interpolation_check(u, w, p=2.0, q=INTERP_Q,
                                     alpha=INTERP_ALPHA, r0=0.15,
                                     domain=self.domain, C=frozen)
        if kind == "calibrate" and not warmup:
            self.fitted.append(rep.details["fitted_constant"])
        ladder = dl.cut_ball_check(u, w, (0.5, 0.5, 0.5), 0.3, p=2.0,
                                   q=INTERP_Q, alpha=INTERP_ALPHA,
                                   domain=self.domain)
        config = {"workload": self.name, "kind": kind, "seed": seed,
                  "frozen_constant": frozen}
        return dl.RunReport(config=config, checks=[rep, ladder]), {}


WORKLOADS = {cls.name: cls for cls in (March, Sweep, Interp)}
