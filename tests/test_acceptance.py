"""Acceptance gate: each test exercises one of the package's headline
guarantees end to end, at the tolerance it is sold with, and prints a single
pass/fail line (run with ``pytest -s`` to see them inline).

The criteria are numbered; each function is self-contained apart from the
96^2 kernel run shared by the decay and moment checks.  Runtime budgets are
asserted alongside the tolerances so that a regression in either shows up
here first.
"""

import time

import numpy as np
import pytest

from difflab import (
    Field,
    GeneralSystemSpec,
    GridSpec,
    RoughCoefficient,
    SKTParams,
    admissible_graph_domain,
    default_overlap_cap,
    explicit_constants,
    full_mask,
    gaussian_lower_bound_check,
    interpolation_check,
    kernel_evolve,
    kernel_moment,
    moment_report,
    nu_bounds_report,
    oscillation_decay_check,
    preset_p_q_2s3,
    preset_quad4,
    preset_s1_2s2,
    preset_uum,
    quad_identity_report,
    quad_mass_report,
    quad_mu_report,
    quadratic_solve,
    random_admissible_pair,
    skt_auxiliary,
    skt_solve,
    solve_rough,
    source_ball_center,
    space_norm,
    structural_checks,
)
from difflab.harness import _positive_bumps, _random_bumps, run_experiment
from difflab.kernel import fit_power, intermediate_regime
from test_rough import CONSTANTS_ORACLE, ORACLE_RTOL

INF = float("inf")

SKT_PARAMS = SKTParams(d1=0.1, d2=0.2, sigma=0.5, r_u=1.0, r_v=1.0,
                       d11=1.0, d12=0.5, d21=0.5, d22=1.0)
QUAD_DIFF = (1.0, 1.5, 0.5, 2.0)


def _verdict(num, label, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {label}: {status} "
          f"({detail}; {elapsed:.1f}s of {budget:.0f}s)")
    assert ok, f"criterion {num}: {label} -- {detail}"
    assert elapsed < budget, \
        f"criterion {num} exceeded its {budget:.0f}s budget: {elapsed:.1f}s"


# -- criterion 1: explicit constants against the frozen oracle --------------


def test_criterion_01_explicit_constants():
    t0 = time.perf_counter()
    worst = 0.0
    for row in CONSTANTS_ORACLE:
        d, p, q, a0, c0 = row[:5]
        bundle = explicit_constants(d, p, q, a0, c0)
        got = (bundle.gamma, bundle.beta, bundle.delta, bundle.A,
               bundle.alpha, bundle.K1)
        for g, want in zip(got, row[5:]):
            worst = max(worst, abs(g / want - 1.0))
    ok = worst <= ORACLE_RTOL
    _verdict(1, "explicit constants (12-digit oracle)", ok,
             f"12 tuples, worst rel err {worst:.2e}",
             time.perf_counter() - t0, 1.0)


# -- criteria 2 and 3: kernel decay and moment growth ------------------------


@pytest.fixture(scope="module")
def kernel96():
    mask = full_mask(GridSpec.make((1.0, 1.0), 96))
    start = time.perf_counter()
    kern = kernel_evolve(mask, (0.5, 0.5), t_end=0.3, n_frames=96)
    return kern, time.perf_counter() - start


def test_criterion_02_kernel_decay(kernel96):
    kern, t_solve = kernel96
    t0 = time.perf_counter()
    hd = kern.grid.h ** 2
    mass_dev = float(np.max(np.abs(hd * kern.values.sum(axis=1) - 1.0)))
    idx = intermediate_regime(kern)
    t = kern.times[idx]
    slope_inf, _ = fit_power(t, space_norm(kern.values, kern.grid, INF)[idx])
    slope_two, _ = fit_power(t, space_norm(kern.values, kern.grid, 2.0)[idx])
    ok = (mass_dev <= 1e-9
          and abs(slope_inf - (-1.0)) <= 0.1
          and abs(slope_two - (-0.5)) <= 0.07)
    _verdict(2, "heat-kernel decay slopes", ok,
             f"sup slope {slope_inf:.3f}, L2 slope {slope_two:.3f}, "
             f"mass dev {mass_dev:.1e}",
             t_solve + time.perf_counter() - t0, 60.0)


def test_criterion_03_kernel_moment(kernel96):
    kern, t_solve = kernel96
    t0 = time.perf_counter()
    idx = intermediate_regime(kern)
    slope, _ = fit_power(kern.times[idx], kernel_moment(kern)[idx])
    rep = moment_report(kern, tol=0.05)
    ok = rep.passed and abs(slope - 0.5) <= 0.05
    _verdict(3, "first-moment growth", ok, f"slope {slope:.3f}",
             t_solve + time.perf_counter() - t0, 30.0)


# -- criterion 4: Gaussian lower bound on graph domains ----------------------


def test_criterion_04_gaussian_comparison():
    t0 = time.perf_counter()
    R = 1.0
    t_cap = 49.0 * R * R / (200.0 * 2)
    amp = R / (11.0 * 2) * 0.9

    def phi_sin(x):
        return amp * 0.5 * np.sin(np.pi * x[:, 0] / (2 * R))

    results = {}
    for label, phi in (("flat", 0.0), ("sin", phi_sin)):
        deficits = []
        for n in (97, 193):
            grid = GridSpec.make((2.0, 2.0), n, origin=(-1.0, -1.0))
            mask = admissible_graph_domain(grid, R, phi)
            src = source_ball_center(R, None, 2)
            kern = kernel_evolve(mask, tuple(src), t_end=t_cap, n_frames=64)
            rep = gaussian_lower_bound_check(kern, R, slack=0.05)
            assert rep.details["points_checked"] > 10_000
            assert rep.passed == (rep.details["violations"] == 0)
            deficits.append((rep.details["violations"], rep.lhs))
        results[label] = deficits
    ok = all(v == 0 for row in results.values() for v, _ in row) \
        and all(row[1][1] <= row[0][1] + 1e-12 for row in results.values())
    detail = ", ".join(
        f"{lab}: deficits {row[0][1]:.4f}->{row[1][1]:.4f}"
        for lab, row in results.items())
    _verdict(4, "Gaussian lower bound (h and h/2)", ok, detail,
             time.perf_counter() - t0, 120.0)


# -- criterion 5: oscillation decay over randomized rough runs ---------------


def _osc_case(mask, seed, forcing=None):
    rng = np.random.default_rng(seed)
    a = Field(mask, 1.0 + rng.random(mask.active_count))
    w0 = Field(mask, 0.5 + 0.5 * _random_bumps(mask, rng, 6, 1.0))
    sol = solve_rough(w0, RoughCoefficient(a, 1.0, 2.0), forcing=forcing,
                      t_end=0.06, n_frames=129)
    return oscillation_decay_check(sol, INF, INF, mask.grid.center, 0.3)


def test_criterion_05_oscillation_decay():
    t0 = time.perf_counter()
    m1 = full_mask(GridSpec.make((1.0,), 65))
    m2 = full_mask(GridSpec.make((1.0, 1.0), 33))
    unforced = 0
    for s in range(50):
        unforced += _osc_case(m1, 10_000 + s).passed
        unforced += _osc_case(m2, 20_000 + s).passed

    # each forced case fits its kernel prefactor over the 2-D cylinder's
    # window beta R^2
    forced = 0
    for s in range(100):
        rng = np.random.default_rng(30_000 + s)
        f = Field(m2, _random_bumps(m2, rng, 6, 1.0))
        forced += _osc_case(m2, 30_000 + s, forcing=f).passed
    ok = unforced == 100 and forced == 100
    _verdict(5, "oscillation decay (100 free + 100 forced)", ok,
             f"{unforced}/100 unforced, {forced}/100 forced",
             time.perf_counter() - t0, 300.0)


# -- criterion 6: comparison principle over randomized pairs -----------------


def test_criterion_06_comparison_suite():
    t0 = time.perf_counter()
    m1 = full_mask(GridSpec.make((1.0,), 65))
    m2 = full_mask(GridSpec.make((1.0, 1.0), 33))
    worst = 0.0
    pairs = 0

    # 100 pairs ordered by the forcing (identical a, w0)
    for s in range(100):
        mask = m1 if s % 2 == 0 else m2
        rng = np.random.default_rng(40_000 + s)
        n = mask.active_count
        a = Field(mask, 1.0 + rng.random(n))
        w0 = Field(mask, rng.standard_normal(n))
        f_lo = Field(mask, _random_bumps(mask, rng, 5, 1.0))
        f_hi = Field(mask, f_lo.values
                     + np.abs(_random_bumps(mask, rng, 5, 0.5)))
        lo = solve_rough(w0, RoughCoefficient(a, 1.0, 2.0), forcing=f_lo,
                         t_end=0.02, n_frames=17)
        hi = solve_rough(w0, RoughCoefficient(a, 1.0, 2.0), forcing=f_hi,
                         t_end=0.02, n_frames=17)
        worst = max(worst, float(np.max(lo.traj.values - hi.traj.values)))
        pairs += 1

    # 50 draws of the coefficient sandwich: constant data, f >= 0, so the
    # run with the uniformly slowest clock (a = c0 a0) sits lowest
    for s in range(50):
        mask = m1 if s % 2 == 0 else m2
        rng = np.random.default_rng(50_000 + s)
        n = mask.active_count
        a = Field(mask, 1.0 + rng.random(n))
        w0 = Field.constant(mask, float(rng.random()))
        f = Field(mask, np.abs(_random_bumps(mask, rng, 5, 1.0)))
        slow = solve_rough(w0, RoughCoefficient(2.0, 1.0, 2.0), forcing=f,
                           t_end=0.02, n_frames=17)
        mid = solve_rough(w0, RoughCoefficient(a, 1.0, 2.0), forcing=f,
                          t_end=0.02, n_frames=17)
        fast = solve_rough(w0, RoughCoefficient(1.0, 1.0, 2.0), forcing=f,
                           t_end=0.02, n_frames=17)
        worst = max(worst,
                    float(np.max(slow.traj.values - mid.traj.values)),
                    float(np.max(mid.traj.values - fast.traj.values)))
        pairs += 2

    ok = pairs == 200 and worst <= 1e-10
    _verdict(6, "comparison principle (200 ordered pairs)", ok,
             f"worst violation {worst:.2e}",
             time.perf_counter() - t0, 120.0)


# -- criterion 7: cross-diffusion pipeline ------------------------------------


def test_criterion_07_skt_pipeline():
    t0 = time.perf_counter()
    mask = full_mask(GridSpec.make((1.0, 1.0), 64))
    rng = np.random.default_rng(7)
    u0 = _positive_bumps(mask, rng, 5, 0.8)
    v0 = _positive_bumps(mask, rng, 5, 0.8)
    sol = skt_solve(u0, v0, SKT_PARAMS, 1.0, n_frames=33)
    aux = skt_auxiliary(sol)
    positivity = min(float(np.min(sol.u.values)), float(np.min(sol.v.values)))
    cap = SKT_PARAMS.v_ceiling(float(v0.values.max()))
    ceiling_excess = float(np.max(sol.v.values)) - cap
    nu_breach = nu_bounds_report(sol, aux).lhs

    def smooth_u(x):
        return 0.5 + 0.3 * np.cos(np.pi * x[:, 0]) * np.cos(2 * np.pi * x[:, 1])

    def smooth_v(x):
        return 0.4 + 0.2 * np.cos(2 * np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])

    residuals = []
    for n, frames in ((17, 33), (33, 65), (65, 129)):
        mk = full_mask(GridSpec.make((1.0, 1.0), n))
        s = skt_solve(Field.from_function(mk, smooth_u),
                      Field.from_function(mk, smooth_v),
                      SKT_PARAMS, 0.25, n_frames=frames)
        residuals.append(skt_auxiliary(s).residual.lhs)
    orders = [float(np.log2(residuals[i] / residuals[i + 1]))
              for i in range(2)]
    ok = (positivity >= -1e-8 and ceiling_excess <= 1e-8
          and nu_breach <= 1e-12
          and all(0.8 <= o <= 2.5 for o in orders))
    _verdict(7, "cross-diffusion pipeline", ok,
             f"min {positivity:.2e}, ceiling excess {ceiling_excess:.2e}, "
             f"nu breach {nu_breach:.1e}, orders "
             + "/".join(f"{o:.2f}" for o in orders),
             time.perf_counter() - t0, 180.0)


# -- criterion 8: quadratic quartet -------------------------------------------


def test_criterion_08_quadratic_system():
    t0 = time.perf_counter()
    mask = full_mask(GridSpec.make((1.0, 1.0), 64))
    rng = np.random.default_rng(11)
    inits = [_positive_bumps(mask, rng, 4, 1.0) for _ in range(4)]
    sol = quadratic_solve(inits, QUAD_DIFF, 0.5, n_frames=33)
    drift = quad_mass_report(sol).lhs
    mu_breach = quad_mu_report(sol, QUAD_DIFF).lhs

    def blob(i):
        def f(x):
            return 0.3 + 0.2 * np.cos((i + 1) * np.pi * x[:, 0]) \
                * np.cos(np.pi * x[:, 1])
        return f

    laps = []
    for n, frames in ((17, 33), (33, 65), (65, 129)):
        mk = full_mask(GridSpec.make((1.0, 1.0), n))
        s = quadratic_solve([Field.from_function(mk, blob(i))
                             for i in range(4)], QUAD_DIFF, 0.25,
                            n_frames=frames)
        laps.append(quad_identity_report(s, QUAD_DIFF)
                    .details["lap_identity_inf"])
    orders = [float(np.log2(laps[i] / laps[i + 1])) for i in range(2)]

    from scipy.integrate import solve_ivp

    def rhs(_t, y):
        r = y[0] * y[2] - y[1] * y[3]
        return [-r, r, -r, r]

    uniform = (0.8, 0.1, 0.6, 0.2)
    ref = solve_ivp(rhs, (0.0, 0.5), list(uniform), rtol=1e-12, atol=1e-14)
    tiny = full_mask(GridSpec.make((1.0,), 3))
    usol = quadratic_solve([Field.constant(tiny, c) for c in uniform],
                           QUAD_DIFF, 0.5, dt=8e-6, n_frames=3)
    ode_err = max(abs(float(usol.u[i].values[-1][0]) - ref.y[i, -1])
                  for i in range(4))

    ok = (drift <= 1e-10 and mu_breach <= 1e-12
          and all(o >= 1.0 for o in orders) and ode_err <= 1e-6)
    _verdict(8, "quadratic quartet", ok,
             f"mass drift {drift:.1e}, mu breach {mu_breach:.1e}, "
             f"identity orders " + "/".join(f"{o:.2f}" for o in orders)
             + f", ODE err {ode_err:.1e}",
             time.perf_counter() - t0, 120.0)


# -- criterion 9: structural audits -------------------------------------------


def test_criterion_09_structural_checks():
    t0 = time.perf_counter()
    presets = [preset_quad4(), preset_uum(1, (1,)), preset_uum(2, (2, 1)),
               preset_s1_2s2(), preset_p_q_2s3(1, 2), preset_p_q_2s3(2, 2)]
    all_pass = True
    mass_zero = True
    for spec in presets:
        rep = structural_checks(spec, n_samples=100_000)
        all_pass &= rep.passed
        if spec.name.startswith(("quad4", "uum")):
            mass_zero &= rep.details["a2_symbolic_zero"] \
                and rep.details["a2_worst"] == 0.0

    rng = np.random.default_rng(17)
    table_err = 0.0
    for m in range(2, 7):
        A = np.tril(rng.standard_normal((m, m)))
        np.fill_diagonal(A, 1.0 + rng.random(m))
        d = tuple(0.5 + 2.0 * rng.random(m))
        spec = GeneralSystemSpec(d, [[(0.0, (0,) * m)] for _ in range(m)],
                                 (1.0,) * m, A, K=1.0)
        M = (np.asarray(d)[None, :] - np.asarray(d)[:, None]) * A
        np.fill_diagonal(M, 0.0)
        table_err = max(table_err, float(np.max(np.abs(
            spec.c_table() @ A - M))))

    ok = all_pass and mass_zero and table_err <= 1e-12
    _verdict(9, "structural audits", ok,
             f"6 presets at 1e5 samples, c-table defect {table_err:.1e}",
             time.perf_counter() - t0, 30.0)


# -- criterion 10: one-sided interpolation, calibrate then verify -------------


def test_criterion_10_interpolation():
    """Freeze C* = 1.25 x the largest fitted constant of 100 calibration
    seeds, then verify 100 fresh seeds under C*.

    Measured miss rates of this protocol (a miss is a fresh verification
    case whose fitted constant exceeds C*; numpy 2.4.6, scipy 1.17.1):

    * this test's protocol, calibration seeds 1000-1099 (C* = 1.137):
      0 misses in 2,400 fresh verification seeds (100000-102399), whose
      largest fitted constant is 0.994; at 95% confidence the rate is
      below 3/2,400 = 0.13%.  Each of 24 disjoint 100-seed calibrations
      drawn from those 2,400 seeds also missed none of the other 2,300;
    * the ``interp`` benchmark's protocol, 10 calibration and 2
      verification seeds per pass: 0 misses in 400 verification cases over
      200 fresh benchmark seeds (20000-20199, pass 0), so below 0.75% per
      case at 95% confidence.  Re-drawing the 2,400 seeds above as 240
      disjoint 10-seed calibrations gives 0.22% per case (about 0.4% per
      two-case pass).  20 s benchmark runs at seeds 3401-3406 (170 passes,
      340 verification cases) missed twice, once each at seeds 3402 and
      3405 (0.59% per case), and seed 9502 misses once too.  At 0.22-0.59%
      per case, a 20 s run of about 27 passes (54 verification cases)
      meets at least one miss with probability 11-27%.
    """
    t0 = time.perf_counter()
    alpha = 0.3
    q = 2.0 * (3.0 - alpha) / (2.0 - alpha)
    mask = full_mask(GridSpec.make((1.0, 1.0, 1.0), 32))
    coords = mask.node_coords()
    domain = np.all((coords > 0.15) & (coords < 0.85), axis=1)
    cap = default_overlap_cap(3)

    def one_case(seed, frozen=None):
        u, w = random_admissible_pair(mask, domain,
                                      np.random.default_rng(seed))
        return interpolation_check(u, w, p=2.0, q=q, alpha=alpha, r0=0.15,
                                   domain=domain, C=frozen)

    fitted = []
    for s in range(100):
        rep = one_case(1000 + s)
        assert rep.details["max_overlap"] <= cap and rep.details["covers_all"]
        fitted.append(rep.details["fitted_constant"])
    frozen = 1.25 * max(fitted)       # fitted constant plus fixed headroom

    passes = 0
    for s in range(100):
        rep = one_case(5000 + s, frozen=frozen)
        passes += rep.passed

    # joint rescaling moves neither side of the inequality
    base = one_case(5000)
    scale_ok = True
    u, w = random_admissible_pair(mask, domain, np.random.default_rng(5000))
    for lam in (1e-3, 1e3):
        rep = interpolation_check(Field(mask, lam * u.values),
                                  Field(mask, lam * w.values),
                                  p=2.0, q=q, alpha=alpha, r0=0.15,
                                  domain=domain)
        scale_ok &= abs(rep.details["fitted_constant"]
                        / base.details["fitted_constant"] - 1.0) <= 1e-9

    ok = passes == 100 and scale_ok
    _verdict(10, "one-sided interpolation (freeze then verify)", ok,
             f"C* = {frozen:.4f}, {passes}/100 verification cases, "
             f"scaling invariant: {scale_ok}",
             time.perf_counter() - t0, 300.0)


# -- criterion 11: byte-level determinism -------------------------------------


def test_criterion_11_determinism():
    t0 = time.perf_counter()
    configs = [
        {"experiment": "oscdecay", "seed": 2, "grid": {"n": 25}},
        {"experiment": "general", "seed": 4, "grid": {"n": 17},
         "time": {"t_end": 0.25}, "system": {"name": "quad4"}},
        {"experiment": "interp", "seed": 6, "grid": {"n": 17}},
    ]
    ok = True
    for cfg in configs:
        first = run_experiment(cfg)
        second = run_experiment(cfg)
        ok &= first.to_json() == second.to_json()
        ok &= first.to_csv() == second.to_csv()
    _verdict(11, "byte-identical reports", ok,
             f"{len(configs)} configs run twice",
             time.perf_counter() - t0, 60.0)
