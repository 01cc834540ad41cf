"""Explicit constants and the rough-coefficient parabolic solver."""

import dataclasses
import math

import numpy as np
import pytest

import difflab.rough as rough
from difflab import (ConstantsBundle, DomainError, Field, GridSpec,
                     ParameterError, RoughCoefficient,
                     Trajectory, alpha_practical, explicit_constants,
                     forcing_constant, full_mask,
                     holder_bound_check, initial_oscillation_check,
                     iteration_c1, iteration_lambda, iteration_tracer_check,
                     k2_constant, k3_constant, kernel_calibration,
                     kernel_evolve, lpq_norm,
                     oscillation_decay_check, shrunk_radius, solve_rough,
                     supremum_bound_check, unit_ball_volume)
from difflab.rough import _active_at
from test_grid import euler_product_reference

INF = float("inf")
ORACLE_RTOL = 5e-12      # twelve significant digits
ORDER_TOL = 1e-10        # discrete comparison-principle slack
EXACT_TOL = 1e-10

# Frozen reference values for the closed-form constants, computed once with
# 50-digit arithmetic and rounded to 13 significant digits.  Columns:
# d, p, q, a0, c0, gamma, beta, delta, A, alpha, K1.
CONSTANTS_ORACLE = [
    (1, INF, INF, 1.0, 1.0,
     2.0, 0.245, 3.476520811331e-4, 0.1953125, 2.508215685496e-4, 1.0),
    (1, INF, 2, 1.0, 2.0,
     1.5, 0.245, 1.278940533293e-4, 0.4658474953125, 9.226195825239e-5,
     1.333333333333),
    (1, 4, 4, 0.5, 3.0,
     1.25, 0.1225, 4.704959286795e-5, 0.1827326370811, 3.393990558885e-5,
     1.051373884203),
    (2, INF, INF, 1.0, 2.0,
     2.0, 0.1225, 6.198024405288e-6, 0.09765625, 4.470943391931e-6, 1.0),
    (2, 4, 8, 1.0, 1.0,
     1.25, 0.1225, 4.579755003321e-5, 0.2678850402843, 3.303670566476e-5,
     1.146531350645),
    (2, 10, 5, 2.0, 1.5,
     1.4, 0.245, 1.684797711324e-5, 0.8088840981535, 1.215334889510e-5,
     1.440243824127),
    (3, INF, 4, 1.0, 2.0,
     1.25, 0.08166666666667, 2.484037947438e-7, 0.3762805076056,
     1.791854836626e-7, 1.6),
    (3, 8, 8, 0.25, 4.0,
     1.375, 0.02041666666667, 6.157314469134e-10, 0.02806512512684,
     4.441563526274e-10, 0.9522635988253),
    (3, 4, 12, 3.0, 1.0,
     1.25, 0.245, 4.989323591187e-6, 0.9417446246000, 3.599045179606e-6,
     1.315303850134),
    (4, INF, INF, 1.0, 1.0,
     2.0, 0.06125, 5.059611759419e-7, 0.048828125, 3.649739320382e-7, 1.0),
    (4, 8, 16, 1.0, 2.0,
     1.5, 0.06125, 9.267002190271e-9, 0.1296312551694, 6.684729082879e-9,
     1.144401559423),
    (4, 6, 24, 0.5, 5.0,
     1.5, 0.030625, 5.693842933578e-14, 0.04327633278908,
     4.107239481937e-14, 1.030493861659),
]


# ---------------------------------------------------------------------------
# constants


def test_constants_against_oracle_table():
    for row in CONSTANTS_ORACLE:
        d, p, q, a0, c0 = row[:5]
        c = explicit_constants(int(d), p, q, a0, c0)
        got = (c.gamma, c.beta, c.delta, c.A, c.alpha, c.K1)
        for name, g, want in zip(
                ("gamma", "beta", "delta", "A", "alpha", "K1"), got, row[5:]):
            assert g == pytest.approx(want, rel=ORACLE_RTOL), \
                f"{name} for (d,p,q,a0,c0)={row[:5]}"


def test_constants_closed_forms():
    for d in (1, 2, 3, 4):
        c = explicit_constants(d, INF, INF, 1.0, 1.0)
        assert c.gamma == 2.0
        assert c.beta == pytest.approx(49.0 / (200.0 * d), rel=1e-15)
    c = explicit_constants(1, INF, INF, 1.0, 1.0)
    assert c.beta == pytest.approx(0.245, rel=1e-15)
    # the sandwich parameters always satisfy 0 < delta < 1 < c0 a0 / a0
    for row in CONSTANTS_ORACLE:
        c = explicit_constants(int(row[0]), row[1], row[2], row[3], row[4])
        assert 0.0 < c.delta < 1.0
        assert 0.0 < c.alpha <= min(c.gamma, 0.5)
        assert c.A > 0.0
        assert c.K1 > 0.0


def test_constants_reject_supercritical_exponents():
    with pytest.raises(ParameterError):
        explicit_constants(2, 2.0, 2.0, 1.0, 1.0)   # gamma = 0
    with pytest.raises(ParameterError):
        explicit_constants(3, 2.0, 2.0, 1.0, 1.0)   # gamma < 0
    with pytest.raises(ParameterError):
        explicit_constants(2, INF, INF, 0.0, 1.0)   # a0 must be positive
    with pytest.raises(ParameterError):
        explicit_constants(2, INF, INF, 1.0, 0.5)   # c0 must be >= 1


def test_constants_to_dict_round_trip():
    c = explicit_constants(2, 4.0, 8.0, 1.0, 1.0)
    d = c.to_dict()
    assert d["gamma"] == c.gamma and d["delta"] == c.delta
    assert set(d) == {"d", "p", "q", "a0", "c0", "gamma", "beta", "delta",
                      "A", "alpha", "K1"}


def test_unit_ball_volume():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_iteration_lambda_arithmetic():
    # hand-checkable configuration: gamma = 1/2, delta = 3.4765e-4, eps = 1/4
    c = ConstantsBundle(d=2, p=2.0, q=4.0, a0=1.0, c0=1.0, gamma=0.5,
                        beta=0.245, delta=3.476520811331e-4, A=0.1,
                        alpha=2.5e-4, K1=1.0)
    lam = iteration_lambda(c, 0.25)
    assert lam == pytest.approx(0.99983, abs=1e-5)
    assert lam == pytest.approx(1.0 - c.delta / 2.0, rel=1e-12)
    # for gamma = 2 the geometric factors dominate nothing either
    c2 = explicit_constants(2, INF, INF, 1.0, 2.0)
    lam2 = iteration_lambda(c2, 0.25)
    assert lam2 == pytest.approx(1.0 - c2.delta / 2.0, rel=1e-12)
    assert 0.0 < lam2 < 1.0


def test_derived_constants_monotone_and_positive():
    c = explicit_constants(2, INF, INF, 1.0, 2.0)
    k2a = k2_constant(c, 0.25, 0.1, 1.0)
    k2b = k2_constant(c, 0.25, 0.4, 1.0)
    assert 0.0 < k2a <= k2b            # longer horizon, larger constant
    k3 = k3_constant(c, 2.0)
    assert k3 > 0.0
    cf = forcing_constant(c, 2.0)
    assert cf > 0.0
    c1 = iteration_c1(c, k2a, k3, cf, 0.3, 0.25)
    assert c1 >= 1.0
    rf = shrunk_radius(c, 0.3, 0.5, 1.0, 1.0)
    assert 0.0 < rf <= 0.3
    assert alpha_practical(c) >= c.alpha


# ---------------------------------------------------------------------------
# solver exact cases


def test_rough_coefficient_validation():
    mask = full_mask(GridSpec.make((1.0,), 17))
    with pytest.raises(ParameterError):
        RoughCoefficient(Field.constant(mask, 3.0), 1.0, 2.0)
    with pytest.raises(ParameterError):
        RoughCoefficient(1.0, -1.0, 2.0)
    with pytest.raises(ParameterError):
        RoughCoefficient(1.0, 1.0, 0.9)
    coeff = RoughCoefficient(Field.constant(mask, 1.5), 1.0, 2.0)
    assert np.all(_active_at(coeff.a, 0.0) == 1.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rough_coefficient_and_forcing_must_be_finite(bad):
    # a NaN passes every comparison with [a0, c0 a0] and would march to
    # all-NaN frames with a negative fraction of 0
    mask = full_mask(GridSpec.make((1.0,), 17))
    frames = np.full((2, 17), 1.5)
    frames[1, 3] = bad
    traj = Trajectory(mask, [0.0, 0.05], frames)
    for a in (bad, traj):
        with pytest.raises(ParameterError, match="coefficient must be finite"):
            RoughCoefficient(a, 1.0, 2.0)
    w0, coeff = Field.constant(mask, 0.5), RoughCoefficient(1.0, 1.0, 2.0)
    for f in (bad, traj):
        with pytest.raises(ParameterError, match="forcing must be finite"):
            solve_rough(w0, coeff, forcing=f, t_end=0.1)


def test_rough_coefficient_time_frames():
    mask = full_mask(GridSpec.make((1.0,), 9))
    a_traj = Trajectory(mask, np.array([0.0, 0.5]),
                        np.vstack([np.ones(9), 2.0 * np.ones(9)]))
    coeff = RoughCoefficient(a_traj, 1.0, 2.0)
    assert np.all(_active_at(coeff.a, 0.4) == 1.0)   # left frame rule
    assert np.all(_active_at(coeff.a, 0.6) == 2.0)


def test_solve_constant_state_is_fixed_point():
    mask = full_mask(GridSpec.make((1.0, 1.0), 17))
    coeff = RoughCoefficient(1.3, 1.0, 2.0)
    sol = solve_rough(Field.constant(mask, 0.7), coeff, t_end=0.2,
                      n_frames=9)
    assert np.max(np.abs(sol.traj.values - 0.7)) <= EXACT_TOL
    assert sol.dtw_negative_fraction == 0.0


def test_solve_uniform_forcing_linear_in_time():
    # a dw/dt = lap w + f with w0 = 0, a = 2, f = 2 stays flat: w(t) = t
    mask = full_mask(GridSpec.make((1.0,), 33))
    coeff = RoughCoefficient(2.0, 2.0, 1.0)
    sol = solve_rough(Field.constant(mask, 0.0), coeff, forcing=2.0,
                      t_end=0.5, n_frames=17)
    for k, t in enumerate(sol.traj.times):
        assert np.max(np.abs(sol.traj.values[k] - t)) <= EXACT_TOL


def test_solve_matches_kernel_on_pure_heat():
    # a = 1 with a node delta reproduces the kernel bench run for run
    mask = full_mask(GridSpec.make((1.0, 1.0), 25))
    kern = kernel_evolve(mask, (0.5, 0.5), 0.05, n_frames=17)
    delta = np.zeros(mask.active_count)
    full = np.zeros(mask.grid.n)
    full[mask.nearest_node((0.5, 0.5))] = 1.0
    delta[mask.gather(full) > 0] = 1.0 / mask.grid.h ** 2
    sol = solve_rough(Field(mask, delta), RoughCoefficient(1.0, 1.0, 1.0),
                      t_end=0.05, n_frames=17)
    # frame selection differs between the two benches; compare the frames
    # recorded at identical times
    shared = 0
    for k, t in enumerate(sol.traj.times):
        j = np.argmin(np.abs(kern.times - t))
        if abs(kern.times[j] - t) < 1e-12:
            shared += 1
            assert np.max(np.abs(sol.traj.values[k] - kern.values[j])) \
                <= 1e-12 * kern.values.max()
    assert shared >= 2   # at least t = 0 and t = t_end coincide


def test_solve_rejects_unstable_dt():
    mask = full_mask(GridSpec.make((1.0,), 17))
    coeff = RoughCoefficient(1.0, 1.0, 2.0)
    with pytest.raises(ParameterError):
        solve_rough(Field.constant(mask, 0.0), coeff, t_end=0.1,
                    dt=mask.grid.h ** 2)
    with pytest.raises(ParameterError):
        solve_rough(Field.constant(mask, 0.0), coeff, t_end=0.0)


@pytest.mark.parametrize("t_end, dt", [
    (0.1, -1e-4), (0.1, 0.0), (0.1, math.nan), (math.nan, None),
    (math.inf, None)])
def test_solve_rejects_a_bad_dt_or_span(t_end, dt):
    # dt = -1e-4 once ran as one step of 0.1, about 50x the stability limit
    mask = full_mask(GridSpec.make((1.0,), 17))
    with pytest.raises(ParameterError, match="finite"):
        solve_rough(Field.constant(mask, 0.0), RoughCoefficient(1.0, 1.0, 2.0),
                    t_end=t_end, dt=dt)


@pytest.mark.parametrize("n_frames", [0, 1])
def test_solve_rejects_fewer_than_two_frames(n_frames):
    # one frame would hold only w0 and silently drop the marched end state
    mask = full_mask(GridSpec.make((1.0,), 9))
    with pytest.raises(ParameterError, match="at least 2 frames"):
        solve_rough(Field.constant(mask, 0.0), RoughCoefficient(1.0, 1.0, 2.0),
                    t_end=0.05, n_frames=n_frames)


def test_solve_rejects_data_on_a_foreign_mask():
    mask = full_mask(GridSpec.make((1.0,), 17))
    w0 = Field.constant(mask, 0.5)
    # another node count, and the same node count on another grid (extent
    # 2.0, so another h): both would run on mismatched nodes
    for other in (full_mask(GridSpec.make((1.0,), 9)),
                  full_mask(GridSpec.make((2.0,), 17))):
        n = other.active_count
        field = Field.constant(other, 1.5)
        traj = Trajectory(other, [0.0, 0.05], np.full((2, n), 1.5))
        for data in (field, traj):
            with pytest.raises(ParameterError, match="coefficient"):
                solve_rough(w0, RoughCoefficient(data, 1.0, 2.0), t_end=0.1)
            with pytest.raises(ParameterError, match="forcing"):
                solve_rough(w0, RoughCoefficient(1.0, 1.0, 2.0),
                            forcing=data, t_end=0.1)


def _left_frame(data, t):
    """Reference lookup: scalar, Field values, or the Trajectory frame
    with the last time <= t."""
    if isinstance(data, Trajectory):
        k = np.searchsorted(data.times, t + 1e-12, side="right") - 1
        return data.values[max(k, 0)]
    return getattr(data, "values", data)


@pytest.mark.parametrize("coeff_kind", ["scalar", "field", "trajectory"])
@pytest.mark.parametrize("forcing_kind", ["none", "field", "trajectory"])
def test_solve_matches_a_per_step_reference_loop(coeff_kind, forcing_kind):
    rng = np.random.default_rng(5)
    mask = full_mask(GridSpec.make((1.0, 1.0), 9))
    n = mask.active_count
    lap = mask.laplacian_matrix()
    a = {"scalar": 1.5,
         "field": Field(mask, 1.0 + rng.random(n)),
         "trajectory": Trajectory(mask, [0.0, 0.02],
                                  1.0 + rng.random((2, n)))}[coeff_kind]
    f = {"none": 0.0,
         "field": Field(mask, rng.standard_normal(n)),
         "trajectory": Trajectory(mask, [0.0, 0.03],
                                  rng.standard_normal((2, n)))}[forcing_kind]
    w0 = Field(mask, rng.standard_normal(n))
    sol = solve_rough(w0, RoughCoefficient(a, 1.0, 2.0),
                      forcing=None if forcing_kind == "none" else f,
                      t_end=0.05, n_frames=9)

    # w + (dt f + sum (dt l) w) / a: dt f is the start of the operator
    # sum, and the increment is counted before w is added
    dt, w = sol.dt, w0.values.copy()
    states, negative = [w.copy()], 0
    for k in range(sol.steps):
        t = k * dt
        start = np.broadcast_to(_left_frame(f, t) * dt, (1, n))
        incr = euler_product_reference(lap, [dt], w[None], start)[0] \
            / _left_frame(a, t)
        negative += int(np.count_nonzero(incr < -1e-10 * dt))
        w = incr + w
        states.append(w.copy())
    steps = np.rint(sol.traj.times / sol.dt).astype(int)
    assert np.array_equal(sol.traj.values, np.array(states)[steps])
    assert sol.dtw_negative_fraction == negative / (sol.steps * n)
    assert 0 < sol.dtw_negative_fraction < 1


# ---------------------------------------------------------------------------
# discrete comparison principles (exact for the monotone explicit step)


def test_comparison_in_the_forcing():
    rng = np.random.default_rng(7)
    mask = full_mask(GridSpec.make((1.0, 1.0), 25))
    n = mask.active_count
    coeff = RoughCoefficient(Field(mask, 1.0 + rng.random(n)), 1.0, 2.0)
    w0 = Field(mask, rng.random(n))
    f2 = Field(mask, rng.standard_normal(n))
    f1 = Field(mask, f2.values - np.abs(rng.standard_normal(n)))
    s1 = solve_rough(w0, coeff, forcing=f1, t_end=0.05, n_frames=33)
    s2 = solve_rough(w0, coeff, forcing=f2, t_end=0.05, n_frames=33)
    assert float(np.max(s1.traj.values - s2.traj.values)) <= ORDER_TOL


def test_coefficient_sandwich():
    # constant data + nonnegative forcing make dw/dt >= 0, so the solution
    # with the uniformly smallest clock rate dominates pointwise
    rng = np.random.default_rng(13)
    mask = full_mask(GridSpec.make((1.0, 1.0), 25))
    n = mask.active_count
    a_mid = Field(mask, 1.0 + rng.random(n))
    f = Field(mask, np.abs(rng.standard_normal(n)))
    w0 = Field.constant(mask, 0.3)
    lo = solve_rough(w0, RoughCoefficient(2.0, 1.0, 2.0), forcing=f,
                     t_end=0.05, n_frames=33)
    mid = solve_rough(w0, RoughCoefficient(a_mid, 1.0, 2.0), forcing=f,
                      t_end=0.05, n_frames=33)
    hi = solve_rough(w0, RoughCoefficient(1.0, 1.0, 2.0), forcing=f,
                     t_end=0.05, n_frames=33)
    assert lo.steps == mid.steps == hi.steps
    assert float(np.max(lo.traj.values - mid.traj.values)) <= ORDER_TOL
    assert float(np.max(mid.traj.values - hi.traj.values)) <= ORDER_TOL


# ---------------------------------------------------------------------------
# estimate checks


def _rough_run(seed=42, n=33, t_end=0.06, forcing=None, a0=1.0):
    """A 2-D run whose coefficient lies in [a0, 2 a0]."""
    rng = np.random.default_rng(seed)
    mask = full_mask(GridSpec.make((1.0, 1.0), n))
    a = Field(mask, a0 * (1.0 + rng.random(mask.active_count)))
    w0 = Field(mask, 0.5 + 0.5 * rng.random(mask.active_count))
    sol = solve_rough(w0, RoughCoefficient(a, a0, 2.0), forcing=forcing,
                      t_end=t_end, n_frames=129)
    return sol, w0


def test_oscillation_decay_unforced():
    sol, w0 = _rough_run()
    rep = oscillation_decay_check(sol, INF, INF, (0.5, 0.5), 0.3)
    assert rep.passed
    assert rep.lhs <= rep.rhs
    # the quarter-cylinder oscillation really is much smaller here
    assert rep.lhs <= 0.5 * rep.rhs


def test_supremum_bound_unforced_is_exact():
    sol, w0 = _rough_run()
    rep = supremum_bound_check(sol, INF, INF)
    assert rep.passed
    assert rep.lhs <= np.max(np.abs(w0.values)) + 1e-12


def test_supremum_bound_forced_saturates():
    # f = 1, a = 1, w0 = 0 up to T = 1 gives sup w = 1.0 exactly, and the
    # p = q = inf bound 1 * T^(gamma/2) matches it
    mask = full_mask(GridSpec.make((1.0,), 33))
    w0 = Field.constant(mask, 0.0)
    sol = solve_rough(w0, RoughCoefficient(1.0, 1.0, 1.0), forcing=1.0,
                      t_end=1.0, n_frames=17)
    rep = supremum_bound_check(sol, INF, INF)
    assert rep.passed
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    # the printed rhs is the gated bound: 1 with its float slack
    assert rep.rhs == pytest.approx(1.0 * (1 + 1e-9) + 1e-12, abs=1e-12)


@pytest.mark.parametrize("p, q", [(INF, INF), (2.0, 4.0)])
@pytest.mark.parametrize("a0", [0.25, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("shape", [(17,), (17, 17), (9, 9, 9)])
def test_supremum_bound_holds_for_the_exact_solution_at_any_a0(shape, a0,
                                                               p, q):
    # a = a0, f = 1, w0 = 0: w = t/a0, so sup w = T/a0.  The bound is
    # read in the time unit a0; without it it read 0.2 against 0.1 on the
    # line at a0 = 1/2 and p = q = inf, and failed 10 of these 24 cases, all
    # with a0 < 1
    t_end = 0.1
    mask = full_mask(GridSpec.make((1.0,) * len(shape), shape))
    w0 = Field.constant(mask, 0.0)
    sol = solve_rough(w0, RoughCoefficient(a0, a0, 1.0), forcing=1.0,
                      t_end=t_end, n_frames=33)
    rep = supremum_bound_check(sol, p, q)
    assert rep.lhs == pytest.approx(t_end / a0, rel=1e-12)
    assert rep.passed
    if p == INF:            # met with equality, up to the printed slack
        assert rep.rhs == pytest.approx(t_end / a0, rel=2e-9)


# the five rough checks, each on a solution and its exponents (p, q), the
# two cylinder checks on the ball of radius 0.4 around (0.5, 0.5)
ROUGH_CHECKS = {
    "oscillation_decay": lambda sol, p, q: oscillation_decay_check(
        sol, p, q, (0.5, 0.5), 0.4),
    "supremum_bound": lambda sol, p, q: supremum_bound_check(sol, p, q),
    "initial_oscillation": lambda sol, p, q: initial_oscillation_check(
        sol, p, q, (0.5, 0.5), 0.4, 0.25),
    "holder_bound": lambda sol, p, q: holder_bound_check(sol, p, q),
    "iteration_tracer": lambda sol, p, q: iteration_tracer_check(
        sol, p, q, r0=0.3),
}


@pytest.mark.parametrize("p, q", [(INF, INF), (2.0, 4.0)])
@pytest.mark.parametrize("a0", [0.25, 0.5, 2.0])
@pytest.mark.parametrize("check", sorted(ROUGH_CHECKS))
def test_each_rough_check_is_the_same_on_the_time_rescaled_twin(check, a0,
                                                                p, q):
    # (a0 a, a0 T) is the forced run (a, T) in the time unit a0: every frame
    # is bit-identical, and so is each check's lhs and rhs.  Before the
    # checks read the a0 = 1 problem, the twin moved the forced oscillation
    # rhs x0.46-2.61, the initial-oscillation rhs x0.993-1.010 and the
    # tracer lhs x0.25-16; without the supremum bound's time unit its rhs
    # read 1.0809 against 1.1627 at (2, 4) and a0 = 1/2
    def run(unit):
        rng = np.random.default_rng(7)
        mask = full_mask(GridSpec.make((1.0, 1.0), 17))
        a = Field(mask, unit * (1.0 + rng.random(mask.active_count)))
        w0 = Field(mask, rng.random(mask.active_count))
        f = Field(mask, 3.0 * rng.standard_normal(mask.active_count))
        sol = solve_rough(w0, RoughCoefficient(a, unit, 2.0), forcing=f,
                          t_end=0.05 * unit, n_frames=33)
        return sol, ROUGH_CHECKS[check](sol, p, q)

    base, rep = run(1.0)
    twin, twin_rep = run(a0)
    assert np.array_equal(twin.traj.times, a0 * base.traj.times)
    assert np.array_equal(twin.traj.values, base.traj.values)
    assert twin_rep.check == rep.check == check
    assert twin_rep.lhs == pytest.approx(rep.lhs, rel=1e-13)
    assert twin_rep.rhs == pytest.approx(rep.rhs, rel=1e-13)
    assert (rep.params["time_unit"], twin_rep.params["time_unit"]) == (1.0, a0)


# the two cylinder checks on the ball of radius 0.3 around (0.5, 0.5)
CYLINDER_CHECKS = {
    "oscillation_decay": lambda sol: oscillation_decay_check(
        sol, INF, INF, (0.5, 0.5), 0.3),
    "initial_oscillation": lambda sol: initial_oscillation_check(
        sol, INF, INF, (0.5, 0.5), 0.3, 0.25),
}


@pytest.mark.parametrize("a0, t_end, fits", [
    (1.0, 0.011, False), (1.0, 0.002, False),
    (0.5, 0.011, True), (0.5, 0.006, True), (0.5, 0.002, False)])
@pytest.mark.parametrize("check", sorted(CYLINDER_CHECKS))
def test_a_cylinder_check_needs_its_cylinder_inside_the_run(check, a0,
                                                            t_end, fits):
    # beta R^2 = 0.1225 * 0.09 = 0.011025 in the time unit a0, so the
    # cylinder fits a run of length t_end exactly when a0 beta R^2 <= t_end
    sol, _ = _rough_run(t_end=t_end, a0=a0)
    if fits:
        assert CYLINDER_CHECKS[check](sol).passed
    else:
        with pytest.raises(DomainError, match="longer than the run"):
            CYLINDER_CHECKS[check](sol)


def _spy_on_the_fits(monkeypatch) -> list:
    """Record (fit, span) for each kernel or moment fit a rough check makes,
    in call order."""
    calls = []
    for name in ("kernel_calibration", "moment_calibration"):
        def spy(mask, span, exponent, fit=getattr(rough, name), name=name):
            calls.append((name, span))
            return fit(mask, span, exponent)
        monkeypatch.setattr(rough, name, spy)
    return calls


# each check at (p, q) = (2, 4) with the fits it makes, as (fit, span): the
# cylinder window beta R^2 at R = 0.3, or the horizon T
FITS = {
    "oscillation_decay": (lambda sol: oscillation_decay_check(
        sol, 2.0, 4.0, (0.5, 0.5), 0.3), [("kernel_calibration", "window")]),
    "supremum_bound": (lambda sol: supremum_bound_check(sol, 2.0, 4.0),
                       [("kernel_calibration", "horizon")]),
    "initial_oscillation": (lambda sol: initial_oscillation_check(
        sol, 2.0, 4.0, (0.5, 0.5), 0.3, 0.25),
        [("moment_calibration", "horizon"), ("kernel_calibration", "window")]),
    "iteration_tracer": (lambda sol: iteration_tracer_check(
        sol, 2.0, 4.0, r0=0.3),
        [("moment_calibration", "horizon"),
         ("kernel_calibration", "horizon")]),
}


@pytest.mark.parametrize("check", sorted(FITS))
def test_each_rough_check_fits_its_kernel_constants_over_the_span_it_bounds(
        monkeypatch, check):
    # f = 1 at a0 = 1/2: in the time unit a0 the horizon is T = 0.12 and the
    # window beta R^2 = 0.011025, and at q = 4 the kernel fit grows with its
    # span (0.4494 -> 0.5796), so a wrong span moves the printed constant.
    # No constant is passed in: a forced oscillation_decay_check without
    # one used to raise ParameterError
    sol, _ = _rough_run(forcing=1.0, a0=0.5)
    mask = sol.traj.mask
    span = {"window": explicit_constants(2, 2.0, 4.0, 1.0, 2.0).beta * 0.09,
            "horizon": 0.06 / 0.5}
    fit = {k: kernel_calibration(mask, t, 4.0) for k, t in span.items()}
    assert fit["window"] < fit["horizon"]
    calls = _spy_on_the_fits(monkeypatch)
    run, fits = FITS[check]
    rep = run(sol)
    assert rep.passed
    assert calls == [(name, span[k]) for name, k in fits]
    consts = explicit_constants(2, 2.0, 4.0, 1.0, 2.0)
    if check == "oscillation_decay":
        assert rep.details["forcing_constant"] == \
            forcing_constant(consts, fit["window"])
    elif check == "supremum_bound":
        assert rep.params["kernel_prefactor"] == fit["horizon"]
    elif check == "initial_oscillation":
        assert rep.params["K3"] == k3_constant(consts, fit["window"])


def test_an_unforced_row_fits_no_kernel_constant(monkeypatch):
    # ||f_+|| = 0 under f = -1: the oscillation and supremum bounds apply no
    # kernel constant, so neither check fits or prints one
    sol, _ = _rough_run(forcing=-1.0)
    calls = _spy_on_the_fits(monkeypatch)
    sup = supremum_bound_check(sol, 2.0, 4.0)
    unforced, _ = _rough_run()
    osc = oscillation_decay_check(unforced, 2.0, 4.0, (0.5, 0.5), 0.3)
    assert calls == []
    assert sup.passed and osc.passed
    assert "kernel_prefactor" not in sup.params
    assert "forcing_constant" not in osc.details


def test_supremum_bound_nonpositive_forcing():
    rng = np.random.default_rng(3)
    mask = full_mask(GridSpec.make((1.0, 1.0), 25))
    f = Field(mask, -np.abs(rng.standard_normal(mask.active_count)))
    w0 = Field(mask, rng.random(mask.active_count))
    sol = solve_rough(w0, RoughCoefficient(1.0, 1.0, 2.0), forcing=f,
                      t_end=0.05, n_frames=33)
    assert float(np.max(sol.traj.values)) <= float(np.max(w0.values)) \
        + ORDER_TOL


def test_holder_bound_calibration_and_tracer():
    sol, w0 = _rough_run()
    rep = holder_bound_check(sol, INF, INF)
    assert rep.passed
    assert rep.params["mode"] == "calibration"
    fitted = rep.params["c_star"] * rep.details["core"]
    assert rep.lhs == pytest.approx(fitted, rel=1e-12)    # fitted equality
    assert rep.rhs == fitted * (1 + 1e-9) + 1e-12
    tracer = iteration_tracer_check(sol, INF, INF, r0=0.3)
    assert tracer.passed and tracer.rhs == 1.0
    assert tracer.details["rungs"]
    assert tracer.lhs == max(row["ratio"] for row in tracer.details["rungs"])
    assert 0.0 < tracer.details["lambda"] < 1.0

    # verification mode with headroom passes, without headroom fails
    c_star = rep.params["c_star"]
    ver = holder_bound_check(sol, INF, INF, c_star=1.5 * c_star)
    assert ver.passed and ver.params["mode"] == "verification"
    bad = holder_bound_check(sol, INF, INF, c_star=0.5 * c_star)
    assert not bad.passed


def test_holder_bound_zero_core_fails_in_calibration():
    # w_init = 0 and f = -1 give the core (||f_+|| + Lip)^... = 0 under a
    # positive seminorm: no constant is fitted, and the row must not pass
    mask = full_mask(GridSpec.make((1.0, 1.0), 33))
    w0 = Field.constant(mask, 0.0)
    sol = solve_rough(w0, RoughCoefficient(1.0, 1.0, 2.0), forcing=-1.0,
                      t_end=0.06, n_frames=129)
    rep = holder_bound_check(sol, INF, INF)
    assert rep.details["core"] == 0.0 and rep.lhs > 0.1
    assert not rep.passed and rep.margin < 0


def test_iteration_tracer_rung_over_its_bound_fails(monkeypatch):
    import difflab.rough as rough
    sol, w0 = _rough_run()
    monkeypatch.setattr(rough, "iteration_c1", lambda *args: 1e-6)
    rep = iteration_tracer_check(sol, INF, INF, r0=0.3)
    over = [row for row in rep.details["rungs"] if row["ratio"] > 1.0]
    assert over and rep.lhs == max(row["ratio"] for row in over)
    assert not rep.passed and rep.rhs == 1.0


def test_holder_bound_empty_tracer_raises():
    # r0 far under a mesh width shrinks the first cylinder below two mesh
    # widths, so every rung is skipped; an empty tracer checks nothing
    sol, w0 = _rough_run()
    with pytest.raises(DomainError, match="no rung"):
        iteration_tracer_check(sol, INF, INF, r0=1e-4)


def test_iteration_tracer_keeps_no_rung_that_starts_before_frame_0():
    # unforced, R_f = r0 = 1: rung 0's window beta = 0.1225 is longer than
    # the run (0.06), and rung 1's 0.1225/16 fits
    sol, w0 = _rough_run()
    rep = iteration_tracer_check(sol, INF, INF, r0=1.0)
    assert rep.details["R_f"] == 1.0
    assert [row["k"] for row in rep.details["rungs"]][0] == 1
    # one step of 1e-4 is a single frame gap, which no rung spanning two
    # gaps fits in
    short, _ = _rough_run(t_end=1e-4)
    with pytest.raises(DomainError, match="no rung"):
        iteration_tracer_check(short, INF, INF, r0=1.0)


def test_initial_oscillation_check_smoke():
    sol, w0 = _rough_run()
    rep = initial_oscillation_check(sol, INF, INF, (0.5, 0.5), 0.3, 0.25)
    assert rep.passed
    assert rep.lhs <= rep.rhs
    assert np.isfinite(rep.rhs)


# ---------------------------------------------------------------------------
# forcing norms at finite (p, q)


def _forced_run_4_4():
    """A 2-D run at (p, q) = (4, 4) under a sign-changing Field forcing."""
    rng = np.random.default_rng(11)
    mask = full_mask(GridSpec.make((1.0, 1.0), 17))
    f = Field(mask, rng.standard_normal(mask.active_count))
    w0 = Field(mask, rng.random(mask.active_count))
    sol = solve_rough(w0, RoughCoefficient(1.0, 1.0, 2.0), forcing=f,
                      t_end=0.05, n_frames=17)
    return sol, f


# the ball of the cylinder checks and the window beta R^2 of its cylinders
BALL = ((0.5, 0.5), 0.3)
WINDOW = explicit_constants(2, 4.0, 4.0, 1.0, 2.0).beta * BALL[1] ** 2


def _forced_reports(sol, forcing):
    """The three forced checks of ``sol`` read with ``forcing`` in place of
    the solve's own."""
    sol = dataclasses.replace(sol, forcing=forcing)
    return [oscillation_decay_check(sol, 4.0, 4.0, *BALL),
            supremum_bound_check(sol, 4.0, 4.0),
            initial_oscillation_check(sol, 4.0, 4.0, *BALL, 0.25)]


def test_field_forcing_norms_equal_those_of_its_stored_frames():
    """The checks report for a Field forcing the bits of the same frame
    stored on every solution frame time, and the norms are lpq_norm's
    over each check's window and ball."""
    sol, f = _forced_run_4_4()
    times = sol.traj.times
    stored = Trajectory(f.mask, times, np.tile(f.values, (times.size, 1)))
    by_field = _forced_reports(sol, f)
    by_frames = _forced_reports(sol, stored)
    for a, b in zip(by_field, by_frames):
        assert a.to_dict() == b.to_dict()
    osc, sup, init = by_field
    ball = f.mask.ball_nodes(*BALL)
    assert osc.params["f_norm"] == lpq_norm(
        stored, 4.0, 4.0, times[-1] - WINDOW, times[-1], ball)
    assert init.details["f_norm"] == lpq_norm(
        stored, 4.0, 4.0, times[0], times[0] + WINDOW, ball)
    positive = Trajectory(f.mask, times, np.maximum(stored.values, 0.0))
    assert sup.params["f_plus_norm"] == lpq_norm(positive, 4.0, 4.0,
                                                 times[0], times[-1])
    assert 0.0 < sup.params["f_plus_norm"] < lpq_norm(stored, 4.0, 4.0,
                                                      times[0], times[-1])


def test_trajectory_forcing_is_sampled_by_the_left_frame_rule():
    """A forcing Trajectory with its own frame times enters each solution
    frame with the frame in force at that time, as in the solver."""
    sol, f = _forced_run_4_4()
    rng = np.random.default_rng(12)
    mask, times = f.mask, sol.traj.times
    forcing = Trajectory(mask, np.array([0.0, 0.011, 0.0305]),
                         rng.standard_normal((3, mask.active_count)))
    rows = _active_at(forcing, times)
    assert rows.shape == (times.size, mask.active_count)
    for k, t in enumerate(times):
        assert np.array_equal(rows[k], _active_at(forcing, t))
    sampled = Trajectory(mask, times, rows)
    osc, sup, init = _forced_reports(sol, forcing)
    assert [r.to_dict() for r in (osc, sup, init)] == \
        [r.to_dict() for r in _forced_reports(sol, sampled)]
    ball = mask.ball_nodes(*BALL)
    assert osc.params["f_norm"] == lpq_norm(
        sampled, 4.0, 4.0, times[-1] - WINDOW, times[-1], ball)
