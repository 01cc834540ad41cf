"""Neumann heat-kernel bench: decay, mass, moments, Gaussian comparison."""

import numpy as np
import pytest

from difflab import (Field, GridSpec, ParameterError, PreconditionError,
                     SamplingError, admissible_graph_domain, ball_mask,
                     domain_volume,
                     fit_power, fitted_moment_prefactor, fitted_prefactor,
                     full_mask, gaussian_heat, gaussian_lower_bound_check,
                     gaussian_moment_1d, gaussian_running_sup,
                     intermediate_regime, kernel_evolve, kernel_moment,
                     kernel_norm_report, moment_report, source_ball_center,
                     space_norm, stable_dt)
from test_grid import euler_product_reference

MASS_TOL = 1e-9
NEG_TOL = 1e-12
GAUSS_REL_TOL = 0.02     # against the whole-space kernel, core region
MOMENT_REL_TOL = 0.02


def _box(extent, n, dim):
    return full_mask(GridSpec.make((extent,) * dim, n))


# ---------------------------------------------------------------------------
# conservation, positivity, equilibration


def test_kernel_mass_and_positivity_every_frame():
    mask = _box(1.0, 49, 2)
    kern = kernel_evolve(mask, (0.5, 0.5), 0.1, n_frames=32)
    hd = mask.grid.h ** 2
    mass = hd * kern.values.sum(axis=1)
    assert np.max(np.abs(mass - 1.0)) <= MASS_TOL
    assert kern.values.min() >= -NEG_TOL


def test_kernel_equilibrates_to_uniform():
    mask = _box(1.0, 33, 1)
    kern = kernel_evolve(mask, (0.5,), 3.0, n_frames=8)
    eq = 1.0 / domain_volume(mask)
    assert np.max(np.abs(kern.values[-1] / eq - 1.0)) <= 1e-6


def test_kernel_evolve_refuses_frames_that_drop_the_final_state():
    # one geometric frame is the start point of geomspace, and an empty
    # record list keeps t = 0 alone: neither would hold the state at t_end
    mask = _box(1.0, 17, 1)
    with pytest.raises(ParameterError, match="at least 2 frames"):
        kernel_evolve(mask, (0.5,), 0.05, n_frames=1)
    with pytest.raises(ParameterError, match="record_times"):
        kernel_evolve(mask, (0.5,), 0.05, record_times=[])
    kern = kernel_evolve(mask, (0.5,), 0.05, n_frames=2)
    assert kern.times[-1] == pytest.approx(0.05, rel=1e-12)


def test_kernel_source_is_a_point_even_with_integer_coordinates():
    kern = kernel_evolve(_box(2.0, 17, 1), (1,), 0.01, n_frames=2)
    assert kern.source_point.tolist() == [1.0]


@pytest.mark.parametrize("t_end, dt", [
    (0.05, -1e-4), (0.05, 0.0), (0.05, float("nan")), (float("inf"), None)])
def test_kernel_evolve_rejects_a_bad_dt_or_span(t_end, dt):
    with pytest.raises(ParameterError, match="finite"):
        kernel_evolve(_box(1.0, 17, 1), (0.5,), t_end, dt=dt)


@pytest.mark.parametrize("domain", ["box", "graph"])
def test_kernel_evolve_matches_a_per_step_reference_loop(domain):
    # each step adds sum (dt l) u onto a copy of u: on stored diagonals on
    # a 1-D box, on the CSR matrix on a 2-D graph domain; dt and t_end are
    # powers of two, so dt divides the span exactly
    if domain == "box":
        mask, source, dt = _box(1.0, 17, 1), (0.3125,), 2.0 ** -10
    else:
        grid = GridSpec.make((2.0, 2.0), 17, origin=(-1.0, -1.0))
        mask = admissible_graph_domain(grid, 1.0, 0.0)
        source, dt = tuple(source_ball_center(1.0, None, 2)), 2.0 ** -9
    assert (mask.laplacian_diagonals() is None) == (domain == "graph")
    kern = kernel_evolve(mask, source, 32 * dt, dt=dt, n_frames=5)
    lap = mask.laplacian_matrix()
    states = [kern.values[0]]
    for _ in range(32):
        u = states[-1][None]
        states.append(euler_product_reference(lap, [dt], u, u)[0])
    steps = np.rint(kern.times / dt).astype(int)
    assert steps[-1] == 32
    assert np.array_equal(kern.values, np.array(states)[steps])


def test_dirichlet_mass_non_increasing():
    mask = ball_mask(GridSpec.make((1.0, 1.0), 49), (0.5, 0.5), 0.35,
                     boundary="dirichlet")
    kern = kernel_evolve(mask, (0.5, 0.5), 0.05, n_frames=32)
    mass = mask.grid.h ** 2 * kern.values.sum(axis=1)
    assert np.all(np.diff(mass) <= 1e-12)
    assert mass[-1] < 0.9 * mass[0]   # leakage is visible by t = 0.05


def test_kernel_symmetry_in_source_and_target():
    # the flux-form operator is self-adjoint, so swapping source and
    # evaluation node changes nothing
    mask = ball_mask(GridSpec.make((1.0, 1.0), 33), (0.5, 0.5), 0.34)
    ka = kernel_evolve(mask, (0.42, 0.5), 0.02, record_times=[0.02])
    kb = kernel_evolve(mask, (0.58, 0.5), 0.02, record_times=[0.02])

    def row(point):
        full = np.zeros(mask.grid.n)
        full[mask.nearest_node(point)] = 1.0
        return int(np.nonzero(mask.gather(full))[0][0])

    ra, rb = row((0.42, 0.5)), row((0.58, 0.5))
    assert abs(ka.values[-1][rb] - kb.values[-1][ra]) <= 1e-9


def test_kernel_semigroup_composition():
    # restepping the t1 frame for another t2 with a finer explicit step
    # reproduces the t1 + t2 frame up to the time-discretization error
    mask = _box(1.0, 33, 2)
    t1 = t2 = 0.01
    kern = kernel_evolve(mask, (0.5, 0.5), t1 + t2,
                         record_times=[t1, t1 + t2])
    u = kern.values[-2].copy()
    dt = 0.45 * stable_dt(mask)
    steps = int(round(t2 / dt))
    dt = t2 / steps
    for _ in range(steps):
        u = u + dt * (mask.laplacian_matrix() @ u)
    rel = np.max(np.abs(u - kern.values[-1])) / kern.values[-1].max()
    assert rel <= 0.01


# ---------------------------------------------------------------------------
# whole-space comparison on large boxes


def test_kernel_matches_gaussian_core_1d():
    mask = _box(4.0, 129, 1)
    kern = kernel_evolve(mask, (2.0,), 0.05, record_times=[0.05])
    x = mask.node_coords()[:, 0]
    phi = gaussian_heat(1, 0.05, np.abs(x - 2.0))
    core = phi >= 1e-2 * phi.max()
    rel = np.max(np.abs(kern.values[-1][core] - phi[core]) / phi[core])
    assert rel <= GAUSS_REL_TOL

    # and the defect is O(h^2): doubling the resolution quarters it
    fine = full_mask(GridSpec.make((4.0,), 257))
    kf = kernel_evolve(fine, (2.0,), 0.05, record_times=[0.05])
    xf = fine.node_coords()[:, 0]
    phif = gaussian_heat(1, 0.05, np.abs(xf - 2.0))
    coref = phif >= 1e-2 * phif.max()
    relf = np.max(np.abs(kf.values[-1][coref] - phif[coref]) / phif[coref])
    assert relf <= rel / 2.5


def test_kernel_matches_gaussian_core_2d():
    mask = _box(3.0, 97, 2)
    kern = kernel_evolve(mask, (1.5, 1.5), 0.05, record_times=[0.05])
    pts = mask.node_coords()
    r = np.hypot(pts[:, 0] - 1.5, pts[:, 1] - 1.5)
    phi = gaussian_heat(2, 0.05, r)
    core = phi >= 1e-2 * phi.max()
    rel = np.max(np.abs(kern.values[-1][core] - phi[core]) / phi[core])
    assert rel <= GAUSS_REL_TOL


def test_gaussian_heat_closed_form_values():
    assert gaussian_heat(1, 1.0 / (4.0 * np.pi), 0.0) == pytest.approx(1.0)
    assert gaussian_heat(2, 1.0 / (4.0 * np.pi), 0.0) == pytest.approx(1.0)
    assert gaussian_heat(2, 0.25, 1.0) == pytest.approx(
        np.exp(-1.0) / np.pi, rel=1e-14)


# ---------------------------------------------------------------------------
# decay exponents


def test_decay_slopes_2d():
    kern = kernel_evolve(_box(1.0, 49, 2), (0.5, 0.5), 0.3, n_frames=96)
    idx = intermediate_regime(kern)
    t = kern.times[idx]
    s1, _ = fit_power(t, space_norm(kern.values, kern.grid, 1.0)[idx])
    s2, _ = fit_power(t, space_norm(kern.values, kern.grid, 2.0)[idx])
    sinf, _ = fit_power(t, space_norm(kern.values, kern.grid,
                                      float("inf"))[idx])
    assert abs(s1) <= 0.02            # mass neither decays nor grows
    assert s2 == pytest.approx(-0.5, abs=0.07)
    assert sinf == pytest.approx(-1.0, abs=0.1)

    rep = kernel_norm_report(kern)
    assert rep.passed
    assert rep.lhs <= rep.rhs


def test_decay_slopes_1d():
    kern = kernel_evolve(_box(1.0, 65, 1), (0.5,), 0.3, n_frames=128)
    idx = intermediate_regime(kern)
    t = kern.times[idx]
    s2, _ = fit_power(t, space_norm(kern.values, kern.grid, 2.0)[idx])
    sinf, _ = fit_power(t, space_norm(kern.values, kern.grid,
                                      float("inf"))[idx])
    assert s2 == pytest.approx(-0.25, abs=0.05)
    assert sinf == pytest.approx(-0.5, abs=0.07)


def test_intermediate_regime_needs_a_decade():
    kern = kernel_evolve(_box(1.0, 33, 1), (0.5,), 0.002, n_frames=8)
    with pytest.raises(SamplingError):
        intermediate_regime(kern)


# ---------------------------------------------------------------------------
# first moment


def test_moment_matches_1d_closed_form():
    mask = _box(4.0, 257, 1)
    kern = kernel_evolve(mask, (2.0,), 0.1, n_frames=64)
    mom = kernel_moment(kern)
    sel = kern.times >= 0.005
    target = gaussian_moment_1d(kern.times[sel])
    assert np.max(np.abs(mom[sel] - target) / target) <= MOMENT_REL_TOL

    rep = moment_report(kern)
    assert rep.passed
    assert rep.details["slope"] == pytest.approx(0.5, abs=rep.params["tol"])


def test_moment_slope_2d():
    kern = kernel_evolve(_box(1.0, 49, 2), (0.5, 0.5), 0.3, n_frames=96)
    rep = moment_report(kern)
    assert rep.passed
    assert rep.details["slope"] == pytest.approx(0.5, abs=0.05)


def test_moment_report_prints_the_inequality_it_gates():
    """lhs = |slope - 1/2| against rhs = tol, so the margin is nonnegative
    exactly when the check passes, on either side of the target."""
    kern = kernel_evolve(_box(1.0, 49, 2), (0.5, 0.5), 0.3, n_frames=96)
    idx = intermediate_regime(kern)
    slope, _ = fit_power(kern.times[idx], kernel_moment(kern)[idx])
    err = abs(slope - 0.5)
    assert err > 0
    for tol, passes in ((2.0 * err, True), (0.5 * err, False)):
        rep = moment_report(kern, tol=tol)
        assert rep.passed is passes and (rep.margin >= 0) is passes
        assert rep.lhs == err and rep.rhs == tol
        assert rep.details["slope"] == slope
        assert rep.details["target_slope"] == 0.5


# ---------------------------------------------------------------------------
# running supremum and the truncated lower bound


def test_running_sup_against_dense_scan():
    s = np.geomspace(1e-7, 1.0, 200_001)
    for d in (1, 2, 3):
        for r in (0.05, 0.3, 0.7):
            for t in (0.01, 0.1, 1.0):
                scan = float(np.max(gaussian_heat(d, s[s <= t], r)))
                val = float(gaussian_running_sup(d, t, r))
                # the scan is a lower bound for the sup with resolution
                # error; a wrong maximiser would miss by percents
                assert scan - 1e-15 <= val <= scan * (1 + 1e-3)


def test_running_sup_freezes_after_peak():
    d, r = 2, 0.4
    s_star = r ** 2 / (2 * d)
    peak = gaussian_heat(d, s_star, r)
    assert gaussian_running_sup(d, 10.0, r) == pytest.approx(peak, rel=1e-14)
    assert gaussian_running_sup(d, s_star / 4, r) == pytest.approx(
        gaussian_heat(d, s_star / 4, r), rel=1e-14)
    # monotone in t
    ts = np.linspace(1e-4, 1.0, 200)
    vals = gaussian_running_sup(d, ts, r)
    assert np.all(np.diff(vals) >= -1e-15)


def test_truncated_bound_vanishes_at_barrier():
    # Psi = Phi(t, r) - sup_s Phi(s, 7R/10) is non-positive at r = 7R/10
    radius = 1.0
    barrier = 0.7 * radius
    for t in np.linspace(1e-3, 49.0 / 400.0, 50):
        psi = gaussian_heat(2, t, barrier) - gaussian_running_sup(
            2, t, barrier)
        assert psi <= 0.0


def test_gaussian_lower_bound_on_graph_domain():
    grid = GridSpec.make((2.0, 2.0), 97, origin=(-1.0, -1.0))
    dom = admissible_graph_domain(grid, 1.0, 0.0)
    src = source_ball_center(1.0, None, 2)
    assert np.allclose(src, (0.0, 0.2))
    kern = kernel_evolve(dom, src, 49.0 / 400.0, n_frames=33)
    rep = gaussian_lower_bound_check(kern, 1.0)
    assert rep.passed
    assert rep.details["violations"] == 0
    assert rep.lhs <= rep.rhs
    assert rep.details["points_checked"] > 10_000


def test_kernel_dt_limit_counts_dirichlet_faces():
    """A graph domain's Dirichlet faces make the 2-D row max 6, so the
    limit is h^2/6, not h^2/4: 1.2 times it is refused before any step."""
    grid = GridSpec.make((2.0, 2.0), 33, origin=(-1.0, -1.0))
    dom = admissible_graph_domain(grid, 1.0, 0.0)
    assert dom.stencil_row_max() == 6.0
    src = tuple(source_ball_center(1.0, None, 2))
    with pytest.raises(ParameterError, match="stability limit"):
        kernel_evolve(dom, src, 0.05, dt=1.2 * grid.h ** 2 / 6.0)


def test_gaussian_lower_bound_rejects_misplaced_source():
    grid = GridSpec.make((2.0, 2.0), 49, origin=(-1.0, -1.0))
    dom = admissible_graph_domain(grid, 1.0, 0.0)
    kern = kernel_evolve(dom, (0.0, 0.8), 0.02, n_frames=8)
    with pytest.raises(PreconditionError):
        gaussian_lower_bound_check(kern, 1.0)


# ---------------------------------------------------------------------------
# fitted prefactors


def test_fitted_prefactors_positive_and_deterministic():
    kern = kernel_evolve(_box(1.0, 33, 2), (0.5, 0.5), 0.2, n_frames=64)
    c1 = fitted_prefactor(kern, 2.0)
    c2 = fitted_prefactor(kern, 2.0)
    assert c1 > 0 and c1 == c2
    m1 = fitted_moment_prefactor(kern, 0.25)
    assert m1 > 0
    # the fit dominates the measured series on the window it was fit on
    idx = kern.times > 0
    series = space_norm(kern.values, kern.grid, 2.0)[idx]
    bound = c1 * kern.times[idx] ** (-(2.0 - 1.0) / 2.0 *
                                     (2.0 / 2.0))  # d/2 (1 - 1/p), d=2, p=2
    assert np.all(series <= bound * (1 + 1e-9))
