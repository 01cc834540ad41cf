"""Tests for the coupled solvers: the cross-diffusion competition pair with
its companion chain, general polynomial reaction networks with their
triangular de-coupling transform, mass potential and reports, and the
closed quadratic quartet as one such network."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from difflab import (
    Field,
    GeneralSystemSpec,
    GridSpec,
    PRESET_SYSTEMS,
    ParameterError,
    SKTParams,
    SamplingError,
    SolverError,
    StructuralError,
    full_mask,
    general_solve,
    lp_energy_report,
    preset_p_q_2s3,
    preset_quad4,
    preset_s1_2s2,
    preset_uum,
    quad_identity_report,
    quad_mass_report,
    quad_mu_report,
    quadratic_solve,
    skt_auxiliary,
    skt_convexified,
    nu_bounds_report,
    skt_solve,
    structural_checks,
    transform_consistency_report,
    transformed_residual_report,
)
from difflab.systems import halton
from test_grid import euler_product_reference

TOL_MACHINE = 1e-12
TOL_EXACT = 1e-10
ODE_TOL = 1e-6

SKT_PARAMS = SKTParams(d1=0.1, d2=0.2, sigma=0.5, r_u=1.0, r_v=1.0,
                       d11=1.0, d12=0.5, d21=0.5, d22=1.0)


def unit_square(n):
    return full_mask(GridSpec.make((1.0, 1.0), n))


def point_mask():
    """Smallest legal grid; spatially uniform runs reduce to the ODE."""
    return full_mask(GridSpec.make((1.0,), 3))


def smooth_u(x):
    return 0.5 + 0.3 * np.cos(np.pi * x[:, 0]) * np.cos(2 * np.pi * x[:, 1])


def smooth_v(x):
    return 0.4 + 0.2 * np.cos(2 * np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])


def run_skt(n=17, t_end=0.25, n_frames=65):
    mask = unit_square(n)
    return skt_solve(Field.from_function(mask, smooth_u),
                     Field.from_function(mask, smooth_v),
                     SKT_PARAMS, t_end, n_frames=n_frames)


# ---------------------------------------------------------------------------
# cross-diffusion pair


def test_skt_params_validation():
    with pytest.raises(ParameterError):
        SKTParams(d1=0.0, d2=0.2, sigma=0.5, r_u=1.0, r_v=1.0,
                  d11=1.0, d12=0.5, d21=0.5, d22=1.0)
    with pytest.raises(ParameterError):
        SKTParams(d1=0.1, d2=0.2, sigma=-0.1, r_u=1.0, r_v=1.0,
                  d11=1.0, d12=0.5, d21=0.5, d22=1.0)
    with pytest.raises(ParameterError):
        SKTParams(d1=0.1, d2=0.2, sigma=0.5, r_u=-1.0, r_v=1.0,
                  d11=1.0, d12=0.5, d21=0.5, d22=1.0)
    with pytest.raises(ParameterError):
        SKTParams(d1=0.1, d2=0.2, sigma=0.5, r_u=1.0, r_v=1.0,
                  d11=1.0, d12=0.5, d21=0.5, d22=0.0)


def test_skt_v_ceiling_formula():
    assert SKT_PARAMS.v_ceiling(0.3) == SKT_PARAMS.r_v / SKT_PARAMS.d22
    assert SKT_PARAMS.v_ceiling(2.5) == 2.5


def test_skt_solve_validation():
    mask = unit_square(9)
    other = unit_square(9)
    u0 = Field.constant(mask, 0.5)
    with pytest.raises(ParameterError):
        skt_solve(u0, Field.constant(other, 0.5), SKT_PARAMS, 0.1)
    with pytest.raises(ParameterError):
        skt_solve(u0, Field(mask, np.full(mask.active_count, -0.1)),
                  SKT_PARAMS, 0.1)
    with pytest.raises(ParameterError):
        skt_solve(u0, Field.constant(mask, 0.5), SKT_PARAMS, 0.0)
    with pytest.raises(ParameterError):
        skt_solve(u0, Field.constant(mask, 0.5), SKT_PARAMS, 0.1, dt=1.0)


@pytest.mark.parametrize("t_end, dt", [
    (0.1, -1e-4), (0.1, 0.0), (0.1, float("nan")), (float("nan"), None)])
def test_solvers_reject_a_bad_dt_or_span(t_end, dt):
    mask = unit_square(9)
    u0 = Field.constant(mask, 0.5)
    with pytest.raises(ParameterError, match="finite"):
        skt_solve(u0, u0, SKT_PARAMS, t_end, dt=dt)
    with pytest.raises(ParameterError, match="finite"):
        general_solve(general_inits(mask, 3), preset_uum(1, (1,)), t_end,
                      dt=dt)


def test_skt_solve_matches_a_per_step_reference_loop():
    # each row starts at its value plus dt times its reaction, with dt
    # folded into the rate constants; the flux (d1 + sigma v) u, v and m
    # then diffuse into u, v and m with diffusions (1, d2, 1)
    p, mask = SKT_PARAMS, unit_square(9)
    sol = skt_solve(Field.from_function(mask, smooth_u),
                    Field.from_function(mask, smooth_v), p, 0.05, n_frames=9)
    lap, dt = mask.laplacian_matrix(), sol.dt
    u, v = sol.u.values[0].copy(), sol.v.values[0].copy()
    m, int_u, w = (np.zeros(mask.active_count) for _ in range(3))
    states = [(u, v, m, int_u, w)]
    for _ in range(sol.steps):
        g = u * (dt * p.d11) + v * (dt * p.d12)
        start = np.stack([(dt * p.r_u - g) * u + u,
                          ((dt * p.r_v - u * (dt * p.d21))
                           - v * (dt * p.d22)) * v + v,
                          g * u + m])
        flux = (v * p.sigma + p.d1) * u
        int_u, w = u * dt + int_u, (flux + m) * dt + w
        u, v, m = euler_product_reference(
            lap, dt * np.array([1.0, p.d2, 1.0]), np.stack([flux, v, m]),
            start)
        u[u < 0], v[v < 0] = 0.0, 0.0
        states.append((u, v, m, int_u, w))
    steps = np.rint(sol.u.times / dt).astype(int)
    assert steps[-1] == sol.steps
    for row, traj in enumerate((sol.u, sol.v, sol.m, sol.int_u, sol.w)):
        assert np.array_equal(traj.values,
                              np.array([states[k][row] for k in steps]))


def test_skt_zero_init_stays_zero():
    mask = unit_square(9)
    zero = Field.constant(mask, 0.0)
    sol = skt_solve(zero, zero, SKT_PARAMS, 0.1, n_frames=17)
    for traj in (sol.u, sol.v, sol.m, sol.int_u, sol.w):
        assert float(np.max(np.abs(traj.values))) == 0.0
    aux = skt_auxiliary(sol)
    assert aux.residual.lhs == 0.0


def test_skt_uniform_run_matches_ode_oracle():
    """Spatially constant data never feels the Laplacian, so the pair must
    track the plain competition ODE integrated adaptively to 1e-12."""
    p = SKT_PARAMS

    def rhs(_t, y):
        u, v = y
        return [u * (p.r_u - p.d11 * u - p.d12 * v),
                v * (p.r_v - p.d21 * u - p.d22 * v)]

    ref = solve_ivp(rhs, (0.0, 1.0), [0.6, 0.4], rtol=1e-12, atol=1e-14)
    mask = point_mask()
    sol = skt_solve(Field.constant(mask, 0.6), Field.constant(mask, 0.4),
                    p, 1.0, dt=2e-5, n_frames=3)
    err = max(abs(float(sol.u.values[-1][0]) - ref.y[0, -1]),
              abs(float(sol.v.values[-1][0]) - ref.y[1, -1]))
    assert err <= ODE_TOL
    spread = max(np.ptp(sol.u.values[-1]), np.ptp(sol.v.values[-1]))
    assert spread <= TOL_MACHINE


def test_skt_positivity_and_v_ceiling():
    mask = unit_square(17)
    rng = np.random.default_rng(3)
    u0 = Field(mask, 0.1 + 0.9 * rng.random(mask.active_count))
    v0 = Field(mask, 0.1 + 0.9 * rng.random(mask.active_count))
    sol = skt_solve(u0, v0, SKT_PARAMS, 0.5, n_frames=33)
    assert float(np.min(sol.u.values)) >= 0.0
    assert float(np.min(sol.v.values)) >= 0.0
    cap = SKT_PARAMS.v_ceiling(float(v0.values.max()))
    assert float(np.max(sol.v.values)) <= cap + 1e-8


def test_skt_nu_pinched_between_diffusions():
    sol = run_skt()
    aux = skt_auxiliary(sol)
    rep = nu_bounds_report(sol, aux)
    assert rep.passed
    assert rep.lhs <= TOL_MACHINE
    lo = min(1.0, SKT_PARAMS.d1)
    hi = max(1.0, SKT_PARAMS.d1 + SKT_PARAMS.sigma * float(np.max(sol.v.values)))
    assert float(np.min(aux.nu.values)) >= lo - TOL_MACHINE
    assert float(np.max(aux.nu.values)) <= hi + TOL_MACHINE


def test_skt_integral_accumulators_telescope():
    """The left-rectangle accumulators make lap w(T) equal
    u(T) + m(T) - u(0) - r_u int u exactly, step by step."""
    sol = run_skt(n=17, t_end=0.1, n_frames=9)
    assert sol.clipped_mass == 0.0
    mask = sol.u.mask
    k = sol.u.n_frames - 1
    lap_w = mask.gather(mask.laplacian_full(mask.scatter(sol.w.values[k])))
    rhs = (sol.u.values[k] + sol.m.values[k] - sol.u.values[0]
           - SKT_PARAMS.r_u * sol.int_u.values[k])
    scale = float(np.max(np.abs(rhs)))
    assert float(np.max(np.abs(lap_w - rhs))) <= 100 * TOL_MACHINE * max(scale, 1.0)


def test_skt_evolution_identity_residual_refines():
    worst = []
    for n in (17, 33):
        mask = unit_square(n)
        sol = skt_solve(Field.from_function(mask, smooth_u),
                        Field.from_function(mask, smooth_v),
                        SKT_PARAMS, 0.25, n_frames=65)
        aux = skt_auxiliary(sol)
        assert aux.residual.passed
        worst.append(aux.residual.lhs)
    assert worst[0] / worst[1] >= 1.6


def test_skt_evolution_identity_needs_an_interior_frame():
    # a residual over no interior frame would read 0.0 and pass
    sol = run_skt(n=9, t_end=0.01, n_frames=2)
    with pytest.raises(SamplingError,
                       match="skt_evolution_identity.*2 frames"):
        skt_auxiliary(sol)


def test_skt_convexified_field_dominates_u():
    sol = run_skt()
    aux = skt_auxiliary(sol)
    for k in (1, sol.u.n_frames // 2, sol.u.n_frames - 1):
        w_t, lap_t = skt_convexified(sol, aux, k)
        gap = lap_t.values - sol.u.values[k]
        assert float(np.min(gap)) >= -TOL_MACHINE
        assert float(np.min(lap_t.values)) >= -TOL_MACHINE
        assert np.isfinite(w_t.values).all()


def test_lp_energy_zero_solution():
    mask = unit_square(9)
    zero = Field.constant(mask, 0.0)
    sol = skt_solve(zero, zero, SKT_PARAMS, 0.1, n_frames=9)
    rep = lp_energy_report(sol, 2)
    assert rep.passed
    assert rep.lhs == 0.0


def test_lp_energy_uniform_has_no_gradient_term():
    mask = point_mask()
    sol = skt_solve(Field.constant(mask, 0.6), Field.constant(mask, 0.4),
                    SKT_PARAMS, 0.2, n_frames=17)
    rep = lp_energy_report(sol, 2)
    hd = mask.grid.h ** mask.grid.dim
    u_T = float(sol.u.values[-1][0])
    expected = hd * mask.active_count * u_T ** 3 / 3.0
    assert abs(rep.lhs - expected) <= 1e-12 * max(expected, 1.0)


def test_lp_energy_calibration_and_verification():
    sol = run_skt(t_end=0.1, n_frames=17)
    cal = lp_energy_report(sol, 2)
    assert cal.passed
    assert cal.params["mode"] == "calibration"
    # the calibration gate sits its 1e-9 headroom above the fitted lhs
    assert cal.rhs == pytest.approx(cal.lhs * (1 + 1e-9), rel=1e-15)
    ver = lp_energy_report(sol, 2, c_p=cal.params["C_p"] * 1.5)
    assert ver.passed and ver.params["mode"] == "verification"
    assert not lp_energy_report(sol, 2, c_p=cal.params["C_p"] * 0.5).passed
    with pytest.raises(ParameterError):
        lp_energy_report(sol, 0)


# ---------------------------------------------------------------------------
# closed quadratic quartet


QUAD_DIFF = (1.0, 1.5, 0.5, 2.0)


def test_quad_validation():
    mask = unit_square(9)
    u0 = Field.constant(mask, 0.5)
    with pytest.raises(ParameterError):
        quadratic_solve([u0] * 3, QUAD_DIFF, 0.1)
    with pytest.raises(ParameterError):
        quadratic_solve([u0] * 4, (1.0, 1.5, 0.5, 0.0), 0.1)
    with pytest.raises(ParameterError):
        quadratic_solve([u0] * 3 + [Field.constant(unit_square(9), 0.5)],
                        QUAD_DIFF, 0.1)
    with pytest.raises(ParameterError):
        quadratic_solve([u0] * 4, QUAD_DIFF, 0.1, dt=1.0)


def test_quad_all_zero_is_fixed_point():
    mask = unit_square(9)
    zero = Field.constant(mask, 0.0)
    sol = quadratic_solve([zero] * 4, QUAD_DIFF, 0.1, n_frames=9)
    assert all(float(np.max(np.abs(t.values))) == 0.0 for t in sol.u)
    assert quad_mass_report(sol).passed
    mu = quad_mu_report(sol, QUAD_DIFF)
    assert mu.passed
    # every node is empty, so mu is the guarded fallback, the mean d_i
    assert mu.details["mu_min"] == mu.details["mu_max"] == np.mean(QUAD_DIFF)


def test_quad_reports_reject_wrong_diffusions():
    # unit diffusions would force mu = 1 and pass the pinching for any run;
    # the reports read d from the solved spec and refuse a different one
    mask = unit_square(9)
    inits = [Field.constant(mask, c) for c in (0.8, 0.1, 0.6, 0.2)]
    sol = quadratic_solve(inits, QUAD_DIFF, 0.01, n_frames=5)
    for report in (quad_mu_report, quad_identity_report):
        with pytest.raises(ParameterError, match="not the solved ones"):
            report(sol, (1.0, 1.0, 1.0, 1.0))
        with pytest.raises(ParameterError):
            report(sol, QUAD_DIFF[:3])
        assert report(sol, list(QUAD_DIFF)).passed
    assert sol.spec.diffusions == QUAD_DIFF


def test_quad_drain_case():
    """With u2 = u4 = 0 the forward reaction u1 u3 feeds both products;
    pairwise masses int (u1 + u2) and int (u3 + u4) stay constant."""
    mask = unit_square(17)
    u1 = Field.from_function(mask, smooth_u)
    u3 = Field.from_function(mask, smooth_v)
    zero = Field.constant(mask, 0.0)
    sol = quadratic_solve([u1, zero, u3, zero], QUAD_DIFF, 0.25, n_frames=33)
    assert quad_mass_report(sol).lhs <= 1e-10
    assert quad_mu_report(sol, QUAD_DIFF).lhs <= TOL_MACHINE
    assert quad_identity_report(sol, QUAD_DIFF).passed
    hd = mask.grid.h ** 2
    for a, b in ((0, 1), (2, 3)):
        pair = hd * (sol.u[a].values.sum(axis=1) + sol.u[b].values.sum(axis=1))
        assert np.max(np.abs(pair - pair[0])) <= 1e-10 * pair[0]
    assert float(sol.u[1].values[-1].max()) > 0.01   # products actually grow
    assert float(sol.u[0].values[-1].max()) < float(u1.values.max())


def test_quad_uniform_run_matches_ode_oracle():
    def rhs(_t, y):
        r = y[0] * y[2] - y[1] * y[3]
        return [-r, r, -r, r]

    inits = (0.8, 0.1, 0.6, 0.2)
    ref = solve_ivp(rhs, (0.0, 0.5), list(inits), rtol=1e-12, atol=1e-14)
    mask = point_mask()
    sol = quadratic_solve([Field.constant(mask, c) for c in inits],
                          QUAD_DIFF, 0.5, dt=8e-6, n_frames=3)
    err = max(abs(float(sol.u[i].values[-1][0]) - ref.y[i, -1])
              for i in range(4))
    assert err <= ODE_TOL


@pytest.mark.parametrize("solver", ["quadratic", "general"])
def test_quartet_clipping_beyond_tolerance_raises(solver):
    """A step that drives u1 far below zero clips far more than 1e-8 of
    the mass; both quartet paths refuse the run."""
    mask = point_mask()
    inits = [Field.constant(mask, c) for c in (1.0, 0.0, 1e4, 0.0)]
    with pytest.raises(SolverError, match="clipped mass"):
        if solver == "quadratic":
            quadratic_solve(inits, QUAD_DIFF, 0.1)
        else:
            general_solve(inits, preset_quad4(QUAD_DIFF), 0.1)


def test_quad_lap_identity_residual_refines():
    vals = []
    for n in (17, 33):
        mask = unit_square(n)
        inits = [Field.from_function(
            mask, lambda x, i=i: 0.3 + 0.2 * np.cos((i + 1) * np.pi * x[:, 0])
            * np.cos(np.pi * x[:, 1])) for i in range(4)]
        sol = quadratic_solve(inits, QUAD_DIFF, 0.25, n_frames=65)
        rep = quad_identity_report(sol, QUAD_DIFF)
        assert rep.passed
        vals.append(rep.details["lap_identity_inf"])
    assert vals[0] / vals[1] >= 1.8


def test_quad_identities_need_an_interior_frame():
    # residuals over no interior frame would read 0.0 and pass
    sol = quadratic_solve(general_inits(unit_square(9), 4), QUAD_DIFF, 0.01,
                          n_frames=2)
    with pytest.raises(SamplingError,
                       match="quad_integral_identities.*2 frames"):
        quad_identity_report(sol, QUAD_DIFF)


# ---------------------------------------------------------------------------
# the monomial table of a network


def term_lists(spec):
    """The table of ``spec`` written back as constructor term lists."""
    return [[(c, tuple(p)) for c, p in zip(col, spec.powers.tolist())]
            for col in spec.coeffs.T]


def test_monomial_table_evaluates_and_combines():
    # f1 = 2 u1^2 u3 - u2 and f2 = -2 u1^2 u3 + 0.5 u2 share two monomials,
    # rows sorted by exponents; a short exponent tuple pads with zeros
    f = [(2.0, (2, 0, 1)), (-1.0, (0, 1))]
    g = [(-2.0, (2, 0, 1)), (0.5, (0, 1, 0))]
    spec = GeneralSystemSpec((1.0,) * 3, [f, g, []], (1.0,) * 3, np.eye(3),
                             K=1.0)
    np.testing.assert_array_equal(spec.powers, [[0, 1, 0], [2, 0, 1]])
    np.testing.assert_array_equal(spec.coeffs, [[-1.0, 0.5, 0.0],
                                                [2.0, -2.0, 0.0]])
    states = np.array([[1.0, 2.0, 3.0], [0.5, 1.0, 4.0]])
    np.testing.assert_allclose(spec.rates(states.T),
                               [[4.0, 1.0], [-5.0, -1.5], [0.0, 0.0]])
    # the cubic terms cancel exactly; only -0.5 u2 survives
    np.testing.assert_array_equal(spec.mass_combination(), [-0.5, 0.0])
    assert not spec.mass_is_exact()
    # repeated terms add up, and a cancelled or empty network is exact
    neg = [(-2.0 * c, p) for c, p in f]
    twice = GeneralSystemSpec((1.0,) * 3, [f + f, neg, []], (1.0,) * 3,
                              np.eye(3), K=1.0)
    np.testing.assert_array_equal(twice.coeffs[:, 0], [-2.0, 4.0])
    assert twice.mass_is_exact()
    empty = GeneralSystemSpec((1.0,), [[]], (1.0,), [[1.0]], K=1.0)
    assert empty.powers.shape == (0, 1) and empty.mass_is_exact()
    np.testing.assert_array_equal(empty.rates(np.ones((1, 3))),
                                  np.zeros((1, 3)))
    with pytest.raises(ParameterError, match="more than 1 exponents"):
        GeneralSystemSpec((1.0,), [[(1.0, (1, 1))]], (1.0,), [[1.0]], K=1.0)


def test_spec_validation_errors():
    r = [[(1.0, (1, 0))], [(1.0, (0, 1))]]
    good_A = np.eye(2)
    with pytest.raises(ParameterError):
        GeneralSystemSpec((1.0,), r, (1.0, 1.0), good_A, K=1.0)
    with pytest.raises(ParameterError):
        GeneralSystemSpec((1.0, -1.0), r, (1.0, 1.0), good_A, K=1.0)
    with pytest.raises(ParameterError):
        GeneralSystemSpec((1.0, 1.0), r, (1.0, 0.0), good_A, K=1.0)
    with pytest.raises(ParameterError):
        GeneralSystemSpec((1.0, 1.0), r, (1.0, 1.0),
                          np.array([[1.0, 0.5], [0.0, 1.0]]), K=1.0)
    with pytest.raises(ParameterError):
        GeneralSystemSpec((1.0, 1.0), r, (1.0, 1.0),
                          np.array([[1.0, 0.0], [1.0, 0.0]]), K=1.0)


def test_network_without_species_is_a_parameter_error():
    # it used to die with a bare ValueError from min() of an empty sequence
    with pytest.raises(ParameterError, match="one or more species"):
        GeneralSystemSpec([], [], [], [[]], 1.0)


def test_c_table_solves_defining_identity():
    """The triangular table is defined by requiring that C A recovers
    M_ij = (d_j - d_i) a_ij off the diagonal, which is what makes the
    transformed variables v = A u close their own parabolic system."""
    rng = np.random.default_rng(11)
    for m in range(2, 7):
        A = np.tril(rng.standard_normal((m, m)))
        np.fill_diagonal(A, 1.0 + rng.random(m))
        d = tuple(0.5 + 2.0 * rng.random(m))
        spec = GeneralSystemSpec(
            d, [[(0.0, (0,) * m)] for _ in range(m)], (1.0,) * m, A, K=1.0)
        C = spec.c_table()
        M = (np.asarray(d)[None, :] - np.asarray(d)[:, None]) * A
        np.fill_diagonal(M, 0.0)
        assert float(np.max(np.abs(C @ A - M))) <= TOL_MACHINE
        assert float(np.max(np.abs(np.triu(C)))) == 0.0


def test_c_table_two_species_closed_form():
    A = np.array([[2.0, 0.0], [3.0, 1.5]])
    d = (1.0, 0.25)
    spec = GeneralSystemSpec(d, [[(0.0, (0, 0))]] * 2, (1.0, 1.0), A, K=1.0)
    c = spec.c_table()
    assert abs(c[1, 0] - (d[0] - d[1]) * A[1, 0] / A[0, 0]) <= TOL_MACHINE


def test_c_table_identity_matrix_gives_zero():
    spec = GeneralSystemSpec((1.0, 2.0, 0.5), [[(0.0, (0, 0, 0))]] * 3,
                             (1.0,) * 3, np.eye(3), K=1.0)
    assert float(np.max(np.abs(spec.c_table()))) == 0.0


def test_with_companion_restores_exact_mass():
    decay = GeneralSystemSpec((1.0,), [[(-1.0, (2,))]], (1.0,), [[1.0]],
                              K=1.0, name="decay")
    assert not decay.mass_is_exact()
    comp = decay.with_companion()
    assert comp.m == 2
    assert comp.mass_is_exact()
    assert float(np.max(np.abs(comp.mass_combination()))) <= TOL_MACHINE
    np.testing.assert_array_equal(comp.A, [[1.0, 0.0], [1.0, 1.0]])
    # the table gains a zero exponent column and the companion rate +u1^2
    np.testing.assert_array_equal(comp.powers, [[2, 0]])
    np.testing.assert_array_equal(comp.coeffs, [[-1.0, 1.0]])
    states = np.array([[2.0, 0.0], [3.0, 1.0]])
    np.testing.assert_allclose(comp.rates(states.T)[1], [4.0, 9.0])


# ---------------------------------------------------------------------------
# structural audits


AUDITED_PRESETS = (preset_quad4(), preset_uum(1, (1,)), preset_uum(2, (2, 1)),
                   preset_s1_2s2(), preset_p_q_2s3(1, 2), preset_p_q_2s3(2, 2))


def test_presets_pass_structural_checks():
    for spec in AUDITED_PRESETS:
        rep = structural_checks(spec, n_samples=20_000)
        assert rep.passed, spec.name
        assert rep.details["a2_symbolic_zero"]
        assert rep.details["a1_min_margin"] >= -TOL_MACHINE
        assert rep.details["fitted_K"] <= spec.K + 1e-9


def test_a1_margins_match_faces_evaluated_by_rates():
    # the audit keeps the monomials free of u_i on the face u_i = 0; the
    # reference zeroes column i of the samples and evaluates f_i there.  The
    # shifted box keeps the origin, where every margin is 0, out of reach.
    n = 20_000
    for spec in AUDITED_PRESETS + (DECAY.with_companion(),):
        for box in ((0.0, 10.0), (0.5, 10.0)):
            states = box[0] + (box[1] - box[0]) * halton(spec.m, n)
            margin = np.inf
            for i in range(spec.m):
                faces = states.copy()
                faces[:, i] = 0.0
                margin = min(margin, float(spec.rates(faces.T)[i].min()))
            rep = structural_checks(spec, n_samples=n, box=box)
            np.testing.assert_allclose(rep.details["a1_min_margin"], margin,
                                       rtol=1e-12, atol=0.0,
                                       err_msg=f"{spec.name} {box}")


def test_a3_lhs_is_the_worst_scaled_row_minus_k():
    # lhs is max over rows and samples of row/(1 + sum u)^2 - K, so it
    # shows how near the rows come to K
    for spec, pinned in ((preset_quad4(), -0.78),
                         (preset_p_q_2s3(1, 2), -0.39)):
        states = halton(spec.m, 100_000) * 10.0
        rows = spec.A @ spec.rates(states.T)
        worst = float(np.max(rows / (1.0 + states.sum(axis=1)) ** 2))
        rep = structural_checks(spec, n_samples=100_000)
        assert rep.lhs == worst - spec.K
        assert rep.lhs == rep.details["fitted_K"] - spec.K
        assert round(rep.lhs, 2) == pinned


def test_max_positive_degree_is_read_off_the_table():
    # every positive monomial of every row of A f is quadratic; the sampled
    # fit it replaces read 0.0, 2.73, 0.0, 0.72, 0.0 and 0.48 on these six
    # and 0.0 on the general preset's uum(2, (1, 2))
    for spec in AUDITED_PRESETS + (preset_uum(2, (1, 2)),):
        rep = structural_checks(spec, n_samples=1000)
        assert rep.details["max_positive_degree"] == 2, spec.name
    # without its third row of A, the cubic exchange keeps the cubic term
    base = preset_s1_2s2()
    raw = GeneralSystemSpec(base.diffusions, term_lists(base),
                            base.beta_weights, np.eye(3), K=base.K)
    assert structural_checks(raw, n_samples=1000).details[
        "max_positive_degree"] == 3


@pytest.mark.parametrize("d", range(1, 8))
def test_halton_is_bit_identical_to_scipy(d):
    from scipy.stats import qmc
    for n in (1, 2, 3, 7, 8, 9, 10_000, 100_000):
        ref = qmc.Halton(d=d, scramble=False).random(n)
        got = halton(d, n)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        assert got.flags.f_contiguous == ref.flags.f_contiguous


def test_row_sums_beat_naive_species_bounds():
    """For the cubic exchange the raw f_3 grows cubically and escapes any
    quadratic one-sided bound, while the A-combined rows stay quadratic;
    that distinction is the whole point of the triangular structure."""
    spec = preset_s1_2s2()
    state = np.array([[8.0, 9.0, 1.0]])
    naive = float(spec.rates(state.T)[2, 0])
    assert naive > spec.K * (1.0 + state.sum()) ** 2
    rep = structural_checks(spec, n_samples=20_000)
    assert rep.passed
    assert rep.lhs <= 0.0


def test_structural_audit_without_samples_is_a_parameter_error():
    # it used to die with a bare ValueError from argmin of an empty sequence
    with pytest.raises(ParameterError, match="n_samples must be >= 1"):
        structural_checks(preset_quad4(), n_samples=0)


def test_structural_violations_raise_with_witness():
    base = preset_uum(1, (1,))
    starving = GeneralSystemSpec(base.diffusions, term_lists(base),
                                 base.beta_weights, base.A, K=0.01)
    # an A3 excess is a FAIL row whose witness rides in its details
    rep = structural_checks(starving, n_samples=20_000)
    assert not rep.passed and rep.lhs > rep.rhs == 1e-12
    witness = rep.details["violations"][0]
    assert witness["condition"] == "A3"
    assert len(witness["state"]) == starving.m

    sink = GeneralSystemSpec((1.0,), [[(-1.0, (0,))]], (1.0,), [[1.0]], K=1.0)
    with pytest.raises(StructuralError) as exc:
        structural_checks(sink, n_samples=1000)
    assert exc.value.witness["condition"] == "A1"


def test_preset_constructor_validation():
    with pytest.raises(ParameterError):
        preset_uum(2, (1,))
    with pytest.raises(ParameterError):
        preset_uum(1, (0,))
    with pytest.raises(ParameterError):
        preset_p_q_2s3(0, 1)
    with pytest.raises(ParameterError):
        preset_p_q_2s3(4, 4)


# ---------------------------------------------------------------------------
# general solver and the transformed system


def general_inits(mask, m, base=0.4, amp=0.2):
    def blob(k):
        def f(x):
            return base + amp * np.cos(np.pi * x[:, 0] * (k + 1)) \
                * np.cos(np.pi * x[:, 1])
        return f
    return [Field.from_function(mask, blob(k)) for k in range(m)]


def test_general_solve_validation():
    spec = preset_uum(1, (1,))
    mask = unit_square(9)
    inits = general_inits(mask, 3)
    with pytest.raises(ParameterError):
        general_solve(inits[:2], spec, 0.1)
    with pytest.raises(ParameterError):
        general_solve(inits[:2] + [Field.constant(unit_square(9), 0.1)],
                      spec, 0.1)
    with pytest.raises(ParameterError):
        bad = [Field(mask, np.full(mask.active_count, -0.1))] + inits[1:]
        general_solve(bad, spec, 0.1)
    with pytest.raises(ParameterError):
        general_solve(inits, spec, 0.1, dt=1.0)


def test_uum_uniform_run_converges_to_ode_oracle():
    """One reactant fusing into a product pair: the hand-written chemistry
    r = u1 - u2 u3 is the oracle, so this also pins down what the preset's
    term lists encode.  First-order convergence in dt."""
    def rhs(_t, y):
        r = y[0] - y[1] * y[2]
        return [-r, r, r]

    inits = (0.9, 0.2, 0.3)
    ref = solve_ivp(rhs, (0.0, 1.0), list(inits), rtol=1e-12, atol=1e-14)
    spec = preset_uum(1, (1,))
    mask = point_mask()
    errs = []
    for dt in (4e-5, 2e-5):
        sol = general_solve([Field.constant(mask, c) for c in inits],
                            spec, 1.0, dt=dt, n_frames=3)
        assert not sol.companion_added
        errs.append(max(abs(float(sol.u[i].values[-1][0]) - ref.y[i, -1])
                        for i in range(3)))
    assert errs[0] <= 8e-6
    assert errs[1] <= 0.6 * errs[0]          # first order in dt
    assert errs[1] <= 4 * ODE_TOL


DECAY = GeneralSystemSpec((1.0,), [[(-1.0, (2,))]], (1.0,), [[1.0]],
                          K=1.0, name="decay")       # needs a companion


def test_general_solve_companion_path_conserves_mass():
    mask = unit_square(17)
    sol = general_solve([Field.from_function(mask, smooth_u)], DECAY, 0.2,
                        n_frames=17)
    assert sol.companion_added
    assert sol.spec.m == 2
    assert sol.clipped_mass == 0.0
    hd = mask.grid.h ** 2
    total = hd * sum(t.values.sum(axis=1) for t in sol.u)
    assert np.max(np.abs(total - total[0])) <= 1e-10 * total[0]
    assert float(sol.u[1].values[-1].max()) > 0.0
    # the potential integrates the companion's flux as well: the same
    # network with the companion written out gives the same w, bit for bit
    explicit = general_solve(
        [Field.from_function(mask, smooth_u), Field.constant(mask, 0.0)],
        DECAY.with_companion(), 0.2, n_frames=17)
    assert not explicit.companion_added
    np.testing.assert_array_equal(sol.w.values, explicit.w.values)
    assert np.all(sol.w.values[0] == 0.0)
    assert np.all(np.diff(sol.w.values, axis=0) >= 0.0)     # dw/dt >= 0
    diff = sol.spec.diffusions
    assert quad_mass_report(sol).lhs <= TOL_EXACT
    assert quad_mu_report(sol, diff).lhs <= TOL_MACHINE
    assert quad_identity_report(sol, diff).passed


@pytest.mark.parametrize("spec", [preset_quad4(), DECAY],
                         ids=["quad4", "decay+companion"])
def test_general_solve_matches_a_per_step_reference_loop(spec):
    # u + (dt C) @ monomials, the undiffused potential row w + (dt b d) . u,
    # then sum (dt d_i l) u_i onto row i; the monomials multiply their
    # factors in row order and take a power as u ** e
    mask = unit_square(9)
    inits = general_inits(mask, spec.m)
    sol = general_solve(inits, spec, 0.05, n_frames=9)
    assert sol.companion_added == (spec is DECAY)
    spec, dt, m = sol.spec, sol.dt, sol.spec.m
    table = np.ascontiguousarray(dt * spec.coeffs.T)
    d = np.asarray(spec.diffusions)
    bd = np.asarray(spec.beta_weights) * d
    lap = mask.laplacian_matrix()
    U = np.zeros((m + 1, mask.active_count))
    U[:len(inits)] = [f.values for f in inits]
    states = [U]
    for _ in range(sol.steps):
        mono = np.ones((len(spec.powers), mask.active_count))
        for j, row in enumerate(spec.powers.tolist()):
            for r, e in enumerate(row):
                if e:
                    mono[j] = mono[j] * U[r] ** e
        V = np.vstack([table @ mono, np.dot(bd * dt, U[:m])]) + U
        V[:m] = euler_product_reference(lap, dt * d, U[:m], V[:m])
        V[:m][V[:m] < 0] = 0.0
        U = V
        states.append(U)
    steps = np.rint(sol.w.times / dt).astype(int)
    assert steps[-1] == sol.steps
    frames = np.array(states)[steps].transpose(1, 0, 2)
    for i in range(m):
        assert np.array_equal(sol.u[i].values, frames[i])
    flux = np.tensordot(bd, frames[:m], axes=1)
    assert np.array_equal(sol.w.values,
                          frames[m] + 0.5 * dt * (flux - flux[0]))


PRESET_ARGS = {"uum": {"m": 2, "b": (2, 1)}, "p_q_2s3": {"sp": 2, "sq": 1}}


@pytest.mark.parametrize("name", sorted(PRESET_SYSTEMS))
def test_every_preset_carries_mass_mu_and_potential(name):
    spec = PRESET_SYSTEMS[name](**PRESET_ARGS.get(name, {}))
    mask = unit_square(17)
    sol = general_solve(general_inits(mask, spec.m), spec, 0.1, n_frames=33)
    diff = sol.spec.diffusions
    assert quad_mass_report(sol).lhs <= TOL_EXACT
    assert quad_mu_report(sol, diff).lhs <= TOL_MACHINE
    assert quad_identity_report(sol, diff).passed
    assert np.all(np.diff(sol.w.values, axis=0) >= 0.0)


def test_general_solve_flags_box_escape():
    spec = preset_uum(1, (1,))
    mask = unit_square(9)
    sol = general_solve(general_inits(mask, 3, base=0.5), spec, 0.01,
                        n_frames=3, sampled_box=(0.0, 0.4))
    assert sol.box_exceeded
    sol2 = general_solve(general_inits(mask, 3, base=0.5), spec, 0.01,
                         n_frames=3)
    assert not sol2.box_exceeded


def test_transform_round_trip_is_exact():
    spec = preset_uum(2, (2, 1))
    mask = unit_square(9)
    sol = general_solve(general_inits(mask, 4), spec, 0.05, n_frames=9)
    rep = transform_consistency_report(sol)
    assert rep.passed
    assert rep.lhs <= TOL_MACHINE


def test_transformed_residual_passes_and_refines():
    spec = preset_uum(1, (1,))
    vals = []
    for n in (17, 33):
        mask = unit_square(n)
        sol = general_solve(general_inits(mask, 3), spec, 0.1, n_frames=65)
        rep = transformed_residual_report(sol)
        assert rep.passed
        assert not rep.details["box_exceeded"]
        vals.append(rep.lhs)
    assert vals[0] / vals[1] >= 2.0


def test_transformed_residual_needs_an_interior_frame():
    # a residual over no interior frame would read 0.0 and pass
    sol = general_solve(general_inits(unit_square(9), 3), preset_uum(1, (1,)),
                        0.01, n_frames=2)
    with pytest.raises(SamplingError,
                       match="transformed_system_residual.*2 frames"):
        transformed_residual_report(sol)
