"""Grids, masks, operators, and the discrete norms built on them."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import ndimage

from difflab import (DomainError, DomainMask, Field, GeometryError, GridSpec,
                     ParameterError, Trajectory, ball_mask,
                     full_mask, gradient, graph_domain_mask, holder_norm,
                     holder_norm_field, lipschitz_norm,
                     lp_norm, lpq_norm, oscillation, poisson_neumann,
                     SolverError, stable_dt)
from difflab import (RoughCoefficient, SKTParams, admissible_graph_domain,
                     general_solve, kernel_evolve, preset_uum, skt_solve,
                     solve_rough, source_ball_center)
from difflab.grid import march
from difflab import norms
from difflab.norms import pair_quotient_max

TOL_MACHINE = 1e-12
TOL_STENCIL = 1e-10
TOL_SOLVER = 1e-7


def _grid(n, dim, extent=1.0):
    return GridSpec.make((extent,) * dim, n)


def _random_field(mask, seed=0, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return Field(mask, lo + (hi - lo) * rng.random(mask.active_count))


# ---------------------------------------------------------------------------
# grid construction


def test_gridspec_geometry():
    g = _grid(33, 2)
    assert g.dim == 2
    assert g.h == pytest.approx(1.0 / 32.0, abs=0)
    assert math.prod(g.n) == 33 * 33
    x = g.axis_coords(0)
    assert x[0] == 0.0 and x[-1] == pytest.approx(1.0, abs=1e-15)
    mesh = g.meshgrid()
    assert mesh[0].shape == (33, 33)
    assert g.center == (0.5, 0.5)
    shifted = GridSpec.make((2.0, 1.0, 1.0), (9, 5, 5), origin=(-1, 0, 0.5))
    assert shifted.center == (0.0, 0.5, 1.0)


def test_gridspec_rejects_bad_input():
    with pytest.raises(ParameterError):
        GridSpec.make((1.0, 2.0), (9, 9))      # anisotropic spacing
    with pytest.raises(ParameterError):
        GridSpec.make((1.0,), (1,))            # too few nodes
    with pytest.raises(ParameterError):
        GridSpec.make((1.0,) * 5, (5,) * 5)    # unsupported dimension


def test_field_validation():
    mask = full_mask(_grid(9, 1))
    with pytest.raises(ParameterError):
        Field(mask, np.zeros(4))
    with pytest.raises(ParameterError):
        Field(mask, np.full(9, np.nan))
    f = Field.constant(mask, 2.0)
    assert not f.values.flags.writeable


# ---------------------------------------------------------------------------
# Laplacian


def test_laplacian_constant_is_zero():
    for mask in (full_mask(_grid(17, 2)),
                 ball_mask(_grid(33, 2), (0.5, 0.5), 0.3)):
        lap = mask.laplacian_matrix() @ Field.constant(mask, 4.2).values
        assert np.max(np.abs(lap)) <= 1e-13


def test_laplacian_quadratic_exact_in_interior():
    # centered second differences are exact on quadratics
    mask = full_mask(_grid(33, 1))
    u = Field.from_function(mask, lambda x: x[:, 0] ** 2)
    lap = mask.laplacian_matrix() @ u.values
    assert np.max(np.abs(lap[1:-1] - 2.0)) <= TOL_STENCIL

    mask2 = full_mask(_grid(17, 2))
    u2 = Field.from_function(mask2, lambda x: x[:, 0] ** 2 + x[:, 1] ** 2)
    lap2 = mask2.scatter(mask2.laplacian_matrix() @ u2.values)
    assert np.max(np.abs(lap2[1:-1, 1:-1] - 4.0)) <= TOL_STENCIL


def test_laplacian_conserves_node_sum_on_neumann_masks():
    # divergence form: fluxes telescope, Neumann ghosts carry none
    for mask in (full_mask(_grid(17, 3)),
                 ball_mask(_grid(33, 2), (0.5, 0.5), 0.34)):
        u = _random_field(mask, seed=3)
        lap = mask.laplacian_matrix() @ u.values
        scale = np.max(np.abs(u.values)) / mask.grid.h ** 2
        assert abs(np.sum(lap)) <= TOL_MACHINE * scale


def test_laplacian_self_adjoint_and_dissipative():
    for mask in (full_mask(_grid(17, 2)),
                 ball_mask(_grid(33, 2), (0.5, 0.5), 0.3,
                           boundary="dirichlet")):
        u = _random_field(mask, seed=1)
        v = _random_field(mask, seed=2)
        lu = mask.laplacian_matrix() @ u.values
        lv = mask.laplacian_matrix() @ v.values
        scale = mask.active_count / mask.grid.h ** 2
        assert abs(lu @ v.values - u.values @ lv) <= TOL_MACHINE * scale
        assert lu @ u.values <= TOL_MACHINE * scale


@st.composite
def random_masks(draw):
    """Largest edge-connected component of a random box pattern, with
    random Dirichlet ghosts or none."""
    shape = tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=3)))
    size = int(np.prod(shape))

    def bits():
        return np.array(draw(st.lists(st.booleans(), min_size=size,
                                      max_size=size))).reshape(shape)

    labels, ncomp = ndimage.label(bits())
    assume(ncomp > 0)
    active = labels == 1 + int(np.argmax(np.bincount(labels.ravel())[1:]))
    ghosts = bits() if draw(st.booleans()) else None
    grid = GridSpec.make(tuple((n - 1) / 8.0 for n in shape), shape)
    return DomainMask(grid, active, ghosts)


def _reference_laplacian(mask, full):
    """Face-by-face ghost rule on a full-box array, one node at a time."""
    n = mask.grid.n
    out = np.zeros(n)
    for node in zip(*np.nonzero(mask.active)):
        for ax in range(len(n)):
            for step in (-1, 1):
                nb = list(node)
                nb[ax] += step
                nb = tuple(nb)
                if not 0 <= nb[ax] < n[ax]:
                    continue                    # box edge: Neumann
                if mask.active[nb]:
                    out[node] += full[nb] - full[node]
                elif mask.dirichlet[nb]:
                    out[node] -= 2.0 * full[node]
    return out / mask.grid.h ** 2


@settings(max_examples=60, deadline=None)
@given(random_masks(), st.integers(0, 2 ** 32 - 1))
def test_laplacian_matrix_properties(mask, seed):
    L = mask.laplacian_matrix()
    scale = 1.0 / mask.grid.h ** 2
    assert L.shape == (mask.active_count, mask.active_count)
    assert abs(L - L.T).max() == 0.0
    assert np.linalg.eigvalsh(L.toarray()).max() <= 1e-12 * scale
    full = mask.scatter(np.random.default_rng(seed).standard_normal(
        mask.active_count))
    ref = _reference_laplacian(mask, full)
    assert np.max(np.abs(mask.laplacian_full(full) - ref)) \
        <= 1e-12 * scale * max(1.0, np.max(np.abs(full)))
    if not mask.dirichlet.any():
        assert np.all(L @ np.ones(mask.active_count) == 0.0)
    assert mask.stencil_row_max() == pytest.approx(
        float(np.max(-L.diagonal())) * mask.grid.h ** 2, rel=1e-12)


def test_gradient_exact_on_linear_fields():
    mask = full_mask(_grid(17, 2))
    u = Field.from_function(mask, lambda x: 3.0 * x[:, 0] - 2.0 * x[:, 1])
    g = gradient(u)
    assert g.shape == (mask.active_count, 2)
    assert np.max(np.abs(g[:, 0] - 3.0)) <= TOL_MACHINE
    assert np.max(np.abs(g[:, 1] + 2.0)) <= TOL_MACHINE


# ---------------------------------------------------------------------------
# explicit-Euler step size


def test_stable_dt_matches_interior_stencil():
    mask = full_mask(_grid(33, 2))
    assert stable_dt(mask) == mask.grid.h ** 2 / 4.0
    assert stable_dt(mask, 2.0) == mask.grid.h ** 2 / 8.0
    dir_mask = ball_mask(_grid(33, 2), (0.5, 0.5), 0.3,
                         boundary="dirichlet")
    assert stable_dt(dir_mask) == dir_mask.grid.h ** 2 / 6.0
    with pytest.raises(ParameterError):
        stable_dt(mask, 0.0)


def _step_rule_cases():
    """(name, mask, rate, solve(t_end, dt) -> the dt it stepped at) for
    every explicit solver; each limit is stable_dt(mask, rate)."""
    box = full_mask(_grid(17, 2))
    graph = admissible_graph_domain(
        GridSpec.make((2.0, 2.0), 33, origin=(-1.0, -1.0)), 1.0, 0.0)
    assert graph.stencil_row_max() == 6.0
    w0, u0, v0 = (_random_field(box, seed, 0.1, 1.0) for seed in (1, 2, 3))
    cases = []
    for a0 in (0.5, 1.0, 2.0):
        coeff = RoughCoefficient(
            Field(box, a0 * (1.0 + _random_field(box, 4, 0, 1).values)),
            a0, 2.0)
        cases.append((f"rough a0={a0}", box, 1.0 / a0,
                      lambda t, dt, c=coeff: solve_rough(
                          w0, c, t_end=t, dt=dt, n_frames=3).dt))
    skt = SKTParams(d1=0.1, d2=0.2, sigma=0.5, r_u=1.0, r_v=1.0, d11=1.0,
                    d12=0.5, d21=0.5, d22=1.0)
    v_cap = skt.v_ceiling(float(v0.values.max()))
    rate = max(skt.d1 + 2.0 * skt.sigma * v_cap, skt.d2, 1.0)
    cases.append(("skt", box, rate,
                  lambda t, dt: skt_solve(u0, v0, skt, t, dt=dt,
                                          n_frames=3).dt))
    spec = preset_uum(1, (1,))
    inits = [_random_field(box, 5 + i, 0.1, 1.0) for i in range(spec.m)]
    cases.append(("general", box, max(spec.diffusions),
                  lambda t, dt: general_solve(inits, spec, t, dt=dt,
                                              n_frames=3).dt))
    src = tuple(source_ball_center(1.0, None, 2))
    for name, mask, point in (("kernel box", box, (0.5, 0.5)),
                              ("kernel graph", graph, src)):
        # the first geometric frame is step 2
        cases.append((name, mask, 1.0,
                      lambda t, dt, m=mask, x=point: kernel_evolve(
                          m, x, t, dt=dt, n_frames=3).times[1] / 2))
    return cases


@pytest.mark.parametrize("case", _step_rule_cases(), ids=lambda c: c[0])
def test_every_solver_steps_by_the_one_step_rule(case):
    """Each solver steps at t_end/ceil(t_end/(0.9 stable_dt(mask, rate)))
    by default and refuses a dt 1% above stable_dt(mask, rate)."""
    _, mask, rate, solve = case
    limit = stable_dt(mask, rate)
    t_end = 0.01
    assert solve(t_end, None) == t_end / math.ceil(t_end / (0.9 * limit))
    with pytest.raises(ParameterError, match="stability limit"):
        solve(t_end, 1.01 * limit)


def test_explicit_step_preserves_positivity_at_stable_dt():
    for mask in (full_mask(_grid(17, 2)),
                 ball_mask(_grid(33, 2), (0.5, 0.5), 0.3,
                           boundary="dirichlet")):
        u = _random_field(mask, seed=5, lo=0.0, hi=1.0)
        dt = stable_dt(mask)
        stepped = u.values + dt * (mask.laplacian_matrix() @ u.values)
        assert stepped.min() >= 0.0


# ---------------------------------------------------------------------------
# explicit march


def euler_product_reference(lap, scale, rows, start):
    """``start`` with ``scale[i]`` lap @ rows[i] added into row i, spelled
    out: each entry of lap is scaled once, and each row's products are
    added onto its start value one by one, in CSR order."""
    out = np.array(start, dtype=float)
    counts = np.diff(lap.indptr)
    for s in range(int(counts.max())):
        has = np.flatnonzero(counts > s)
        at = lap.indptr[has] + s
        for i, c in enumerate(scale):
            out[i, has] += (c * lap.data[at]) * rows[i, lap.indices[at]]
    return out


def _shift(c):
    """A march prefill that adds dt c to every row and diffuses a zero row."""
    def prefill(k, t, dt, U, V, top):
        np.add(U, dt * c, out=V)
        return np.zeros((1, U.shape[1]))
    return prefill


def test_march_rejects_dt_above_limit():
    mask = full_mask(_grid(9, 1))
    with pytest.raises(ParameterError, match="stability limit"):
        march(mask, np.ones((1, 9)), _shift(0.0), (1.0,), 1.0, 0.011, 0.01,
              3)


@pytest.mark.parametrize("t_end, dt", [
    (1.0, 0.0), (1.0, -1e-3), (1.0, math.nan), (1.0, math.inf),
    (math.nan, 1e-3), (math.inf, 1e-3)])
def test_march_rejects_a_bad_dt_or_span_before_any_step(t_end, dt):
    mask = full_mask(_grid(9, 1))
    steps = []

    def prefill(k, t, dt, U, V, top):
        steps.append(k)
        return _shift(0.0)(k, t, dt, U, V, top)

    with pytest.raises(ParameterError, match="finite"):
        march(mask, np.ones((1, 9)), prefill, (1.0,), t_end, dt, 0.01, 3)
    assert steps == []


def test_march_rejects_rows_off_the_mask():
    mask = full_mask(_grid(9, 1))
    with pytest.raises(ParameterError, match="expected"):
        march(mask, np.ones((1, 8)), _shift(0.0), (1.0,), 1.0, 0.01, 1.0, 3)
    with pytest.raises(ParameterError, match="expected"):    # j > k
        march(mask, np.ones((1, 9)), _shift(0.0), (1.0, 1.0), 1.0, 0.01,
              1.0, 3)
    with pytest.raises(ParameterError, match="expected"):
        march(mask, np.ones((2, 9)), lambda k, t, dt, U, V, top: U[:, :8],
              (1.0, 1.0), 1.0, 0.01, 1.0, 3)


def test_march_blow_up_guard_names_the_step():
    mask = full_mask(_grid(9, 1))

    def doubling(k, t, dt, U, V, top):
        np.multiply(U, 2.0, out=V)
        return np.zeros((1, 9))

    # the density doubles each step: 2^29 < 1e9 < 2^30
    with pytest.raises(SolverError, match="blow-up at step 30"):
        march(mask, np.ones((1, 9)), doubling, (1.0,), 1.0, 0.01, 1.0, 3,
              clip=1)
    with pytest.raises(SolverError, match="blow-up at step 1"):
        march(mask, np.ones((1, 9)), _shift(np.nan), (1.0,), 1.0, 0.01, 1.0,
              3, clip=1)


def test_march_frame_schedules_snap_to_steps():
    mask = full_mask(_grid(9, 1))
    state = np.stack([np.linspace(0.0, 1.0, 9), np.full(9, 2.0)])
    run = march(mask, state, _shift(1.0), (1.0,), 1.0, 0.01, 1.0, 7)
    assert run.n_steps == 100
    assert run.frames.shape == (2, 7, 9)
    assert np.array_equal(run.steps, np.rint(np.linspace(0, 100, 7)))
    assert np.array_equal(run.times, run.steps * run.dt)
    assert np.array_equal(run.frames[:, 0], state)
    assert np.allclose(run.frames, state[:, None]
                       + run.times[None, :, None], rtol=0, atol=1e-12)
    # times before t0 snap to step 1, past t_end to the last step; frame 0
    # is the initial state even when the schedule omits it
    run = march(mask, state, _shift(1.0), (1.0,), 1.0, 0.01, 1.0,
                lambda dt: [-1.0, 0.5, 0.5, 2.0])
    assert np.array_equal(run.steps, [0, 1, 50, 100])
    assert run.frames.shape == (2, 4, 9)
    assert np.array_equal(run.frames[:, 0], state)


@pytest.mark.parametrize("frames", [0, 1])
def test_march_rejects_fewer_than_two_frames(frames):
    mask = full_mask(_grid(9, 1))
    with pytest.raises(ParameterError, match="at least 2 frames"):
        march(mask, np.ones((1, 9)), _shift(0.0), (1.0,), 1.0, 0.01, 1.0,
              frames)


def _assert_euler_product(mask, start, rows, diffusions):
    """A one-step march whose prefill writes ``start`` and returns ``rows``
    ends at ``start`` plus dt diffusions[i] L rows[i] in row i, bit for bit
    the spelled-out CSR sum; on the diagonal path a start of -0.0 may end
    as a zero of the other sign."""
    def prefill(k, t, dt, U, V, top):
        np.copyto(V, start)
        return rows

    dt = 0.3                         # rounds when folded into L
    run = march(mask, np.zeros_like(start), prefill, diffusions, dt, dt, dt,
                2)
    got, want = run.frames[:, 1], start.copy()
    j = len(diffusions)
    want[:j] = euler_product_reference(
        mask.laplacian_matrix(), dt * np.asarray(diffusions), rows, start[:j])
    assert np.array_equal(got, want)
    signed = np.ones(start.shape, dtype=bool)
    if mask.laplacian_diagonals() is not None:
        signed = (start != 0) | ~np.signbit(start)
    assert np.array_equal(np.signbit(got)[signed], np.signbit(want)[signed])


@st.composite
def box_rows(draw):
    """An all-active box in 1..4 dimensions, j = 1..5 rows to diffuse with
    their diffusions, and a start block of j or j + 1 rows, all finite,
    with exact zeros of both signs and negatives among the values."""
    shape = tuple(draw(st.lists(st.integers(2, 9), min_size=1, max_size=4)))
    h = draw(st.sampled_from([0.125, 0.3, 1.0]))
    mask = full_mask(GridSpec.make(tuple((n - 1) * h for n in shape), shape))
    j = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.uniform(-1e3, 1e3, (2 * j + 1, mask.active_count))
    kind = rng.integers(0, 4, values.shape)
    values[kind == 0] = 0.0
    values[kind == 1] = -0.0
    start = values[:j + draw(st.integers(0, 1))].copy()
    return mask, start, values[j + 1:].copy(), rng.uniform(0.1, 3.0, j)


@settings(max_examples=80, deadline=None)
@given(box_rows())
def test_march_box_product_equals_csr_rows_bit_for_bit(case):
    mask, start, rows, diffusions = case
    assert mask.laplacian_diagonals() is not None      # the diagonal path
    _assert_euler_product(mask, start, rows, diffusions)


def test_march_product_on_masks_with_inactive_nodes_stays_csr():
    grid = GridSpec.make((2.0, 2.0), 25, origin=(-1.0, -1.0))
    rng = np.random.default_rng(3)
    for mask in (ball_mask(grid, (0.0, 0.0), 0.8, boundary="dirichlet"),
                 graph_domain_mask(grid, 0.9, lambda x: 0.02 * x[:, 0])):
        assert mask.laplacian_diagonals() is None
        rows = rng.standard_normal((3, mask.active_count))
        rows[:, ::4] = 0.0
        start = rng.standard_normal((4, mask.active_count))
        start[:, ::3] = -0.0
        _assert_euler_product(mask, start, rows, (1.0, 0.5, 2.0))


def test_march_diffuses_the_returned_rows_and_reports_step_start_maxima():
    for mask in (full_mask(_grid(17, 1)),
                 ball_mask(_grid(17, 2), (0.5, 0.5), 0.4,
                           boundary="dirichlet")):
        lap = mask.laplacian_matrix()
        x = mask.node_coords()[:, 0]
        state = np.stack([1.0 + np.cos(np.pi * x), 2.0 + x,
                          np.zeros(mask.active_count)])
        rows = np.empty((2, mask.active_count))
        seen = []

        def prefill(k, t, dt, U, V, top):
            assert np.array_equal(top, U[:2].max(axis=1))
            seen.append(top.copy())
            np.copyto(V, U)
            np.multiply(U[0], U[1], out=rows[0])
            rows[1] = U[1]
            return rows

        def finish(k, t, dt, U, V):
            # one product over the block equals the row-by-row sums
            assert np.array_equal(V[:2], euler_product_reference(
                lap, [dt, 2.0 * dt], rows, U[:2]))
            V[2] = V[0] - U[0]
            V[:2] = U[:2]

        run = march(mask, state, prefill, (1.0, 2.0), 0.01, None, 1e-3, 3,
                    finish=finish, clip=2)
        assert len(seen) == run.n_steps
        assert np.array_equal(seen[0], state[:2].max(axis=1))


@pytest.mark.parametrize("pick", [np.s_[::2], np.s_[::-1]])
def test_march_diffuses_a_non_contiguous_view_exactly(pick):
    mask = full_mask(_grid(17, 1))
    lap = mask.laplacian_matrix()
    x = mask.node_coords()[:, 0]
    state = np.stack([1.0 + np.cos(np.pi * x), 2.0 + x, x * x])
    j = state[pick].shape[0]
    blocks = []

    def prefill(k, t, dt, U, V, top):
        assert not U[pick].flags.c_contiguous
        blocks.append((U, V))
        np.multiply(U, -1.0, out=V)
        return U[pick]

    def finish(k, t, dt, U, V):
        assert np.array_equal(V[:j], euler_product_reference(
            lap, [dt] * j, U[pick], -U[:j]))

    run = march(mask, state, prefill, (1.0,) * j, 0.01, None, 1e-3, 3,
                finish=finish)
    assert len(blocks) == run.n_steps
    one, other = blocks[0]                # two blocks, swapped every step
    assert all(U is (one, other)[k % 2] and V is (other, one)[k % 2]
               for k, (U, V) in enumerate(blocks))


@pytest.mark.parametrize("rows", [1, 2])
def test_march_clipped_mass_gate(rows):
    mask = full_mask(_grid(9, 1))
    hd = mask.grid.h
    state = np.ones((rows + 1, 9))

    def dip(depth):
        # the last clipped row loses ``depth`` at node 0 on step 1; the
        # unclipped row behind it may go negative freely
        def prefill(k, t, dt, U, V, top):
            np.copyto(V, U)
            V[-1] -= 5.0
            if k == 1:
                V[rows - 1, 0] -= 1.0 + depth
            return np.zeros((1, 9))
        return prefill

    run = march(mask, state, dip(1e-9), (1.0,), 1.0, 0.25, 1.0, 2,
                clip=rows)
    assert run.clipped == pytest.approx(1e-9 * hd, rel=1e-6)
    assert run.frames[rows - 1, -1, 0] == 0.0
    assert run.frames[-1, -1, 0] < 0.0
    with pytest.raises(SolverError, match="clipped mass"):
        march(mask, state, dip(1.0), (1.0,), 1.0, 0.25, 1.0, 2, clip=rows)


# ---------------------------------------------------------------------------
# Poisson solver


def test_poisson_zero_rhs():
    mask = full_mask(_grid(17, 2))
    sol = poisson_neumann(Field.constant(mask, 0.0))
    assert np.max(np.abs(sol.values)) == 0.0


def test_poisson_cosine_mode_convergence():
    # odd node counts make the node mean of cos(pi x) exactly zero; the
    # flux-form boundary row carries a half-cell defect, so the sup error
    # against the continuum mode is first order (interior stencil exactness
    # is covered separately above)
    errs = []
    for n in (33, 65):
        mask = full_mask(_grid(n, 1))
        rhs = Field.from_function(
            mask, lambda x: -np.pi ** 2 * np.cos(np.pi * x[:, 0]))
        sol = poisson_neumann(rhs)
        target = Field.from_function(
            mask, lambda x: np.cos(np.pi * x[:, 0])).values
        errs.append(np.max(np.abs(sol.values - (target - target.mean()))))
    assert 1.7 <= errs[0] / errs[1] <= 2.6   # O(h)
    assert errs[1] <= 0.05


def test_poisson_round_trip():
    mask = ball_mask(_grid(33, 2), (0.5, 0.5), 0.34)
    raw = _random_field(mask, seed=11).values
    rhs = Field(mask, raw - raw.mean())
    sol = poisson_neumann(rhs)
    assert abs(np.mean(sol.values)) <= TOL_MACHINE
    resid = mask.laplacian_matrix() @ sol.values - rhs.values
    assert np.max(np.abs(resid)) <= TOL_SOLVER * np.max(np.abs(rhs.values))


def test_poisson_rejects_nonzero_mean():
    mask = full_mask(_grid(9, 1))
    with pytest.raises(ParameterError):
        poisson_neumann(Field.constant(mask, 1.0))


# ---------------------------------------------------------------------------
# masks


def test_ball_mask_measure():
    grid = _grid(65, 2)
    mask = ball_mask(grid, (0.5, 0.5), 0.35)
    area = mask.active_count * grid.h ** 2
    lo = np.pi * (0.35 - 2 * grid.h) ** 2
    hi = np.pi * (0.35 + 2 * grid.h) ** 2
    assert lo <= area <= hi


def test_graph_domain_mask_geometry():
    grid = GridSpec.make((1.0, 1.0), 49, origin=(-0.5, -0.5))
    mask = graph_domain_mask(grid, 0.4, 0.0)
    pts = mask.node_coords()
    r = np.hypot(pts[:, 0], pts[:, 1])
    assert np.all(r < 0.4 + TOL_MACHINE)
    assert np.all(pts[:, 1] > 0.0)
    # roughly half the full ball
    full_ball = ball_mask(grid, (0.0, 0.0), 0.4)
    assert 0.35 <= mask.active_count / full_ball.active_count <= 0.55


def _unit_grid(shape):
    return GridSpec.make(tuple(float(n - 1) for n in shape), shape)


def test_disconnected_masks_raise_with_their_component_count():
    two_corners = np.zeros((3, 3, 3), dtype=bool)
    two_corners[0, 0, 0] = two_corners[1, 1, 1] = True
    edge_touch = np.zeros((2, 3, 3), dtype=bool)
    edge_touch[0, 0, 0] = edge_touch[0, 1, 1] = True
    cases = [
        (np.array([1, 0, 1, 1, 0, 1], dtype=bool), 3),
        (np.array([[1, 0], [0, 1]], dtype=bool), 2),    # diagonal contact
        (np.eye(4, dtype=bool), 4),
        (two_corners, 2),
        (edge_touch, 2),
    ]
    for active, ncomp in cases:
        with pytest.raises(GeometryError,
                           match=f"^active set must be edge-connected, "
                                 f"found {ncomp} components$"):
            DomainMask(_unit_grid(active.shape), active)

    ell = np.zeros((4, 4), dtype=bool)
    ell[:, 0] = ell[-1, :] = True
    assert DomainMask(_unit_grid(ell.shape), ell).active_count == 7


@st.composite
def box_patterns(draw):
    """A random boolean pattern on a 1-D to 4-D box, any density."""
    shape = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=4)))
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.random(shape) < density


@settings(max_examples=150, deadline=None)
@given(box_patterns())
@example(np.ones((3, 4), dtype=bool))
@example(np.array([[[[True, False], [False, False]]] * 2] * 2))
def test_mask_connectivity_matches_face_labelling(active):
    assume(active.any())
    ncomp = ndimage.label(active)[1]
    grid = _unit_grid(active.shape)
    if ncomp == 1:
        assert DomainMask(grid, active).active_count == active.sum()
    else:
        with pytest.raises(GeometryError, match=f"found {ncomp} components$"):
            DomainMask(grid, active)


def test_node_lookup():
    mask = full_mask(_grid(17, 2))
    ij = mask.nearest_node((0.26, 0.74))
    h = mask.grid.h
    assert np.allclose((ij[0] * h, ij[1] * h), (0.25, 0.75), atol=1e-12)

    ball = mask.ball_nodes((0.5, 0.5), 0.25)
    pts = mask.node_coords()
    manual = np.hypot(pts[:, 0] - 0.5, pts[:, 1] - 0.5) <= 0.25
    assert np.array_equal(ball, manual)


# ---------------------------------------------------------------------------
# trajectories


def _ramp_trajectory(n=17, frames=9):
    mask = full_mask(_grid(n, 1))
    times = 0.1 * np.arange(frames)
    x = mask.node_coords()[:, 0]
    vals = np.array([t + x for t in times])
    return Trajectory(mask, times, vals)


def test_trajectory_accessors():
    traj = _ramp_trajectory()
    assert traj.n_frames == 9
    assert np.diff(traj.times) == pytest.approx(0.1)
    assert traj.t0 == 0.0
    f = Field(traj.mask, traj.values[3])
    assert f.values[0] == pytest.approx(0.3)


def test_trajectory_rejects_unordered_or_nonfinite_times():
    mask = full_mask(_grid(9, 1))
    vals = np.ones((3, 9))
    for times in ([0.0, 0.2, 0.1], [0.0, 0.1, 0.1], [0.0, np.nan, 0.2],
                  [0.0, 0.1, np.inf]):
        with pytest.raises(ParameterError, match="strictly increasing"):
            Trajectory(mask, times, vals)
    assert Trajectory(mask, [0.5], vals[:1]).n_frames == 1


def test_trajectory_window_half_open():
    traj = _ramp_trajectory()
    idx = traj.window(0.2, 0.5)
    assert np.allclose(traj.times[idx], [0.3, 0.4, 0.5], atol=1e-12)
    assert traj.window(1.0, 2.0).size == 0


# ---------------------------------------------------------------------------
# Lebesgue norms


def test_lp_norm_constant_closed_form():
    mask = full_mask(_grid(17, 2))
    f = Field.constant(mask, -3.0)
    hd = mask.grid.h ** 2
    for p in (1.0, 2.0, 3.5):
        expected = 3.0 * (hd * mask.active_count) ** (1.0 / p)
        assert lp_norm(f, p) == pytest.approx(expected, rel=1e-14)
    assert lp_norm(f, float("inf")) == 3.0
    with pytest.raises(ParameterError):
        lp_norm(f, 0.5)


def test_lp_norm_holder_inequality():
    mask = full_mask(_grid(17, 2))
    rng = np.random.default_rng(2)
    for p in (1.5, 2.0, 4.0):
        q = p / (p - 1.0)
        f = Field(mask, rng.standard_normal(mask.active_count))
        g = Field(mask, rng.standard_normal(mask.active_count))
        prod = Field(mask, f.values * g.values)
        assert lp_norm(prod, 1.0) <= lp_norm(f, p) * lp_norm(g, q) \
            * (1 + TOL_MACHINE)


def test_lpq_norm_constant_and_window():
    traj = _ramp_trajectory()
    flat = Trajectory(traj.mask, traj.times,
                      np.full_like(traj.values, 2.0))
    hd = traj.grid.h
    n = traj.mask.active_count
    expected = 2.0 * (hd * n) ** 0.5 * (0.1 * traj.n_frames) ** 0.5
    assert lpq_norm(flat, 2.0, 2.0) == pytest.approx(expected, rel=1e-13)
    assert lpq_norm(flat, float("inf"), float("inf")) == 2.0
    # restricting the window drops frames
    assert lpq_norm(flat, 2.0, 2.0, t_lo=0.35, t_hi=0.8) < \
        lpq_norm(flat, 2.0, 2.0)
    with pytest.raises(DomainError):
        lpq_norm(flat, 2.0, 2.0, t_lo=5.0, t_hi=6.0)


def test_lpq_norm_weights_unequal_frame_gaps():
    """Each frame weighs its gap to the next one (the last frame its previous
    gap), so a constant-mass trajectory integrates to mass * sum of gaps."""
    mask = full_mask(_grid(17, 1))
    times = np.array([0.0, 0.1, 0.3, 0.35, 0.6])
    traj = Trajectory(mask, times, np.full((5, mask.active_count), 2.0))
    weights = [0.1, 0.2, 0.05, 0.25, 0.25]
    np.testing.assert_allclose(traj.frame_weights(), weights, rtol=1e-13)
    mass = 2.0 * mask.grid.h * mask.active_count
    assert lpq_norm(traj, 1.0, 1.0) == pytest.approx(mass * sum(weights),
                                                     rel=1e-13)


def test_lebesgue_norms_over_a_node_subset():
    """A boolean node subset norms only its nodes, in lp_norm and frame by
    frame in lpq_norm; over no nodes the max norm is 0."""
    inf = float("inf")
    mask = full_mask(_grid(17, 2))
    n = mask.active_count
    rng = np.random.default_rng(5)
    nodes = rng.random(n) < 0.4
    f = Field(mask, rng.standard_normal(n))
    hd = mask.grid.h ** 2
    for p in (1.0, 2.5):
        assert lp_norm(f, p, nodes) == \
            (hd * np.sum(np.abs(f.values[nodes]) ** p)) ** (1.0 / p)
    assert lp_norm(f, inf, nodes) == np.max(np.abs(f.values[nodes]))
    assert lp_norm(f, inf, np.zeros(n, dtype=bool)) == 0.0
    traj = Trajectory(mask, 0.1 * np.arange(6), rng.standard_normal((6, n)))
    per_frame = [lp_norm(Field(mask, v), 3.0, nodes) for v in traj.values]
    want = math.sqrt(sum(0.1 * v ** 2 for v in per_frame))
    assert lpq_norm(traj, 2.0, 3.0, nodes=nodes) == \
        pytest.approx(want, rel=1e-13)
    assert lpq_norm(traj, inf, inf, t_lo=0.15, t_hi=0.45, nodes=nodes) == \
        np.max(np.abs(traj.values[2:5][:, nodes]))


def test_exponents_are_checked_under_the_callers_names():
    """lp_norm names its exponent p; lpq_norm names p and q apart."""
    mask = full_mask(_grid(9, 1))
    f = Field(mask, np.ones(mask.active_count))
    traj = Trajectory(mask, np.array([0.0, 1.0]),
                      np.ones((2, mask.active_count)))
    with pytest.raises(ParameterError, match="^p must"):
        lp_norm(f, 0.5)
    with pytest.raises(ParameterError, match="^p must"):
        lpq_norm(traj, 0.5, 2.0)
    with pytest.raises(ParameterError, match="^q must"):
        lpq_norm(traj, 2.0, 0.5)


def test_a_repeated_frame_is_normed_to_the_bits_of_stored_frames():
    """Frames that repeat one field with time stride 0 (as a time-constant
    forcing is sampled) are normed to the bits the same frames give when
    stored in full."""
    inf = float("inf")
    mask = full_mask(_grid(17, 2))
    n = mask.active_count
    rng = np.random.default_rng(6)
    row = rng.standard_normal(n)
    nodes = rng.random(n) < 0.5
    times = np.array([0.0, 0.1, 0.3, 0.35, 0.6])
    view = Trajectory(mask, times, np.broadcast_to(row, (5, n)))
    assert view.values.strides[0] == 0
    stored = Trajectory(mask, times, np.tile(row, (5, 1)))
    for p, q in ((2.0, 4.0), (1.0, 3.0), (inf, 2.5), (3.0, inf)):
        for sub in (None, nodes):
            assert lpq_norm(view, p, q, nodes=sub) == \
                lpq_norm(stored, p, q, nodes=sub)
        assert lpq_norm(view, p, q, 0.05, 0.4) == \
            lpq_norm(stored, p, q, 0.05, 0.4)


# ---------------------------------------------------------------------------
# oscillation


def test_oscillation_constant_and_linear():
    traj = _ramp_trajectory(n=33, frames=5)
    flat = Trajectory(traj.mask, traj.times, np.ones_like(traj.values))
    ball = traj.mask.ball_nodes((0.4,), 0.2)
    assert oscillation(flat, traj.window(0.4 - 0.2 ** 2, 0.4), ball) == 0.0

    # w = t + x over (0.35, 0.4] x B(0.4, 0.2): one time frame's worth of
    # slack
    lin = Trajectory(traj.mask, traj.times, traj.values)
    h = traj.grid.h
    assert oscillation(lin, traj.window(0.35, 0.4), ball) == \
        pytest.approx(0.4, abs=h)


def test_oscillation_matches_brute_force():
    rng = np.random.default_rng(9)
    mask = full_mask(_grid(17, 2))
    times = 0.05 * np.arange(9)
    vals = rng.standard_normal((9, mask.active_count))
    traj = Trajectory(mask, times, vals)
    t0, window = 0.31, 1.3 * 0.24 ** 2
    pts = mask.node_coords()
    inside = np.hypot(pts[:, 0] - 0.45, pts[:, 1] - 0.55) <= 0.24
    t_in = (times > t0 - window + 1e-12) & (times <= t0 + 1e-12)
    block = vals[np.ix_(t_in, inside)]
    assert oscillation(traj, traj.window(t0 - window, t0),
                       mask.ball_nodes((0.45, 0.55), 0.24)) == \
        pytest.approx(block.max() - block.min(), abs=0)


def test_oscillation_empty_cylinder_raises():
    traj = _ramp_trajectory()
    with pytest.raises(DomainError, match="no frames"):
        oscillation(traj, traj.window(-1.04, -1.0),
                    traj.mask.ball_nodes((0.5,), 0.2))
    with pytest.raises(DomainError, match="no active nodes"):
        oscillation(traj, traj.window(0.4 - 1e-4, 0.4),
                    traj.mask.ball_nodes((9.0,), 0.01))


# ---------------------------------------------------------------------------
# parabolic Hoelder norm


def test_holder_norm_constant():
    traj = _ramp_trajectory()
    flat = Trajectory(traj.mask, traj.times,
                      np.full_like(traj.values, 3.0))
    assert holder_norm(flat, 0.5) == pytest.approx(3.0, abs=TOL_MACHINE)


def test_holder_norm_linear_profile():
    mask = full_mask(_grid(33, 1))
    u = Field.from_function(mask, lambda x: x[:, 0])
    # sup = 1 and the alpha = 1 quotient is the slope
    assert holder_norm_field(u, 1.0) == pytest.approx(2.0, abs=1e-12)
    assert lipschitz_norm(u) == holder_norm_field(u, 1.0)


def test_holder_norm_time_jump():
    mask = full_mask(_grid(9, 1))
    times = np.array([0.0, 0.25])
    vals = np.vstack([np.zeros(9), np.ones(9)])
    traj = Trajectory(mask, times, vals)
    alpha = 0.6
    expected = 1.0 + 1.0 / 0.25 ** (alpha / 2.0)
    assert holder_norm(traj, alpha) == pytest.approx(expected, rel=1e-12)
    # unequal frame gaps: the jump sits across the long last gap, so the
    # quotient divides by (1 - 0.01)^(alpha/2), not by the first gap
    mask = full_mask(_grid(501, 1))
    times = np.array([0.0, 0.01, 1.0])
    vals = np.vstack([np.zeros(501), np.zeros(501), np.ones(501)])
    traj = Trajectory(mask, times, vals)
    X, W, T = _space_time_points(traj)
    got = holder_norm(traj, 0.5)
    assert got == 1.0 + _brute_quotient_max(X, W, 0.5, T)
    assert got == pytest.approx(1.0 + 1.0 / 0.99 ** 0.25, rel=1e-12)


def test_holder_norm_field_over_a_node_subset():
    """sup |w| plus the exact pair quotient over the subset's nodes only;
    alpha = 0 is the sup norm."""
    mask = full_mask(_grid(17, 2))
    rng = np.random.default_rng(7)
    f = Field(mask, rng.standard_normal(mask.active_count))
    nodes = rng.random(mask.active_count) < 0.3
    X, W = mask.node_coords()[nodes], f.values[nodes]
    sup = float(np.max(np.abs(W)))
    assert holder_norm_field(f, 0.0, nodes) == sup
    assert holder_norm_field(f, 0.0) == float(np.max(np.abs(f.values)))
    assert holder_norm_field(f, 0.4, nodes) == \
        sup + _brute_quotient_max(X, W, 0.4)
    for alpha in (-0.1, 1.5):
        with pytest.raises(ParameterError):
            holder_norm_field(f, alpha)


def _space_time_points(traj):
    """Coordinates, values and times of every space-time node."""
    n_frames, n_nodes = traj.values.shape
    return (np.tile(traj.mask.node_coords(), (n_frames, 1)),
            traj.values.reshape(-1), np.repeat(traj.times, n_nodes))


def test_holder_norm_is_exact_over_all_pairs():
    rng = np.random.default_rng(4)
    mask = full_mask(_grid(17, 2))
    times = 0.02 * np.arange(5)
    base = mask.node_coords()
    smooth = np.array([np.sin(4 * base[:, 0] + t) * np.cos(3 * base[:, 1])
                       for t in times])
    traj = Trajectory(mask, times, smooth + 0.01 * rng.standard_normal(
        (5, mask.active_count)))
    sup = float(np.max(np.abs(traj.values)))
    X, W, T = _space_time_points(traj)
    assert holder_norm(traj, 0.4) == sup + _brute_quotient_max(X, W, 0.4, T)


def test_holder_norm_coarsening_monotone():
    # the coarse nodes/frames are a subset (nested grids, nested times), so
    # the exhaustively evaluated quotient sup can only shrink
    def build(n, frames):
        mask = full_mask(_grid(n, 2))
        times = np.linspace(0.0, 0.2, frames)
        pts = mask.node_coords()
        vals = np.array([np.sin(5 * pts[:, 0]) * np.exp(-t) + pts[:, 1] ** 2
                         for t in times])
        return Trajectory(mask, times, vals)

    fine = holder_norm(build(25, 5), 0.5)
    coarse = holder_norm(build(13, 3), 0.5)
    assert coarse <= fine * (1 + 1e-12)
    assert fine <= 1.2 * coarse


def _brute_quotient_max(X, W, alpha, T=None):
    """Every pair i < j with the arithmetic of the library: squared distance
    summed axis by axis, sqrt, the power, then the guarded division."""
    i, j = np.triu_indices(W.size, 1)
    d2 = np.zeros(i.size)
    for ax in range(X.shape[1]):
        diff = X[i, ax] - X[j, ax]
        d2 += diff * diff
    dist = np.sqrt(d2) ** alpha
    if T is not None:
        dist = np.abs(T[i] - T[j]) ** (alpha / 2.0) + dist
    dw = np.abs(W[i] - W[j])
    q = np.divide(dw, dist, out=np.zeros_like(dw), where=dist > 1e-300)
    return float(q.max()) if q.size else 0.0


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(1, 3), n=st.integers(0, 200),
       alpha=st.floats(0.0, 1.0, exclude_min=True), timed=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(dim=2, n=0, alpha=0.5, timed=False, seed=0)
@example(dim=2, n=1, alpha=0.5, timed=True, seed=0)
@example(dim=2, n=2, alpha=1.0, timed=False, seed=0)
@example(dim=3, n=2, alpha=0.3, timed=True, seed=1)
@example(dim=3, n=8, alpha=0.3, timed=False, seed=2)
@example(dim=2, n=9, alpha=0.7, timed=True, seed=3)
@example(dim=1, n=16, alpha=0.5, timed=False, seed=4)
@example(dim=3, n=17, alpha=0.3, timed=True, seed=5)
@example(dim=2, n=33, alpha=1.0, timed=False, seed=6)
def test_pair_quotient_max_matches_brute_force(dim, n, alpha, timed, seed):
    """Random subsets of a 6^dim grid (tied coordinates, duplicate points,
    tied values and times): the branch-and-bound maximum is the brute-force
    maximum, bit for bit."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 6, size=(n, dim)) / 7.0
    W = np.round(rng.standard_normal(n), 1)
    T = rng.integers(0, 4, size=n) * 0.01 if timed else None
    assert pair_quotient_max(X, W, alpha, T) == \
        _brute_quotient_max(X, W, alpha, T)


def test_pair_quotient_max_reuses_trees_exactly():
    """Trees are kept per point set: the same X with a new W, two different
    X of one shape in turn, and more point sets than the memo keeps (so it
    evicts and rebuilds) all give the brute-force maximum, bit for bit."""
    rng = np.random.default_rng(11)
    grid_pts = np.stack(np.meshgrid(*[np.arange(6) / 5.0] * 3,
                                    indexing="ij"), -1).reshape(-1, 3)
    sets = [grid_pts[rng.choice(216, 120, replace=False)]
            for _ in range(norms._TREES_KEPT + 3)]
    twin = sets[0].copy()           # same first half, second reversed
    twin[60:] = twin[:59:-1]
    for X in sets[:1] + [twin] + sets + sets[:3]:
        for _ in range(2):                  # same X, a different W
            W = np.round(rng.standard_normal(X.shape[0]), 1)
            T = rng.integers(0, 3, X.shape[0]) * 0.01
            for alpha, times in ((0.3, None), (0.8, T)):
                assert pair_quotient_max(X, W, alpha, times) == \
                    _brute_quotient_max(X, W, alpha, times)
    assert len(norms._TREES) <= norms._TREES_KEPT


@pytest.mark.parametrize("dim, n, timed, seed", [
    (1, 300, False, 0), (2, 250, True, 1), (3, 400, False, 2),
    (3, 300, True, 3), (2, 120, False, 4)])
def test_block_tree_invariants(dim, n, timed, seed):
    """Children partition their parent's span, leaves hold at most _LEAF
    points or coincident ones, boxes are the points' ranges, and each split
    separates the widest axis at the distinct-value boundary nearest the
    median."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 7, size=(n, dim)) / 6.0
    T = rng.integers(0, 5, size=n) * 0.01 if timed else None
    tree = norms._BlockTree(X, T)
    keys = X if T is None else np.column_stack([X, T])
    assert np.array_equal(np.sort(tree.perm), np.arange(n))
    assert np.array_equal(tree.X, X[tree.perm])
    assert (tree.start[0], tree.stop[0]) == (0, n)
    for k in range(tree.start.size):
        pts = keys[tree.perm[tree.start[k]:tree.stop[k]]]
        assert np.array_equal(tree.lo[k], pts[:, :dim].min(axis=0))
        assert np.array_equal(tree.hi[k], pts[:, :dim].max(axis=0))
        widths = pts.max(axis=0) - pts.min(axis=0)
        c = tree.child[k]
        if c < 0:
            assert pts.shape[0] <= norms._LEAF or not widths.any()
            continue
        assert pts.shape[0] > norms._LEAF and widths.any()
        assert tree.start[c] == tree.start[k]
        assert tree.stop[c] == tree.start[c + 1]
        assert tree.stop[c + 1] == tree.stop[k]
        if timed:
            widths[-1] = np.sqrt(widths[-1])
        key = pts[:, int(np.argmax(widths))]
        m, cut = key.size, tree.size[c]
        assert key[:cut].max() < key[cut:].min()
        s = np.sort(key)
        bounds = np.flatnonzero(s[1:] > s[:-1]) + 1
        assert abs(2 * cut - m) == np.abs(2 * bounds - m).min()


def test_holder_norm_validation():
    traj = _ramp_trajectory()
    with pytest.raises(ParameterError):
        holder_norm(traj, 0.0)
    with pytest.raises(ParameterError):
        holder_norm(traj, 1.5)
