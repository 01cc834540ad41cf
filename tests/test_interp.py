"""Tests for the cut-ball estimate, the gradient-mass covering, and the
one-sided interpolation inequality."""

import math

import numpy as np
import pytest

from difflab import (
    Field,
    GeometryError,
    GridSpec,
    ParameterError,
    PreconditionError,
    RunReport,
    build_covering,
    covering_radii,
    cut_ball_check,
    default_overlap_cap,
    full_mask,
    gradient,
    graph_domain_mask,
    interpolation_check,
    interpolation_theta,
    random_admissible_pair,
)

from difflab import interp
from difflab.interp import _dist2

TOL_MACHINE = 1e-12


def unit_square(n):
    return full_mask(GridSpec.make((1.0, 1.0), n))


def interior_domain(mask, lo=0.15, hi=0.85):
    coords = mask.node_coords()
    return np.all((coords > lo) & (coords < hi), axis=1)


# ---------------------------------------------------------------------------
# cut-ball estimate


def test_cut_ball_constant_u_slopes_and_modes():
    """u = 1 with the paraboloid w: the L^q mass of a ball grows like
    R^(d/q), and the fitted constant gates verification reruns."""
    mask = unit_square(65)
    coords = mask.node_coords()
    u = Field.constant(mask, 1.0)
    w = Field(mask, ((coords - 0.5) ** 2).sum(axis=1) / 4.0)
    domain = interior_domain(mask, 0.12, 0.88)
    rep = cut_ball_check(u, w, (0.5, 0.5), (0.1, 0.2, 0.35), p=2, q=3,
                         domain=domain)
    assert rep.passed
    assert abs(rep.details["slopes"]["lhs"] - 2.0 / 3.0) <= 0.1
    assert rep.params["mode"] == "calibration"
    assert rep.details["w_exponent"] == -2.0 + 2.0 / 3.0
    c_fit = rep.params["C"]
    ver = cut_ball_check(u, w, (0.5, 0.5), (0.1, 0.2, 0.35), p=2, q=3,
                         domain=domain, C=1.2 * c_fit)
    assert ver.passed and ver.params["mode"] == "verification"
    assert not cut_ball_check(u, w, (0.5, 0.5), (0.1, 0.2, 0.35), p=2, q=3,
                              domain=domain, C=0.5 * c_fit).passed


def test_cut_ball_zero_u_passes_any_constant():
    mask = unit_square(33)
    coords = mask.node_coords()
    w = Field(mask, ((coords - 0.5) ** 2).sum(axis=1) / 4.0)
    rep = cut_ball_check(Field.constant(mask, 0.0), w, (0.5, 0.5),
                         (0.1, 0.2), p=2, q=3,
                         domain=interior_domain(mask), C=1e-6)
    assert rep.passed
    assert rep.lhs == 0.0


def test_cut_ball_zero_cores():
    """u = w = 0 holds with any constant: calibration fits C = 0 and
    passes.  A zero core under a positive lhs (u = 1 with w = 0, lap w
    given as 1) holds with none: its ratio is infinite and the row fails
    in both modes."""
    mask = unit_square(17)
    zero = Field.constant(mask, 0.0)
    rep = cut_ball_check(zero, zero, (0.5, 0.5), 0.3, p=2, q=4)
    assert rep.passed and rep.lhs == rep.params["C"] == 0.0
    one = Field.constant(mask, 1.0)
    lap_w = np.ones(mask.active_count)
    for C in (None, 1e6):
        rep = cut_ball_check(one, zero, (0.5, 0.5), 0.3, p=2, q=4, C=C,
                             lap_w=lap_w)
        assert rep.lhs == math.inf and not rep.passed


def test_cut_ball_exponential_ladder():
    """A strictly convex w with u = lap w / 2 sits safely inside the
    one-sided cone on every rung of the radius ladder."""
    mask = unit_square(65)
    coords = mask.node_coords()
    w = Field(mask, np.exp(((coords - 0.5) ** 2).sum(axis=1) / 4.0))
    lap_w = mask.gather(mask.laplacian_full(mask.scatter(w.values)))
    domain = interior_domain(mask, 0.12, 0.88)
    u = Field(mask, np.where(domain, 0.5 * np.maximum(lap_w, 0.0), 0.0))
    rep = cut_ball_check(u, w, (0.5, 0.5), (0.1, 0.2, 0.35), p=2, q=3,
                         alpha=0.3, domain=domain)
    assert rep.passed
    assert rep.params["C"] > 0
    assert len(rep.details["ladder"]) == 3
    radii = [row["R"] for row in rep.details["ladder"]]
    assert radii == sorted(radii)


def test_cut_ball_rejects_inadmissible_pairs():
    mask = unit_square(33)
    u = Field.constant(mask, 1.0)
    w = Field.constant(mask, 0.0)       # lap w = 0 < u
    with pytest.raises(PreconditionError):
        cut_ball_check(u, w, (0.5, 0.5), 0.2, p=2, q=3)


def test_cut_ball_validation():
    mask = unit_square(33)
    coords = mask.node_coords()
    u = Field.constant(mask, 0.0)
    w = Field(mask, ((coords - 0.5) ** 2).sum(axis=1))
    domain = interior_domain(mask)
    with pytest.raises(ParameterError):
        cut_ball_check(u, w, (0.5, 0.5), 0.2, p=0.5, q=3, domain=domain)
    with pytest.raises(ParameterError):
        cut_ball_check(u, w, (0.5, 0.5), 0.2, p=2, q=3, alpha=1.0,
                       domain=domain)
    with pytest.raises(ParameterError):
        cut_ball_check(u, Field.constant(unit_square(33), 1.0),
                       (0.5, 0.5), 0.2, p=2, q=3, domain=domain)
    with pytest.raises(ParameterError):
        # a far-away center captures no domain nodes at the small radius
        cut_ball_check(u, w, (5.0, 5.0), 0.05, p=2, q=3, domain=domain)


# ---------------------------------------------------------------------------
# covering construction


def _brute_first_crossing(u, A, p, alpha, r0, domain=None):
    """Independent O(N^2) scan of the same step function: group nodes by the
    exact integer squared distance and find the first radius where the
    accumulated domain gradient mass reaches A^p R^(-p(3 - alpha - d/p))."""
    mask = u.mask
    if domain is None:
        domain = np.ones(mask.active_count, dtype=bool)
    h = mask.grid.h
    d = mask.grid.dim
    expo = 3.0 - alpha - d / p
    grad = gradient(u)
    gmass = np.where(domain, h ** d * np.sqrt((grad ** 2).sum(axis=1)) ** p,
                     0.0)
    idx = np.argwhere(mask.active)
    steps = int(math.floor(r0 / h * (1 + 1e-12)))
    brute = np.full(mask.active_count, r0)
    for i in np.flatnonzero(domain):
        d2 = ((idx - idx[i]) ** 2).sum(axis=1)
        keep = d2 <= steps * steps
        order = np.argsort(d2[keep], kind="stable")
        d2s, gm = d2[keep][order], gmass[keep][order]
        csum = np.cumsum(gm)
        for dv in np.unique(d2s):
            if dv == 0:
                continue
            r = math.sqrt(dv) * h
            total = csum[np.searchsorted(d2s, dv, side="right") - 1]
            if total >= A ** p * r ** (-p * expo):
                brute[i] = min(r, r0)
                break
    return brute[domain]


def test_covering_radii_match_brute_force_first_crossing():
    mask = unit_square(17)
    rng = np.random.default_rng(5)
    u = Field(mask, 0.2 + rng.random(mask.active_count))
    A, p, alpha, r0 = 0.8, 2.0, 0.3, 0.3
    np.testing.assert_array_equal(covering_radii(u, A, p, alpha, r0),
                                  _brute_first_crossing(u, A, p, alpha, r0))


@pytest.mark.parametrize("case, scale, branch", [
    ("square", 1.01, "all capped"),     # just above the whole-domain bound
    ("square", 0.99, "scan, none crosses"),
    ("square", 0.3, "scan, some cross"),
    ("cube", 0.2, "scan, all cross"),
])
def test_covering_radii_early_out_is_exact(case, scale, branch, monkeypatch):
    """A is ``scale`` times the threshold at which the domain's whole
    gradient mass meets the smallest ladder threshold, A^p (steps h)^(-p e):
    above it every radius is r0 with no ball sum taken (the offsets are
    never built); below it the scan runs.  Every case gives the brute-force
    first crossing, on a 2-D box and on a 3-D box with a cut domain."""
    if case == "square":
        mask, domain = unit_square(17), None
    else:
        mask = full_mask(GridSpec.make((1.0,) * 3, 11))
        domain = interior_domain(mask, 0.1, 0.8)
    rng = np.random.default_rng(5)
    u = Field(mask, 0.2 + rng.random(mask.active_count))
    p, alpha, r0 = 2.0, 0.3, 0.3
    on = (np.ones(mask.active_count, dtype=bool) if domain is None
          else domain)
    h, d = mask.grid.h, mask.grid.dim
    expo = 3.0 - alpha - d / p
    total = float((h ** d * np.sqrt((gradient(u) ** 2).sum(axis=1)) ** p)
                  [on].sum())
    steps = int(math.floor(r0 / h * (1 + 1e-12)))
    A = scale * (total * (steps * h) ** (p * expo)) ** (1 / p)

    calls = []
    sorted_offsets = interp._sorted_offsets
    monkeypatch.setattr(interp, "_sorted_offsets",
                        lambda *a: calls.append(a) or sorted_offsets(*a))
    radii = covering_radii(u, A, p, alpha, r0, domain)
    np.testing.assert_array_equal(
        radii, _brute_first_crossing(u, A, p, alpha, r0, domain))
    assert len(calls) == (0 if branch == "all capped" else 1)
    crossed = radii < r0
    assert {"all capped": not crossed.any(),
            "scan, none crosses": not crossed.any(),
            "scan, some cross": 0 < crossed.sum() < crossed.size,
            "scan, all cross": crossed.all()}[branch]


def test_covering_radii_monotone_in_threshold():
    mask = unit_square(17)
    rng = np.random.default_rng(5)
    u = Field(mask, 0.2 + rng.random(mask.active_count))
    r_small = covering_radii(u, 0.4, 2.0, 0.3, 0.3)
    r_big = covering_radii(u, 0.8, 2.0, 0.3, 0.3)
    assert np.all(r_small <= r_big + TOL_MACHINE)


def test_covering_constant_u_caps_every_radius():
    mask = unit_square(17)
    cover = build_covering(Field.constant(mask, 2.0), 1.0, 2.0, 0.0, 0.25)
    assert np.all(cover.node_radii == 0.25)
    assert cover.capped_fraction == 1.0
    assert cover.covers_all


def test_covering_overlap_stays_under_budget():
    mask = unit_square(33)
    rng = np.random.default_rng(21)
    u = Field(mask, rng.random(mask.active_count))
    cover = build_covering(u, 0.5, 2.0, 0.3, 0.2)
    assert cover.covers_all
    assert cover.max_overlap <= default_overlap_cap(2)
    assert cover.n_balls == cover.centers.size == cover.radii.size
    # greedy invariant: multiplicities count every selected ball
    assert cover.counts.min() >= 1


def test_cover_over_its_overlap_budget_raises(monkeypatch):
    mask = unit_square(33)
    rng = np.random.default_rng(21)
    u = Field(mask, rng.random(mask.active_count))
    assert build_covering(u, 0.5, 2.0, 0.3, 0.2).max_overlap > 1
    monkeypatch.setattr(interp, "_COVERS", interp.RecentCache(1))
    monkeypatch.setattr(interp, "default_overlap_cap", lambda dim: 1)
    with pytest.raises(GeometryError, match="domain node .* times"):
        build_covering(u, 0.5, 2.0, 0.3, 0.2)


def _greedy_cover_all_nodes(u, threshold, p, alpha, r0, domain):
    """The greedy cover by a scan of every domain node, each kept ball
    testing the distance to every domain node."""
    node_radii = covering_radii(u, threshold, p, alpha, r0, domain)
    coords = u.mask.node_coords()[domain]
    n = coords.shape[0]
    covered = np.zeros(n, dtype=bool)
    counts = np.zeros(n, dtype=np.int32)
    centers, radii = [], []
    for i in np.lexsort((np.arange(n), -node_radii)):
        if covered[i]:
            continue
        r = node_radii[i]
        members = ((coords - coords[i]) ** 2).sum(axis=1) \
            <= r * r * (1 + 1e-12)
        covered |= members
        counts += members
        centers.append(i)
        radii.append(r)
    return centers, radii, counts


@pytest.mark.parametrize("case", ["line", "square", "cube", "graph"])
def test_build_covering_matches_all_node_greedy(case):
    """Balls marked from their grid box give the all-node greedy cover:
    the same centers, radii and multiplicities.  The radii are lattice
    distances below a generous cap, so nodes sit exactly on ball
    boundaries."""
    if case == "graph":
        grid = GridSpec.make((1.0, 1.0), 41, origin=(-0.5, -0.5))
        mask = graph_domain_mask(
            grid, 0.45, lambda x: 0.03 * np.sin(6.0 * x[:, 0]))
        domain = None
    else:
        dim, n = {"line": (1, 201), "square": (2, 33), "cube": (3, 15)}[case]
        mask = full_mask(GridSpec.make((1.0,) * dim, n))
        domain = interior_domain(mask, 0.1, 0.8)
    rng = np.random.default_rng(4)
    u = Field(mask, 0.1 + rng.random(mask.active_count))
    p, alpha, r0 = 2.0, 0.3, 0.45
    domain_all = (np.ones(mask.active_count, dtype=bool) if domain is None
                  else domain)
    for threshold in (0.02, 0.05, 0.2):
        cover = build_covering(u, threshold, p, alpha, r0, domain)
        assert np.unique(cover.radii).size > 1
        assert cover.radii.max() < r0
        centers, radii, counts = _greedy_cover_all_nodes(
            u, threshold, p, alpha, r0, domain_all)
        assert cover.centers.tolist() == centers
        assert cover.radii.tolist() == radii
        assert np.array_equal(cover.counts, counts)


def test_cover_reuse_follows_its_inputs_and_stays_read_only():
    """Covers are kept per (mask, domain, node radii): equal node radii on
    another domain of the same size, or on a mask with another spacing,
    give that input's own all-node greedy cover; the kept arrays cannot be
    written, and more inputs than the cache keeps evict the oldest."""
    fine = unit_square(17)
    coarse = full_mask(GridSpec.make((2.0, 2.0), 17))   # same nodes, 2h
    x, y = fine.node_coords().T
    wide = (x > 0.1) & (x < 0.8) & (y > 0.3) & (y < 0.6)
    tall = (y > 0.1) & (y < 0.8) & (x > 0.3) & (x < 0.6)
    p, alpha, r0 = 2.0, 0.3, 0.25
    seen = []
    for mask, domain in ((fine, wide), (fine, tall), (coarse, wide),
                         (fine, wide)):
        u = Field.constant(mask, 1.0)        # no gradient: every R(x) = r0
        cover = build_covering(u, 1.0, p, alpha, r0, domain)
        assert np.all(cover.node_radii == r0)
        centers, radii, counts = _greedy_cover_all_nodes(
            u, 1.0, p, alpha, r0, domain)
        assert cover.centers.tolist() == centers
        assert cover.radii.tolist() == radii
        assert np.array_equal(cover.counts, counts)
        seen.append(centers)
        for kept in (cover.counts, cover.centers, cover.radii):
            with pytest.raises(ValueError):
                kept[0] = 7
    assert seen[1] != seen[0] and seen[2] != seen[0]     # inputs differ

    u = Field.constant(fine, 1.0)
    for k in range(interp._COVERS_KEPT + 3):
        cover = build_covering(u, 1.0, p, alpha, r0 - 0.01 * k, wide)
        assert np.all(cover.node_radii == r0 - 0.01 * k)
    assert len(interp._COVERS) <= interp._COVERS_KEPT


@pytest.mark.parametrize("dim, n", [(1, 65), (2, 33), (3, 17)])
def test_dist2_matches_row_sums(dim, n):
    """Squared distances summed column by column are the bits of the row
    sum over the (n, d) difference array."""
    coords = full_mask(GridSpec.make((1.0,) * dim, n)).node_coords()
    columns = np.ascontiguousarray(coords.T)
    rng = np.random.default_rng(dim)
    for point in rng.uniform(-0.2, 1.2, size=(5, dim)):
        assert np.array_equal(_dist2(columns, point),
                              ((coords - point) ** 2).sum(axis=1))


def test_covering_validation():
    mask = unit_square(17)
    u = Field.constant(mask, 1.0)
    with pytest.raises(ParameterError):
        covering_radii(u, 0.0, 2.0, 0.3, 0.2)
    with pytest.raises(ParameterError):
        covering_radii(u, 1.0, 2.0, 0.3, 0.2 * mask.grid.h)
    with pytest.raises(ParameterError):
        covering_radii(u, 1.0, 0.5, 0.3, 0.2)
    with pytest.raises(ParameterError):
        # 3D with p = 1: the radius exponent 3 - alpha - d/p is negative
        covering_radii(Field.constant(full_mask(GridSpec.make((1.0,) * 3, 9)),
                                      1.0), 1.0, 1.0, 0.3, 0.2)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call", [
    "interpolation q nan", "interpolation p nan", "interpolation r0 inf",
    "cut ball p nan", "cut ball q nan", "radii threshold nan",
    "radii threshold inf", "radii p nan", "radii p inf", "radii r0 inf"])
def test_non_finite_exponents_and_covering_inputs_are_parameter_errors(call):
    """A NaN exponent never passes a check or dies on an empty ladder,
    and a non-finite covering input is not silently capped."""
    mask, domain, u, w = admissible_case(17)
    run = {
        "interpolation q nan": lambda: interpolation_check(
            u, w, p=2.0, q=NAN, alpha=ALPHA, r0=0.25, domain=domain),
        "interpolation p nan": lambda: interpolation_check(
            u, w, p=NAN, q=Q_MIN, alpha=ALPHA, r0=0.25, domain=domain),
        "interpolation r0 inf": lambda: interpolation_check(
            u, w, p=2.0, q=Q_MIN, alpha=ALPHA, r0=INF, domain=domain),
        "cut ball p nan": lambda: cut_ball_check(
            u, w, (0.5, 0.5), 0.2, p=NAN, q=3, domain=domain),
        "cut ball q nan": lambda: cut_ball_check(
            u, w, (0.5, 0.5), 0.2, p=2, q=NAN, domain=domain),
        "radii threshold nan": lambda: covering_radii(u, NAN, 2.0, 0.3, 0.2),
        "radii threshold inf": lambda: covering_radii(u, INF, 2.0, 0.3, 0.2),
        "radii p nan": lambda: covering_radii(u, 1.0, NAN, 0.3, 0.2),
        "radii p inf": lambda: covering_radii(u, 1.0, INF, 0.3, 0.2),
        "radii r0 inf": lambda: covering_radii(u, 1.0, 2.0, 0.3, INF),
    }[call]
    with pytest.raises(ParameterError):
        run()


def test_infinite_q_stays_valid():
    mask, domain, u, w = admissible_case(17)
    rep = interpolation_check(u, w, p=2.0, q=INF, alpha=ALPHA, r0=0.25,
                              domain=domain)
    assert rep.passed
    # the max form: the balls cover every domain node, so they hold the
    # largest |u| of the domain
    assert rep.details["cover_lq_ratio"] == 1.0
    assert "NaN" not in RunReport(config={}, checks=[rep]).to_json()
    assert cut_ball_check(u, w, (0.5, 0.5), 0.2, p=2, q=INF,
                          domain=domain).passed


# ---------------------------------------------------------------------------
# one-sided interpolation inequality


ALPHA = 0.3
Q_MIN = 2.0 * (3.0 - ALPHA) / (2.0 - ALPHA)


def admissible_case(n=33, seed=9):
    mask = unit_square(n)
    domain = interior_domain(mask)
    u, w = random_admissible_pair(mask, domain, np.random.default_rng(seed))
    return mask, domain, u, w


def test_interpolation_theta_closed_form():
    assert abs(interpolation_theta(3, 2, 3, 0.0) - 2.0 / 3.0) <= TOL_MACHINE
    assert abs(interpolation_theta(2, 2.0, Q_MIN, ALPHA)
               - (2.0 - ALPHA - 2.0 / Q_MIN) / (3.0 - ALPHA - 1.0)) \
        <= TOL_MACHINE


def test_interpolation_hypothesis_gate():
    mask, domain, u, w = admissible_case(17)
    with pytest.raises(ParameterError):
        interpolation_check(u, w, p=2.0, q=3.0, alpha=ALPHA, r0=0.25,
                            domain=domain)        # q below the threshold
    with pytest.raises(ParameterError):
        interpolation_check(u, w, p=0.9, q=Q_MIN, alpha=ALPHA, r0=0.25,
                            domain=domain)
    with pytest.raises(ParameterError):
        interpolation_check(u, w, p=2.0, q=Q_MIN, alpha=1.0, r0=0.25,
                            domain=domain)
    with pytest.raises(ParameterError):
        interpolation_check(u, w, p=3.0, q=2.0, alpha=0.0, r0=0.25,
                            domain=domain)        # q < p


def test_random_admissible_pair_is_deterministic_and_admissible():
    mask, domain, u, w = admissible_case()
    u2, w2 = random_admissible_pair(mask, domain, np.random.default_rng(9))
    assert np.array_equal(u.values, u2.values)
    assert np.array_equal(w.values, w2.values)
    lap_w = mask.gather(mask.laplacian_full(mask.scatter(w.values)))
    assert float(u.values[domain].min()) >= 0.0
    assert float((u.values - lap_w)[domain].max()) <= 0.0


def test_interpolation_calibration_then_verification():
    mask, domain, u, w = admissible_case()
    cal = interpolation_check(u, w, p=2.0, q=Q_MIN, alpha=ALPHA, r0=0.25,
                              domain=domain)
    assert cal.passed and cal.params["mode"] == "calibration"
    assert cal.details["covers_all"]
    assert cal.details["max_overlap"] <= default_overlap_cap(2)
    c_fit = cal.details["fitted_constant"]
    assert c_fit > 0
    ver = interpolation_check(u, w, p=2.0, q=Q_MIN, alpha=ALPHA, r0=0.25,
                              domain=domain, C=1.05 * c_fit)
    assert ver.passed and ver.params["mode"] == "verification"
    assert not interpolation_check(u, w, p=2.0, q=Q_MIN, alpha=ALPHA,
                                   r0=0.25, domain=domain,
                                   C=0.5 * c_fit).passed


def test_interpolation_scaling_invariance():
    """Both sides of the inequality are 1-homogeneous in (u, w), so the
    fitted constant and the covering itself must not move under joint
    rescaling by 1e-3 or 1e3."""
    mask, domain, u, w = admissible_case()
    base = interpolation_check(u, w, p=2.0, q=Q_MIN, alpha=ALPHA, r0=0.25,
                               domain=domain)
    for lam in (1e-3, 1e3):
        scaled = interpolation_check(
            Field(mask, lam * u.values), Field(mask, lam * w.values),
            p=2.0, q=Q_MIN, alpha=ALPHA, r0=0.25, domain=domain)
        rel = abs(scaled.details["fitted_constant"]
                  / base.details["fitted_constant"] - 1.0)
        assert rel <= 1e-9
        assert scaled.details["n_balls"] == base.details["n_balls"]


def test_cover_ratios_match_a_per_ball_loop():
    """The chain sums add each kept ball's u^q and |grad u|^p mass; a loop
    over the balls and their members gives the same sums to 1e-12."""
    mask, domain, u, w = admissible_case()
    p, r0 = 2.0, 0.1
    rep = interpolation_check(u, w, p=p, q=Q_MIN, alpha=ALPHA, r0=r0,
                              domain=domain)
    cover = build_covering(u, rep.details["holder_norm_w"], p, ALPHA, r0,
                           domain)
    assert cover.n_balls == rep.details["n_balls"] and cover.max_overlap > 1
    hd = mask.grid.h ** 2
    coords = mask.node_coords()[domain]
    u_q = u.values[domain] ** Q_MIN
    g_p = np.sqrt((gradient(u) ** 2).sum(axis=1))[domain] ** p
    sum_u = sum_g = 0.0
    for ci, r in zip(cover.centers, cover.radii):
        members = ((coords - coords[ci]) ** 2).sum(axis=1) \
            <= r * r * (1 + 1e-12)
        sum_u += hd * float(u_q[members].sum())
        sum_g += hd * float(g_p[members].sum())
    want_u = sum_u / (hd * float(u_q.sum()))
    want_g = sum_g / (hd * float(g_p.sum()))
    assert rep.details["cover_lq_ratio"] == pytest.approx(want_u, rel=1e-12)
    assert rep.details["grad_chain_ratio"] == pytest.approx(want_g,
                                                            rel=1e-12)


def test_threshold_is_exact_seminorm_on_criterion_10_domain():
    """Threshold A on the criterion-10 geometry (seed 1002) is sup |w| plus
    the Hoelder seminorm over every pair of domain nodes; a thinned node
    subset would report less."""
    mask = full_mask(GridSpec.make((1.0, 1.0, 1.0), 32))
    coords = mask.node_coords()
    domain = np.all((coords > 0.15) & (coords < 0.85), axis=1)
    u, w = random_admissible_pair(mask, domain, np.random.default_rng(1002))
    q = 2.0 * (3.0 - ALPHA) / (2.0 - ALPHA)
    rep = interpolation_check(u, w, p=2.0, q=q, alpha=ALPHA, r0=0.15,
                              domain=domain)
    X, W = coords[domain], w.values[domain]
    semi = 0.0
    for lo in range(0, W.size - 1, 64):       # a row block against later rows
        rows = slice(lo, lo + 64)
        d2 = np.zeros((X[rows].shape[0], W.size - lo - 1))
        for ax in range(3):
            diff = X[rows, None, ax] - X[None, lo + 1:, ax]
            d2 += diff * diff
        dist = np.sqrt(d2) ** ALPHA
        dw = np.abs(W[rows, None] - W[None, lo + 1:])
        semi = max(semi, float(np.divide(dw, dist, out=np.zeros_like(dw),
                                         where=dist > 1e-300).max()))
    assert rep.details["holder_norm_w"] == float(np.max(np.abs(W))) + semi


def test_interpolation_rejects_onesided_violation():
    mask, domain, u, w = admissible_case()
    bad = Field(mask, u.values + np.where(domain, 100.0, 0.0))
    with pytest.raises(PreconditionError, match="one-sided condition"):
        interpolation_check(bad, w, p=2.0, q=Q_MIN, alpha=ALPHA, r0=0.25,
                            domain=domain)


def test_tiny_negative_u_within_the_slack_reports_as_zero():
    """The one-sided check admits u >= -1e-10, so a domain node at -1e-12
    must report what the node at 0.0 reports (up to the roundoff it puts
    into the gradient), not NaN from a negative base under a fractional
    power."""
    mask = full_mask(GridSpec.make((1.0, 1.0, 1.0), 16))
    domain = interior_domain(mask)
    u, w = random_admissible_pair(mask, domain, np.random.default_rng(3))
    node = np.flatnonzero(domain)[500]
    reports = []
    for value in (-1e-12, 0.0):
        vals = u.values.copy()
        vals[node] = value
        reports.append(interpolation_check(Field(mask, vals), w, p=2.0,
                                           q=3.857, alpha=0.3, r0=0.25,
                                           domain=domain))
    neg, zero = reports
    assert neg.passed == zero.passed
    assert neg.lhs == pytest.approx(zero.lhs, rel=1e-12)
    assert neg.rhs == pytest.approx(zero.rhs, rel=1e-12)
    for block in ("params", "details"):
        got, want = getattr(neg, block), getattr(zero, block)
        assert got.keys() == want.keys()
        for key, val in want.items():
            if isinstance(val, float):
                assert got[key] == pytest.approx(val, rel=1e-12), key
            else:
                assert got[key] == val, key
