"""One-sided interpolation machinery: the cut-ball estimate, a
Besicovitch-style covering, and the global inequality

    ||u||_{L^q(Omega)} <= C ||w||^(1-theta) ||grad u||_{L^p}^theta
                          + C ||w||,
    theta = (2 - alpha - d/q) / (3 - alpha - d/p),

for pairs with 0 <= u <= lap w (one-sided: no equality required).  The norm
on w is C^alpha for alpha in (0,1) and the sup norm for alpha = 0.  Every
norm comes from ``norms`` (space_norm, holder_norm_field) over a node subset:
the threshold A and every cut-ball rung take the exact seminorm over all
of their nodes, and the block tree of each node set is kept, so every case
after the first on the same domain or rung only recomputes the W ranges.
The covering marks each kept ball from its grid box, so it costs what its
balls hold rather than a scan of the domain per ball.

The verification domain Omega is a node subset strictly inside the carrier
mask, so every Laplacian and gradient stencil uses real neighbours; the
mask's reflection ghosts never enter.  Constants are calibrated on half of
a randomized case family and frozen for the other half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PreconditionError, SamplingError
from .grid import DomainMask, Field, gradient
from .norms import holder_norm_field, lp_norm, space_norm
from .report import EstimateReport


# ---------------------------------------------------------------------------
# cut-ball estimate


def _dist2(columns: np.ndarray, point) -> np.ndarray:
    """Squared distance of every node to ``point``, summed axis by axis over
    the contiguous coordinate columns ``coords.T``: the same additions in
    the same order as ((coords - point) ** 2).sum(axis=1), so the same
    bits, without the (n, d) temporary."""
    out = np.zeros(columns.shape[1])
    for col, c in zip(columns, point, strict=True):
        diff = col - c
        out += diff * diff
    return out


def _check_one_sided(u: Field, lap_w: np.ndarray, selector: np.ndarray):
    slack = 1e-10
    uv = u.values
    bad_lo = selector & (uv < -slack)
    bad_hi = selector & (uv > lap_w + slack)
    if bad_lo.any() or bad_hi.any():
        idx = int(np.argmax(bad_lo if bad_lo.any() else bad_hi))
        x = u.mask.node_coords()[idx]
        raise PreconditionError(
            f"one-sided condition 0 <= u <= lap w fails at node {idx} "
            f"(x = {np.array2string(x, precision=4)}): u = {uv[idx]:.6g}, "
            f"lap w = {lap_w[idx]:.6g}")


def _lap_values(lap_w, w: Field) -> np.ndarray:
    if lap_w is None:
        return w.mask.laplacian_matrix() @ w.values
    if isinstance(lap_w, Field):
        return lap_w.values
    return np.asarray(lap_w, dtype=float)


def cut_ball_check(u: Field, w: Field, center, radii, p: float, q: float,
                   alpha: float = 0.0, C: float | None = None,
                   domain: np.ndarray | None = None,
                   lap_w: np.ndarray | None = None,
                   expected_slopes: dict | None = None,
                   slope_tol: float = 0.1) -> EstimateReport:
    """Localized bound on the cut ball B(center, R) within the domain:

        ||u||_{L^q(B)} <= C [ R^(1 - d(1/p - 1/q)) ||grad u||_{L^p(B)}
                              + R^(-2 + alpha + d/q) ||w||_{C^alpha(B)} ]

    evaluated across a ladder of radii.  Calibration mode (C None) fits the
    constant; otherwise the inequality gates at every rung.  When
    ``expected_slopes`` maps any of lhs/grad_term/w_term to a target, the
    log-log regression slope across the ladder must match within
    ``slope_tol``.
    """
    mask = u.mask
    if w.mask is not mask:
        raise ParameterError("u and w must share one mask")
    if p < 1 or q < 1 or not (0.0 <= alpha < 1.0):
        raise ParameterError("need p, q >= 1 and alpha in [0, 1)")
    if np.isscalar(radii):
        radii = (radii / 4.0, radii / 2.0, float(radii))
    radii = sorted(float(r) for r in radii)
    if domain is None:
        domain = np.ones(mask.active_count, dtype=bool)
    lap_w = _lap_values(lap_w, w)
    _check_one_sided(u, lap_w, domain)

    d = mask.grid.dim
    center = np.asarray(center, dtype=float)
    dist2 = _dist2(np.ascontiguousarray(mask.node_coords().T), center)
    grad = gradient(u)
    gmag = np.sqrt((grad ** 2).sum(axis=1))

    e_grad = 1.0 - d * (1.0 / p - 1.0 / q)
    e_w = -2.0 + alpha + d / q
    rows = []
    for R in radii:
        sel = domain & (dist2 <= R * R * (1 + 1e-12))
        if not sel.any():
            raise ParameterError(f"radius {R:.4g} captures no domain nodes")
        lq = lp_norm(u, q, sel)
        gp = float(space_norm(gmag, mask.grid, p, sel))
        wnorm = holder_norm_field(w, alpha, sel)
        rows.append({"R": R, "lhs": lq,
                     "grad_term": R ** e_grad * gp,
                     "w_term": R ** e_w * wnorm,
                     "nodes": int(sel.sum())})

    cores = [r["grad_term"] + r["w_term"] for r in rows]
    lhss = [r["lhs"] for r in rows]
    mode = "calibration" if C is None else "verification"
    if C is None:
        C = max(l / c for l, c in zip(lhss, cores) if c > 0)
        ineq_ok = True
    else:
        ineq_ok = all(l <= C * c * (1 + 1e-9) for l, c in zip(lhss, cores))

    slopes = {}
    logr = np.log([r["R"] for r in rows])
    for key in ("lhs", "grad_term", "w_term"):
        vals = np.array([r[key] for r in rows])
        if len(rows) >= 2 and np.all(vals > 0):
            slopes[key] = float(np.polyfit(logr, np.log(vals), 1)[0])
    slope_ok = True
    if expected_slopes:
        for key, target in expected_slopes.items():
            got = slopes.get(key)
            slope_ok &= got is not None and abs(got - target) <= slope_tol

    worst = max(l / c if c > 0 else 0.0 for l, c in zip(lhss, cores))
    return EstimateReport(
        check="cut_ball_estimate",
        lhs=worst, rhs=C,
        passed=bool(ineq_ok and slope_ok),
        params={"p": p, "q": q, "alpha": alpha, "C": C, "mode": mode,
                "center": [float(c) for c in center]},
        grid=mask.grid.record(),
        details={"ladder": rows, "slopes": slopes,
                 "grad_exponent": e_grad, "w_exponent": e_w},
    )


# ---------------------------------------------------------------------------
# covering construction


@dataclass
class BallCover:
    """Greedy cover of the domain nodes by balls B(x, R(x)).

    R(x) is the exact first node distance where the nondecreasing function
    R -> R^(3 - alpha - d/p) ||grad u||_{L^p(B(x,R) cap Omega)} reaches the
    threshold A (so no bisection residue: the discrete function is a step
    function scanned in sorted-offset order), capped at r0.
    """

    centers: np.ndarray        # indices into the domain node list
    radii: np.ndarray          # radius per selected ball
    node_radii: np.ndarray     # R(x) for every domain node
    counts: np.ndarray         # covering multiplicity per domain node
    domain_index: np.ndarray   # active-node indices of the domain
    threshold: float
    p: float
    alpha: float
    r0: float

    @property
    def n_balls(self) -> int:
        return int(self.centers.size)

    @property
    def max_overlap(self) -> int:
        return int(self.counts.max()) if self.counts.size else 0

    @property
    def covers_all(self) -> bool:
        return bool(self.counts.size and self.counts.min() >= 1)

    @property
    def capped_fraction(self) -> float:
        if not self.node_radii.size:
            return 0.0
        return float(np.mean(self.node_radii >= self.r0 * (1 - 1e-12)))


def default_overlap_cap(dim: int) -> int:
    """Conservative per-node multiplicity budget for the greedy cover."""
    return 2 ** dim * dim


def _sorted_offsets(dim: int, max_steps: int):
    """Integer offsets with |v| <= max_steps, sorted by Euclidean norm,
    with the distinct norms and the end index of each norm's group."""
    rng = np.arange(-max_steps, max_steps + 1)
    mesh = np.meshgrid(*([rng] * dim), indexing="ij")
    offs = np.stack([m.ravel() for m in mesh], axis=1)
    norm2 = (offs ** 2).sum(axis=1)
    keep = norm2 <= max_steps * max_steps
    offs, norm2 = offs[keep], norm2[keep]
    order = np.argsort(norm2, kind="stable")
    offs, norm2 = offs[order], norm2[order]
    norms = np.sqrt(norm2.astype(float))
    uniq = np.unique(norms)
    ends = np.searchsorted(norms, uniq, side="right") - 1
    return offs, uniq, ends


def covering_radii(u: Field, threshold: float, p: float, alpha: float,
                   r0: float, domain: np.ndarray | None = None) -> np.ndarray:
    """First-crossing radius R(x) for every domain node (capped at r0)."""
    mask = u.mask
    if threshold <= 0:
        raise ParameterError("threshold A must be positive")
    d = mask.grid.dim
    if not (0.0 <= alpha < 1.0) or p < 1:
        raise ParameterError("need p >= 1 and alpha in [0, 1)")
    exponent = 3.0 - alpha - d / p
    if exponent <= 0:
        raise ParameterError("covering needs p > d/(3 - alpha)")
    if r0 <= 0:
        raise ParameterError("cap radius r0 must be positive")
    if domain is None:
        domain = np.ones(mask.active_count, dtype=bool)

    h = mask.grid.h
    grad = gradient(u)
    gmass = h ** d * np.sqrt((grad ** 2).sum(axis=1)) ** p
    gfull = mask.scatter(np.where(domain, gmass, 0.0))

    steps = int(math.floor(r0 / h * (1 + 1e-12)))
    if steps < 1:
        raise ParameterError(f"r0 = {r0:.4g} is below the grid spacing")
    offs, uniq, ends = _sorted_offsets(d, steps)
    radii_ladder = uniq * h
    with np.errstate(divide="ignore"):
        thresholds = np.where(radii_ladder > 0,
                              threshold ** p * radii_ladder
                              ** (-p * exponent), np.inf)

    # one accumulator over the domain's bounding box: add the shifted
    # gradient mass of each offset in sorted order, so every node sums its
    # ball in the order of a running sum over the sorted offsets, and test
    # the domain nodes at the end of each distinct-norm group
    dom_idx = np.argwhere(mask.active)[domain]    # (n_dom, dim)
    out = np.full(dom_idx.shape[0], r0)
    if not dom_idx.size:
        return out
    base = dom_idx.min(axis=0)
    shape = tuple(dom_idx.max(axis=0) - base + 1)
    gpad = np.pad(gfull, steps)
    local = np.ravel_multi_index(tuple((dom_idx - base).T), shape)
    acc = np.zeros(shape)
    pending = np.ones(out.size, dtype=bool)
    group = 0
    for k, off in enumerate(offs):
        lo = base + steps + off
        acc += gpad[tuple(slice(l, l + n) for l, n in zip(lo, shape))]
        if k == ends[group]:
            hit = pending & (acc.ravel()[local] >= thresholds[group])
            out[hit] = min(radii_ladder[group], r0)
            pending &= ~hit
            group += 1
    return out


def build_covering(u: Field, threshold: float, p: float, alpha: float,
                   r0: float, domain: np.ndarray | None = None) -> BallCover:
    """Radii by first crossing, then a greedy largest-first selection:
    a ball is kept only if its center is not yet covered.  Two kept centers
    are therefore farther apart than the larger radius, which pins the
    overlap multiplicity (audited by the caller against a budget).

    Only still-uncovered nodes are visited, and a kept ball of radius r
    tests just the domain nodes of its grid box of half-width
    floor(r/h) + 1 around the center, with the distance test of a scan
    over all nodes, so centers, radii and counts are those of that scan."""
    mask = u.mask
    if domain is None:
        domain = np.ones(mask.active_count, dtype=bool)
    node_radii = covering_radii(u, threshold, p, alpha, r0, domain)
    coords = mask.node_coords()[domain]
    n = coords.shape[0]
    # each domain node's grid index, and the domain position of every grid
    # node (-1 off the domain), so a ball's candidates come from its box
    grid_idx = np.argwhere(mask.active)[domain]
    where = np.full(mask.grid.n, -1, dtype=np.int64)
    where[tuple(grid_idx.T)] = np.arange(n)
    h = mask.grid.h
    order = np.lexsort((np.arange(n), -node_radii))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    covered = np.zeros(n, dtype=bool)         # in the greedy order
    counts = np.zeros(n, dtype=np.int32)
    centers = []
    radii = []
    k = 0
    while k < n:
        k += int(np.argmin(covered[k:]))
        if covered[k]:
            break
        i = order[k]
        r = node_radii[i]
        reach = int(math.floor(r / h)) + 1
        box = tuple(slice(max(c - reach, 0), c + reach + 1)
                    for c in grid_idx[i])
        cand = where[box].ravel()
        cand = cand[cand >= 0]
        members = cand[((coords[cand] - coords[i]) ** 2).sum(axis=1)
                       <= r * r * (1 + 1e-12)]
        covered[rank[members]] = True
        counts[members] += 1
        centers.append(i)
        radii.append(r)
        k += 1
    return BallCover(
        centers=np.asarray(centers, dtype=np.int64),
        radii=np.asarray(radii),
        node_radii=node_radii,
        counts=counts,
        domain_index=np.flatnonzero(domain),
        threshold=threshold, p=p, alpha=alpha, r0=r0,
    )


# ---------------------------------------------------------------------------
# global inequality


def interpolation_theta(dim: int, p: float, q: float, alpha: float) -> float:
    """Interpolation exponent theta = (2 - alpha - d/q)/(3 - alpha - d/p)."""
    return (2.0 - alpha - dim / q) / (3.0 - alpha - dim / p)


def _validate_hypotheses(dim: int, p: float, q: float, alpha: float):
    if not (0.0 <= alpha < 1.0):
        raise ParameterError("alpha must lie in [0, 1)")
    if p < 1 or q < p:
        raise ParameterError("need 1 <= p <= q")
    if p * (2.0 - alpha) <= dim * (1 - 1e-12):
        raise ParameterError(
            f"hypothesis p > d/(2 - alpha) fails: p = {p}, d = {dim}, "
            f"alpha = {alpha}")
    if q * (2.0 - alpha) < p * (3.0 - alpha) * (1 - 1e-12):
        raise ParameterError(
            f"hypothesis q >= (3 - alpha)/(2 - alpha) p fails: q = {q}, "
            f"required >= {p * (3.0 - alpha) / (2.0 - alpha):.6g}")
    theta = interpolation_theta(dim, p, q, alpha)
    # equivalent to the hypothesis above; kept as an arithmetic cross-check
    if q * theta < p * (1 - 1e-9):
        raise ParameterError(
            f"exponent-sum condition q theta >= p fails: "
            f"q theta = {q * theta:.6g}, p = {p}")
    return theta


def interpolation_check(u: Field, w: Field, p: float, q: float, alpha: float,
                        r0: float, C: float | None = None,
                        domain: np.ndarray | None = None,
                        lap_w: np.ndarray | None = None) -> EstimateReport:
    """Full pipeline for the one-sided interpolation inequality.

    Threshold A is ||w||_{C^alpha} over the domain (sup norm at alpha = 0);
    the covering uses the exact first-crossing radii; the per-ball
    aggregation and overlap audit mirror the chain

        sum_B ||u||_{L^q(B)}^q,   sum_B ||grad u||_{L^p(B)}^p <= c_d ||grad u||_p^p,

    and the gate is  lhs <= C (A^(1-theta) G^theta + A)  with theta the
    interpolation exponent and G the global gradient norm.  Calibration
    mode (C None) fits the constant and always passes the inequality; the
    overlap audit is part of the verdict in both modes.
    """
    mask = u.mask
    if w.mask is not mask:
        raise ParameterError("u and w must share one mask")
    d = mask.grid.dim
    theta = _validate_hypotheses(d, p, q, alpha)
    if domain is None:
        domain = np.ones(mask.active_count, dtype=bool)
    overlap_cap = default_overlap_cap(d)
    lap_w = _lap_values(lap_w, w)
    _check_one_sided(u, lap_w, domain)

    uv = np.where(domain, u.values, 0.0)
    lhs = float(space_norm(uv, mask.grid, q))
    grad = gradient(u)
    gmag = np.where(domain, np.sqrt((grad ** 2).sum(axis=1)), 0.0)
    grad_norm = float(space_norm(gmag, mask.grid, p))
    a_norm = holder_norm_field(w, alpha, domain)
    if a_norm <= 0:
        raise ParameterError("w vanishes on the domain; threshold A = 0")

    cover = build_covering(u, a_norm, p, alpha, r0, domain)
    overlap_ok = cover.max_overlap <= overlap_cap and cover.covers_all

    # per-ball aggregation diagnostics (the proof chain, made measurable):
    # a sum over the kept balls of sums over their members counts each
    # node once per ball that holds it
    hd = mask.grid.h ** d
    sum_lq_q = hd * float(cover.counts @ np.abs(uv[domain]) ** q)
    sum_gp_p = hd * float(cover.counts @ gmag[domain] ** p)
    cover_lq_ratio = sum_lq_q / max(lhs ** q, 1e-300)
    grad_chain_ratio = sum_gp_p / max(grad_norm ** p, 1e-300)

    core = a_norm ** (1.0 - theta) * grad_norm ** theta + a_norm
    fitted = lhs / core
    mode = "calibration" if C is None else "verification"
    if C is None:
        C = fitted
        ineq_ok = True
    else:
        ineq_ok = lhs <= C * core * (1 + 1e-9)

    return EstimateReport(
        check="one_sided_interpolation",
        lhs=lhs, rhs=C * core,
        passed=bool(ineq_ok and overlap_ok),
        params={"p": p, "q": q, "alpha": alpha, "theta": theta, "r0": r0,
                "C": C, "mode": mode, "overlap_cap": overlap_cap},
        grid=mask.grid.record(),
        details={"holder_norm_w": a_norm, "grad_norm": grad_norm,
                 "fitted_constant": fitted,
                 "n_balls": cover.n_balls,
                 "max_overlap": cover.max_overlap,
                 "covers_all": cover.covers_all,
                 "capped_fraction": cover.capped_fraction,
                 "cover_lq_ratio": cover_lq_ratio,
                 "grad_chain_ratio": grad_chain_ratio,
                 "domain_nodes": int(domain.sum())},
    )


# ---------------------------------------------------------------------------
# randomized admissible pairs (0 <= u <= lap w by construction)


def random_admissible_pair(mask: DomainMask, domain: np.ndarray,
                           rng: np.random.Generator, n_bumps: int = 6,
                           margin: float = 0.5) -> tuple[Field, Field]:
    """A random convex-dominated pair on the carrier mask: w is a sum of
    smooth bumps plus a paraboloid stiff enough that lap w >= margin on the
    domain, and u = s lap w with a smooth profile s in (0, 1).

    The domain must stay clear of the carrier boundary so that the
    Laplacian at every domain node is a pure interior stencil.
    """
    coords = mask.node_coords()
    columns = np.ascontiguousarray(coords.T)
    d = mask.grid.dim
    extent = [mask.grid.extent[ax] for ax in range(d)]
    lo = np.array([mask.grid.origin[ax] for ax in range(d)])
    hi = lo + np.array(extent)

    def bumps():
        out = np.zeros(mask.active_count)
        for _ in range(n_bumps):
            c = lo + rng.uniform(0.15, 0.85, size=d) * (hi - lo)
            s = rng.uniform(0.08, 0.22) * float(np.max(extent))
            a = rng.uniform(-1.0, 1.0)
            out += a * np.exp(-_dist2(columns, c) / (2 * s * s))
        return out

    lap = mask.laplacian_matrix()
    phi = bumps()
    lap_phi = lap @ phi
    kappa = (margin + max(0.0, -float(lap_phi[domain].min()))) / d
    center = coords[domain].mean(axis=0)
    w_vals = phi + 0.5 * kappa * _dist2(columns, center)
    w = Field(mask, w_vals)
    lap_w = lap @ w_vals
    if float(lap_w[domain].min()) <= 0:
        raise SamplingError("paraboloid failed to convexify the sample")
    profile = 0.5 * (1.0 + np.tanh(bumps()))
    u = Field(mask, profile * np.maximum(lap_w, 0.0))
    return u, w
