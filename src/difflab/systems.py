"""Reaction-diffusion systems: two families share the explicit-Euler core.

* the competition pair with cross diffusion
      du/dt - lap[(d1 + sigma v) u] = u (r_u - d11 u - d12 v),
      dv/dt - d2 lap v              = v (r_v - d21 u - d22 v),
  plus its auxiliary chain: the companion heat solve m, the pinched
  coefficient nu = (mu u + m)/(u + m), the time integral w with
  lap w = u + m - u_init - r_u int u, and the convexified w-tilde whose
  discrete Laplacian dominates u;

* networks du_i/dt - d_i lap u_i = f_i(u) written as polynomial term
  lists and held as one monomial table: the distinct exponent rows
  ``powers`` and the coefficients ``coeffs`` with
  f_i = sum_j coeffs[j, i] monomial_j.  The rates, the solver, the
  balancing companion (one appended coefficient column) and the
  structural checks (quasi-positivity at the faces, mass control,
  one-sided quadratic row bounds for a lower-triangular matrix A) all
  read it, and so does the transformed system dv_i/dt - d_i lap v_i =
  (A f)_i + sum_{k<i} c_ik lap v_k for v = A u.  :func:`general_solve`,
  the one network solver, conserves M = sum beta_i u_i and returns the
  mass potential w = int sum beta_i d_i u_i: mu^{-1} dw/dt - lap w = M(0),
  with mu = sum beta_i d_i u_i / M pinched in [min d_i, max d_i].  The
  quartet (-1)^i (u1 u3 - u2 u4) is the preset :func:`preset_quad4`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ParameterError, SamplingError, SolverError,
                     StructuralError)
from .grid import (Field, Trajectory, gradient, march, poisson_neumann,
                   stable_dt)
from .norms import space_norm
from .report import EstimateReport, fit_constant


def _centered(check: str, mask, times: np.ndarray, values: np.ndarray,
              k: np.ndarray | None = None):
    """Centered time differences and Laplacians of ``values`` (frames,
    nodes, ...) at the interior frames ``k``, all by default (SamplingError
    without one), by one sparse product that sums as a per-frame one."""
    if times.size < 3:
        raise SamplingError(f"{check} needs an interior frame: got "
                            f"{times.size} frames, at least 3 are needed")
    k = np.arange(1, times.size - 1) if k is None else k
    gaps = times[k + 1] - times[k - 1]
    gaps = gaps.reshape((-1,) + (1,) * (values.ndim - 1))
    nodes = np.moveaxis(values[k], 1, 0)
    lap = mask.laplacian_matrix() @ nodes.reshape(len(nodes), -1)
    return ((values[k + 1] - values[k - 1]) / gaps,
            np.ascontiguousarray(np.moveaxis(lap.reshape(nodes.shape), 0, 1)))


# ---------------------------------------------------------------------------
# cross-diffusion pair


@dataclass(frozen=True)
class SKTParams:
    """Coefficients of the cross-diffusion competition pair."""

    d1: float
    d2: float
    sigma: float
    r_u: float
    r_v: float
    d11: float
    d12: float
    d21: float
    d22: float

    def __post_init__(self):
        if self.d1 <= 0 or self.d2 <= 0:
            raise ParameterError("diffusions d1, d2 must be positive")
        if self.sigma < 0:
            raise ParameterError("sigma must be nonnegative")
        if min(self.r_u, self.r_v, self.d11, self.d12, self.d21,
               self.d22) < 0:
            raise ParameterError("reaction coefficients must be nonnegative")
        if self.d22 == 0:
            raise ParameterError("d22 must be positive (v needs a ceiling)")

    def v_ceiling(self, v_init_max: float) -> float:
        return max(v_init_max, self.r_v / self.d22)


@dataclass
class SKTSolution:
    u: Trajectory
    v: Trajectory
    m: Trajectory              # companion heat variable, co-evolved
    int_u: Trajectory          # rectangle-rule time integral of u
    w: Trajectory              # rectangle-rule time integral of mu*u + m
    params: SKTParams
    dt: float
    steps: int
    clipped_mass: float        # cumulative clipped negative mass


def skt_solve(u_init: Field, v_init: Field, params: SKTParams,
              t_end: float, dt: float | None = None,
              n_frames: int = 65) -> SKTSolution:
    """Explicit Euler with flux (product) ghost reflection and clipping audit.

    The step limit accounts for the effective diffusion d1 + sigma*v with a
    factor-two headroom on the v ceiling (and for the unit-diffusion
    companion m); the limit is re-checked at every step against the v
    maximum of the step-start state (the post-clip maximum the march took
    after the previous step, max v_init at step 1), and a breach aborts
    with the step index.

    The companion m (dm/dt - lap m = u (d11 u + d12 v), m(0) = 0) is
    advanced with the same steps, and the time integrals int_u and
    w = integral (mu u + m) are accumulated with the left-rectangle rule at
    solver resolution.  That makes the discrete identity

        lap w(T) = u(T) + m(T) - u(0) - r_u int_0^T u

    telescoping-exact (to roundoff) on clip-free runs, which is what the
    convexified-w chain needs.
    """
    mask = u_init.mask
    if v_init.mask is not mask:
        raise ParameterError("u and v must live on the same mask")
    if float(u_init.values.min()) < 0 or float(v_init.values.min()) < 0:
        raise ParameterError("initial data must be nonnegative")
    p = params
    v_cap = p.v_ceiling(float(v_init.values.max()))
    limit = stable_dt(mask, max(p.d1 + 2.0 * p.sigma * v_cap, p.d2, 1.0))

    # state rows: u, v, m, int_u, w; u and v are clipped densities.  The
    # flux (d1 + sigma v) u diffuses into u, so once every row of V is
    # prefilled it overwrites u in U, and U[:3] = (flux, v, m) diffuse
    # into (u, v, m) with diffusions (1, d2, 1).
    def prefill(k, t, step, U, V, top):
        mu_now = p.d1 + p.sigma * float(top[1])
        if step > stable_dt(mask, max(mu_now, p.d2, 1.0)) * (1 + 1e-9):
            raise SolverError(f"CFL breach at step {k}: mu reached {mu_now:.4g}")
        u, v, m, int_u, w = U
        vu, vv, vm, vi, vw = V         # vi, vw are scratch until their turn
        np.multiply(u, step * p.d11, out=vm)
        np.multiply(v, step * p.d12, out=vi)
        vm += vi                       # dt (d11 u + d12 v)
        np.subtract(step * p.r_u, vm, out=vu)
        vu *= u
        vu += u
        vm *= u
        vm += m
        np.multiply(u, step * p.d21, out=vv)
        np.subtract(step * p.r_v, vv, out=vv)
        np.multiply(v, step * p.d22, out=vi)
        vv -= vi
        vv *= v
        vv += v
        np.multiply(u, step, out=vi)
        vi += int_u
        np.multiply(v, p.sigma, out=vw)
        vw += p.d1
        u *= vw                        # the flux, in place of u
        np.add(u, m, out=vw)
        vw *= step
        vw += w
        return U[:3]

    state = np.zeros((5, mask.active_count))
    state[0], state[1] = u_init.values, v_init.values
    run = march(mask, state, prefill, (1.0, p.d2, 1.0), t_end, dt, limit,
                n_frames, clip=2)
    u, v, m, int_u, w = (Trajectory(mask, run.times, f) for f in run.frames)
    return SKTSolution(u=u, v=v, m=m, int_u=int_u, w=w, params=params,
                       dt=run.dt, steps=run.n_steps, clipped_mass=run.clipped)


@dataclass
class SKTAuxiliary:
    nu: Trajectory
    coef: float                 # coefficient of |x|^2/(2d) in w-tilde
    residual: EstimateReport


def skt_auxiliary(sol: SKTSolution) -> SKTAuxiliary:
    """The weight nu, the convexity coefficient and the evolution-identity
    residual of the companion chain m, nu, w.

    m (dm/dt - lap m = u (d11 u + d12 v), m(0) = 0) and the integrals come
    straight from the solver, which co-evolved them at full step resolution.
    nu is the u/m weighted mean of (d1 + sigma v) and 1.  The residual of

        nu^{-1} dw/dt - lap w = u_init + r_u int_0^t u

    is evaluated with centered time differences at the interior frames
    (SamplingError without one); the centered quotient of the
    rectangle-rule w is a window average of (mu u + m), so the residual
    shrinks with both the frame spacing and the solver step.
    """
    mask = sol.u.mask
    p = sol.params
    times = sol.u.times
    dwdt, lap_w = _centered("skt_evolution_identity", mask, times,
                            sol.w.values)
    dt_s = float(times[1] - times[0])
    m_vals = sol.m.values

    mu_vals = p.d1 + p.sigma * sol.v.values
    flux = mu_vals * sol.u.values + m_vals      # mu u + m, per frame
    denom = sol.u.values + m_vals
    nu_vals = np.where(denom < 1e-14, mu_vals,
                       flux / np.where(denom < 1e-14, 1.0, denom))

    # residual at interior frames
    u0 = sol.u.values[0]
    rhs = u0 + p.r_u * sol.int_u.values[1:-1]
    res = dwdt / nu_vals[1:-1] - lap_w - rhs
    worst = float(np.max(np.abs(res)))
    scale = float(np.max(np.abs(rhs)))
    residual = EstimateReport(
        check="skt_evolution_identity",
        lhs=worst, rhs=max(scale, 1.0) * 0.1,
        params={"dt_saved": dt_s, "frames": int(times.size)},
        grid=mask.grid.record(),
        details={"residual_inf": worst, "rhs_scale": scale},
    )

    hd = mask.grid.h ** mask.grid.dim
    vol = mask.active_count * hd
    horizon = float(times[-1])
    sup_l1_u = float(np.max(hd * sol.u.values.sum(axis=1)))
    coef = float(space_norm(u0, mask.grid, np.inf)) \
        + p.r_u * horizon / vol * sup_l1_u

    return SKTAuxiliary(nu=Trajectory(mask, times, nu_vals), coef=coef,
                        residual=residual)


def nu_bounds_report(sol: SKTSolution, aux: SKTAuxiliary) -> EstimateReport:
    """nu pinched in [min(1, d1), max(1, d1 + sigma ||v||_inf)] pointwise."""
    p = sol.params
    v_sup = float(np.max(sol.v.values))
    return _pinch_report("skt_nu_bounds", "nu", aux.nu.values,
                         min(1.0, p.d1), max(1.0, p.d1 + p.sigma * v_sup),
                         sol.u.grid)


def _pinch_report(check: str, name: str, values: np.ndarray, lo: float,
                  hi: float, grid) -> EstimateReport:
    """``values`` pinched in [lo, hi]: the breach max(lo - min, max - hi, 0)
    against 1e-12, with the extremes in ``details`` as ``<name>_min`` and
    ``<name>_max``."""
    v_min, v_max = float(np.min(values)), float(np.max(values))
    return EstimateReport(
        check=check,
        lhs=max(lo - v_min, v_max - hi, 0.0), rhs=1e-12,
        params={"lo": lo, "hi": hi},
        grid=grid.record(),
        details={f"{name}_min": v_min, f"{name}_max": v_max},
    )


def convexified(sol: SKTSolution, aux: SKTAuxiliary,
                k: int) -> tuple[Field, Field]:
    """w-tilde at frame k and a field dominating u: its Laplacian.

    w-tilde adds coef |x|^2/(2d) and the Neumann-Poisson correction
    r_u lap^{-1}(int u - mean) to w.  The returned Laplacian uses the exact
    value 1 for the quadratic part (the Neumann stencil misreads a function
    with nonzero boundary flux) and the Poisson right-hand side itself for
    the correction, so the chain 0 <= u <= lap w-tilde survives discretely.
    """
    mask = sol.u.mask
    coords = mask.node_coords()
    d = mask.grid.dim
    quad = (coords ** 2).sum(axis=1) / (2.0 * d)
    iu = sol.int_u.values[k]
    g = sol.params.r_u * (iu - iu.mean())
    corr = poisson_neumann(Field(mask, g)).values
    w_t = sol.w.values[k] + aux.coef * quad + corr
    lap_t = mask.laplacian_matrix() @ sol.w.values[k] + aux.coef + g
    return Field(mask, w_t), Field(mask, lap_t)


def lp_energy_report(sol: SKTSolution, p: int,
                     c_p: float | None = None) -> EstimateReport:
    """Power-law energy balance for u:

        int u^(p+1)/(p+1) (T) + d1 4p/(p+1)^2 int int |grad u^((p+1)/2)|^2
            <= C_p (1 + int int u^(p+2)).

    C_p and the gated rhs come from :func:`~difflab.report.fit_constant`.
    """
    if p < 1:
        raise ParameterError("p must be >= 1")
    mask = sol.u.mask
    hd = mask.grid.h ** mask.grid.dim
    # trapezoid weights: (t_{k+1} - t_{k-1})/2 inside, half a gap at the ends
    gaps = np.diff(sol.u.times) / 2.0
    weights = np.zeros(sol.u.n_frames)
    weights[:-1] += gaps
    weights[1:] += gaps
    u_T = sol.u.values[-1]
    lhs = hd * float(np.sum(u_T ** (p + 1))) / (p + 1)
    grad_term = 0.0
    source = 0.0
    for k in range(sol.u.n_frames):
        uk = sol.u.values[k]
        g = gradient(Field(mask, uk ** ((p + 1) / 2.0)))
        grad_term += weights[k] * hd * float(np.sum(g ** 2))
        source += weights[k] * hd * float(np.sum(uk ** (p + 2)))
    lhs += sol.params.d1 * 4.0 * p / (p + 1) ** 2 * grad_term
    core = 1.0 + source
    mode = "calibration" if c_p is None else "verification"
    c_p, rhs = fit_constant(lhs, core, c_p)
    return EstimateReport(
        check="lp_energy",
        lhs=lhs, rhs=rhs,
        params={"p": p, "C_p": c_p, "mode": mode},
        grid=mask.grid.record(),
        details={"gradient_coefficient": 4.0 * p / (p + 1) ** 2,
                 "source_integral": source},
    )


# ---------------------------------------------------------------------------
# general networks as a monomial table


def _factors(powers):
    """Each exponent row of a monomial table as its (species, exponent)
    factors, zero exponents left out."""
    return [[(r, e) for r, e in enumerate(row) if e]
            for row in powers.tolist()]


def _fill_monomials(plan, states, mono, scratch):
    """Monomial j of ``plan`` at species-major ``states`` into ``mono[j]``:
    its factors multiplied in row order, a power u^e as ``u ** e`` (into
    ``scratch``, or a new array when it is None)."""
    for out, factors in zip(mono, plan):
        if not factors:
            out.fill(1.0)
        for i, (r, e) in enumerate(factors):
            x = states[r] if e == 1 else np.power(states[r], e, out=scratch)
            if i:
                out *= x
            else:
                np.copyto(out, x)


class GeneralSystemSpec:
    """A reaction network plus the structure used to de-triangularize it.

    reactions[i] is a term list for f_i, (coefficient, exponents) pairs
    with exponents padded by zeros to m species; the constructor turns the
    lists into the network's monomial table: the distinct exponent rows
    ``powers`` (J, m) and ``coeffs`` (J, m) with
    f_i = sum_j coeffs[j, i] prod_r u_r^powers[j, r].  beta_weights are the
    positive mass weights with sum beta_i f_i <= 0; A is lower triangular
    with positive diagonal and one-sidedly quadratically bounded row sums
    sum_{j<=i} a_ij f_j <= K (1 + sum u)^2.
    """

    def __init__(self, diffusions, reactions, beta_weights, A, K: float,
                 name: str = "custom"):
        self.m = m = len(reactions)
        if not m or len(diffusions) != m or len(beta_weights) != m:
            raise ParameterError("a network needs one or more species, each "
                                 "with one diffusion and one beta weight")
        self.diffusions = tuple(float(d) for d in diffusions)
        if min(self.diffusions) <= 0:
            raise ParameterError("diffusions must be positive")
        terms = [[(float(c), tuple(int(e) for e in p) + (0,) * (m - len(p)))
                  for c, p in r] for r in reactions]
        keys = sorted({p for r in terms for _, p in r})
        if any(len(p) > m for p in keys):
            raise ParameterError(f"a term has more than {m} exponents")
        row = {key: j for j, key in enumerate(keys)}
        self.powers = np.array(keys, dtype=int).reshape(len(keys), m)
        self.coeffs = np.zeros((len(keys), m))
        for i, reaction in enumerate(terms):
            for c, p in reaction:
                self.coeffs[row[p], i] += c
        self.beta_weights = tuple(float(b) for b in beta_weights)
        if min(self.beta_weights) <= 0:
            raise ParameterError("beta weights must be positive")
        A = np.asarray(A, dtype=float)
        if A.shape != (self.m, self.m):
            raise ParameterError("A must be m x m")
        if np.any(np.abs(np.triu(A, 1)) > 0):
            raise ParameterError("A must be lower triangular")
        if np.any(np.diag(A) <= 0):
            raise ParameterError("A needs a positive diagonal")
        self.A = A
        self.B = np.linalg.inv(A)
        if float(np.max(np.abs(self.A @ self.B - np.eye(self.m)))) > 1e-12:
            raise ParameterError("A B = I fails at 1e-12")
        self.K = float(K)
        self.name = name

    def monomials(self, states: np.ndarray) -> np.ndarray:
        """The table's monomials, shape (J, N), at species-major states of
        shape (m, N)."""
        mono = np.empty((len(self.powers), states.shape[1]))
        _fill_monomials(_factors(self.powers), states, mono, None)
        return mono

    def rates(self, states: np.ndarray) -> np.ndarray:
        """Reaction rates f(u), shape (m, N), at species-major states of
        shape (m, N)."""
        return self.coeffs.T @ self.monomials(states)

    def c_table(self) -> np.ndarray:
        """c_ik = sum_{j=k}^{i-1} (d_j - d_i) a_ij b_jk for k < i."""
        m, A, B, d = self.m, self.A, self.B, self.diffusions
        c = np.zeros((m, m))
        for i in range(m):
            for k in range(i):
                c[i, k] = sum((d[j] - d[i]) * A[i, j] * B[j, k]
                              for j in range(k, i))
        return c

    def mass_combination(self) -> np.ndarray:
        """Coefficients of sum beta_i f_i over the table's monomials."""
        return self.coeffs @ np.asarray(self.beta_weights)

    def mass_is_exact(self) -> bool:
        """sum beta_i f_i vanishes symbolically: no coefficient of the mass
        combination exceeds 1e-12 in size."""
        return float(np.max(np.abs(self.mass_combination()),
                            initial=0.0)) <= 1e-12

    def with_companion(self) -> "GeneralSystemSpec":
        """Append the balancing species with f_{m+1} = -sum beta_i f_i.

        The companion diffuses like species 1, extends A by the beta row
        with unit diagonal, and restores an exact mass identity; its table
        is this one with a zero exponent column and the coefficient column
        -C beta appended.
        """
        m = self.m
        A = np.zeros((m + 1, m + 1))
        A[:m, :m] = self.A
        A[m, :m] = self.beta_weights
        A[m, m] = 1.0
        comp = GeneralSystemSpec(
            self.diffusions + (self.diffusions[0],), [[]] * (m + 1),
            self.beta_weights + (1.0,), A, self.K,
            name=self.name + "+companion")
        comp.powers = np.pad(self.powers, ((0, 0), (0, 1)))
        comp.coeffs = np.column_stack([self.coeffs, -self.mass_combination()])
        return comp


# -- presets ---------------------------------------------------------------


def preset_quad4(diffusions=(1.0, 1.5, 0.5, 2.0)) -> GeneralSystemSpec:
    """The closed quartet as a term-list network (identity A works)."""
    rate = [(1.0, (1, 0, 1, 0)), (-1.0, (0, 1, 0, 1))]   # u1 u3 - u2 u4
    reactions = []
    for i in range(4):
        sign = -1.0 if i % 2 == 0 else 1.0
        reactions.append([(sign * c, p) for c, p in rate])
    return GeneralSystemSpec(diffusions, reactions, (1.0,) * 4,
                             np.eye(4), K=1.0, name="quad4")


def preset_uum(m: int, b, diffusions=None) -> GeneralSystemSpec:
    """m reactants fusing into a product pair:

        du_{m+1}/dt, du_{m+2}/dt: + (prod u_i^{b_i} - u_{m+1} u_{m+2})
        du_i/dt:                  - b_i (same)

    with weights beta_i = 2/(m b_i), beta_{m+1} = beta_{m+2} = 1 and the
    matrix rows a_{m+1,1} = a_{m+2,1} = 1/b_1 besides the unit diagonal.
    """
    b = tuple(int(x) for x in b)
    if len(b) != m or min(b) < 1:
        raise ParameterError("need one positive integer exponent per reactant")
    n = m + 2
    fwd = tuple(b) + (0, 0)
    bwd = (0,) * m + (1, 1)
    rate = [(1.0, fwd), (-1.0, bwd)]
    reactions = []
    for i in range(m):
        reactions.append([(-b[i] * c, p) for c, p in rate])
    reactions.append(rate)
    reactions.append(rate)
    beta = tuple(2.0 / (m * bi) for bi in b) + (1.0, 1.0)
    A = np.eye(n)
    A[m, 0] = 1.0 / b[0]
    A[m + 1, 0] = 1.0 / b[0]
    if diffusions is None:
        diffusions = tuple(1.0 + 0.25 * i for i in range(n))
    return GeneralSystemSpec(diffusions, reactions, beta, A,
                             K=float(max(b)), name=f"uum({m},{b})")


def preset_s1_2s2(diffusions=(1.0, 2.0, 0.5)) -> GeneralSystemSpec:
    """Cubic three-species exchange u2 u3 - u1 u2^2 with weights (1, 1, 2).

    The third row of A must combine all three reactions to cancel the cubic
    term; the identity matrix does not give a quadratic one-sided bound.
    """
    rate = [(1.0, (0, 1, 1)), (-1.0, (1, 2, 0))]
    reactions = [rate, rate, [(-c, p) for c, p in rate]]
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 2.0]])
    return GeneralSystemSpec(diffusions, reactions, (1.0, 1.0, 2.0), A,
                             K=1.0, name="s1_2s2")


def preset_p_q_2s3(sp: int, sq: int,
                   diffusions=(1.0, 0.75, 1.5)) -> GeneralSystemSpec:
    """p u1 + q u2 <-> 2 u3 with stoichiometric weights (sp, sq, 2)."""
    if sp < 1 or sq < 1 or sp + sq > 6:
        raise ParameterError("need sp, sq >= 1 with moderate total order")
    rate = [(1.0, (0, 0, 2)), (-1.0, (sp, sq, 0))]
    reactions = [
        [(sp * c, p) for c, p in rate],
        [(sq * c, p) for c, p in rate],
        [(-2.0 * c, p) for c, p in rate],
    ]
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                  [2.0, 2.0, float(sp + sq)]])
    return GeneralSystemSpec(diffusions, reactions, (2.0, 2.0, float(sp + sq)),
                             A, K=float(max(sp, sq)),
                             name=f"p_q_2s3({sp},{sq})")


PRESET_SYSTEMS = {
    "quad4": preset_quad4,
    "uum": preset_uum,
    "s1_2s2": preset_s1_2s2,
    "p_q_2s3": preset_p_q_2s3,
}


# -- structural checks -------------------------------------------------------


def _primes(d: int) -> list[int]:
    primes = []
    k = 2
    while len(primes) < d:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def halton(d: int, n: int) -> np.ndarray:
    """The first ``n`` points of the unscrambled Halton sequence in
    [0, 1)^d, shape (n, d): column j holds the radical inverses of
    0, ..., n-1 in the j-th prime base.

    Digit k of index i is (i // base^k) % base, a block pattern that one
    ``repeat`` and one ``tile`` lay out.  Digits are added least significant
    first, each as digit * b2r with b2r = 1/base divided by base per digit,
    the arithmetic of scipy's ``qmc.Halton(d, scramble=False)``, so the
    points are bit-identical to it and come in its F-ordered layout.
    """
    out = np.zeros((d, n))
    for col, base in zip(out, _primes(d)):
        b2r, block = 1.0 / base, 1
        while block < n:
            digits = np.repeat(np.arange(base) * b2r, block)
            col += np.tile(digits, -(-n // (base * block)))[:n]
            b2r /= base
            block *= base
    return out.T


# the box [lo, hi]^m the structural audit samples, and above which a
# network solve is flagged as having left it
AUDIT_BOX = (0.0, 10.0)


def structural_checks(spec: GeneralSystemSpec, n_samples: int = 100_000,
                      box: tuple[float, float] = AUDIT_BOX) -> EstimateReport:
    """Sample-based audit of quasi-positivity, mass control, and the
    one-sided quadratic row bounds.

    The table's monomials are filled once at the Halton samples in
    ``box``^m.  Quasi-positivity (A1) is checked on the faces u_i = 0, where
    only the monomials free of u_i survive; the mass combination C beta
    (A2) is a symbolic zero when every coefficient cancels.  A violation of
    either, which no K repairs, raises StructuralError carrying a witness
    state.  The row is A3: max row/(1 + sum u)^2 - K over rows and samples
    against 1e-12, each row over it a witness in ``details``, with the
    smallest feasible K and, read off the table, the largest degree of a
    monomial with a positive coefficient in some row of A f (diagnostic
    only: the quadratic bound can hold for all u only if it is <= 2).
    """
    if n_samples < 1:
        raise ParameterError(f"n_samples must be >= 1, got {n_samples}")
    m = spec.m
    states = box[0] + (box[1] - box[0]) * halton(m, n_samples)
    u = states.T                                 # species-major (m, N)
    tol = 1e-12
    scale = (1.0 + u.sum(axis=0)) ** 2
    mono = spec.monomials(u)

    def witness(condition, index, state, value):
        return {"condition": condition, "index": index,
                "state": [float(x) for x in state], "value": float(value)}

    def fail(condition, index, state, value):
        w = witness(condition, index, state, value)
        raise StructuralError(f"{condition} violated at species {index}: "
                              f"value {value:.6g} at state {w['state']}", w)

    # (A1) quasi-positivity at the faces
    faces = (spec.coeffs * (spec.powers == 0)).T @ mono
    worst = np.argmin(faces, axis=1)
    margins = faces[np.arange(m), worst]
    size = np.maximum(1.0, np.abs(spec.coeffs).max(axis=0, initial=0.0))
    for i in np.flatnonzero(margins < -tol * size * scale[worst]):
        face = states[worst[i]].copy()
        face[i] = 0.0
        fail("A1", int(i), face, margins[i])

    # (A2) mass control
    a2_exact = spec.mass_is_exact()
    a2_worst = 0.0
    if not a2_exact:
        vals = spec.mass_combination() @ mono
        worst = int(np.argmax(vals))
        a2_worst = float(vals[worst])
        if a2_worst > tol * float(scale[worst]):
            fail("A2", -1, states[worst], a2_worst)

    # (A3) one-sided quadratic row bounds
    rows = spec.A @ (spec.coeffs.T @ mono)
    ratio = rows / scale
    worst = np.argmax(ratio, axis=1)
    peaks = ratio[np.arange(m), worst]
    fitted_k = float(peaks.max())
    violations = [witness("A3", int(i), states[worst[i]], rows[i, worst[i]])
                  for i in np.flatnonzero(peaks - spec.K > tol)]
    positive = (spec.A @ spec.coeffs.T > 0).any(axis=0)
    degree = int(spec.powers.sum(axis=1)[positive].max(initial=0))

    return EstimateReport(
        check="structural_assumptions",
        lhs=fitted_k - spec.K, rhs=tol,
        params={"system": spec.name, "K": spec.K, "samples": n_samples,
                "box": list(box)},
        grid={},
        details={"a1_min_margin": float(margins.min()),
                 "a2_symbolic_zero": a2_exact,
                 "a2_worst": a2_worst,
                 "fitted_K": max(fitted_k, 0.0),
                 "max_positive_degree": degree,
                 "violations": violations},
    )


# -- general solver -----------------------------------------------------------


@dataclass
class GeneralSolution:
    spec: GeneralSystemSpec
    u: list                        # per-species trajectories
    v: list                        # transformed trajectories, v = A u
    w: Trajectory                  # mass potential, int sum beta_i d_i u_i
    dt: float
    steps: int
    clipped_mass: float
    companion_added: bool
    box_exceeded: bool


def general_solve(inits, spec: GeneralSystemSpec, t_end: float,
                  dt: float | None = None, n_frames: int = 33,
                  sampled_box: tuple[float, float] = AUDIT_BOX
                  ) -> GeneralSolution:
    """Explicit Euler for du_i/dt = d_i lap u_i + f_i(u); appends the
    balancing companion when the mass combination is not symbolically zero
    (companion starts at 0), so sum beta_i u_i is conserved.

    Records u, v = A u and the mass potential w = int sum beta_i d_i u_i,
    companion included: an undiffused state row sums the flux by the left
    rectangle rule, plus dt/2 (flux(t) - flux(0)) at each frame.  If the
    state leaves the structurally sampled box the solution is flagged (the
    caller should re-audit).
    """
    companion = not spec.mass_is_exact()
    if companion:
        spec = spec.with_companion()
        inits = list(inits) + [Field.constant(inits[0].mask, 0.0)]
    if len(inits) != spec.m:
        raise ParameterError(f"need {spec.m} initial fields")
    mask = inits[0].mask
    if any(f.mask is not mask for f in inits):
        raise ParameterError("all species must share one mask")
    if any(float(f.values.min()) < 0 for f in inits):
        raise ParameterError("initial data must be nonnegative")
    limit = stable_dt(mask, max(spec.diffusions))
    m = spec.m
    bd = np.asarray(spec.beta_weights) * np.asarray(spec.diffusions)
    plan = _factors(spec.powers)
    mono = np.empty((len(plan), mask.active_count))
    scratch = np.empty(mask.active_count)
    table, bd_dt = np.empty((m, len(plan))), np.empty(m)

    def prefill(k, t, step, U, V, top):
        if k == 1:                     # dt folded into the coefficients
            np.multiply(spec.coeffs.T, step, out=table)
            np.multiply(bd, step, out=bd_dt)
        _fill_monomials(plan, U, mono, scratch)
        np.matmul(table, mono, out=V[:m])
        np.dot(bd_dt, U[:m], out=V[m])
        V += U
        return U[:m]

    state = np.stack([f.values for f in inits] + [np.zeros(mask.active_count)])
    run = march(mask, state, prefill, spec.diffusions, t_end, dt, limit,
                n_frames, clip=m)
    u = run.frames[:m]
    flux = np.tensordot(bd, u, axes=1)
    w = run.frames[m] + 0.5 * run.dt * (flux - flux[0])
    v = np.einsum("ij,jfn->ifn", spec.A, u)
    return GeneralSolution(
        spec=spec, u=[Trajectory(mask, run.times, f) for f in u],
        v=[Trajectory(mask, run.times, f) for f in v],
        w=Trajectory(mask, run.times, w), dt=run.dt, steps=run.n_steps,
        clipped_mass=run.clipped, companion_added=companion,
        box_exceeded=run.peak > sampled_box[1])


def quadratic_solve(inits, diffusions, t_end: float, dt: float | None = None,
                    n_frames: int = 65) -> GeneralSolution:
    """The closed quartet du_i/dt - d_i lap u_i = (-1)^i (u1 u3 - u2 u4):
    :func:`general_solve` on :func:`preset_quad4`."""
    if len(inits) != 4 or len(diffusions) != 4:
        raise ParameterError("need exactly four species")
    return general_solve(inits, preset_quad4(diffusions), t_end, dt, n_frames)


# -- mass, mu and potential reports for any network ------------------------


def _mu(sol: GeneralSolution, diffusions):
    """mu = sum beta_i d_i u_i / M, guarded on empty nodes, and the mass
    density M = sum beta_i u_i, per frame and node.  ``diffusions`` must
    repeat the solved ones: a wrong one would pinch a mu never solved."""
    d, beta = sol.spec.diffusions, sol.spec.beta_weights
    if tuple(float(x) for x in diffusions) != d:
        raise ParameterError(f"diffusions {tuple(diffusions)} are not the "
                             f"solved ones {d}")
    num = sum(b * di * t.values for b, di, t in zip(beta, d, sol.u))
    den = sum(b * t.values for b, t in zip(beta, sol.u))
    return np.where(den < 1e-14, float(np.mean(d)),
                    num / np.where(den < 1e-14, 1.0, den)), den


def quad_mass_report(sol: GeneralSolution) -> EstimateReport:
    """Total mass sum_i beta_i int u_i is conserved to relative 1e-10."""
    hd = sol.w.grid.h ** sol.w.grid.dim
    totals = hd * sum(b * t.values.sum(axis=1)
                      for b, t in zip(sol.spec.beta_weights, sol.u))
    drift = float(np.max(np.abs(totals - totals[0]))) / max(totals[0], 1e-300)
    return EstimateReport(
        check="quad_mass_conservation",
        lhs=drift, rhs=1e-10,
        params={"initial_mass": float(totals[0])},
        grid=sol.w.grid.record(),
        details={"clipped_mass": sol.clipped_mass},
    )


def quad_mu_report(sol: GeneralSolution, diffusions) -> EstimateReport:
    """mu pinched in [min d_i, max d_i] pointwise."""
    d = sol.spec.diffusions
    return _pinch_report("quad_mu_bounds", "mu", _mu(sol, diffusions)[0],
                         min(d), max(d), sol.w.grid)


def quad_identity_report(sol: GeneralSolution, diffusions) -> EstimateReport:
    """Residuals of lap w = M - M(0) and of dw/dt - mu lap w = mu M(0) for
    M = sum beta_i u_i, centered at interior frames (SamplingError without
    one)."""
    mask = sol.w.mask
    times = sol.w.times
    dwdt, lap_w = _centered("quad_integral_identities", mask, times,
                            sol.w.values)
    mu, total = _mu(sol, diffusions)
    sum0 = total[0]
    worst_lap = float(np.max(np.abs(lap_w - (total[1:-1] - sum0))))
    worst_evo = float(np.max(np.abs(dwdt - mu[1:-1] * (lap_w + sum0))))
    scale = float(np.max(np.abs(total)))
    return EstimateReport(
        check="quad_integral_identities",
        lhs=max(worst_lap, worst_evo), rhs=0.1 * max(scale, 1.0),
        params={"frames": int(times.size)},
        grid=mask.grid.record(),
        details={"lap_identity_inf": worst_lap, "evolution_inf": worst_evo},
    )


def transformed_residual_report(sol: GeneralSolution) -> EstimateReport:
    """Residual of dv_i/dt - d_i lap v_i - (A f)_i - sum_{k<i} c_ik lap v_k.

    Centered time differences at the interior frames with t >= T/10, or
    the last two when fewer lie there (SamplingError with no interior
    frame).  The skipped head is where frame-rate sampling cannot resolve
    the decay of the initial data's high modes; past it the residual
    shrinks with both the frame spacing and the solver step.
    """
    spec = sol.spec
    mask = sol.u[0].mask
    times = sol.u[0].times
    burn_in = 0.1
    lo = max(1, int(np.searchsorted(times, burn_in * float(times[-1]))))
    k = np.arange(min(lo, max(1, times.size - 3)), times.size - 1)
    v = np.stack([t.values for t in sol.v], axis=-1)             # (F, N, m)
    dvdt, laps = _centered("transformed_system_residual", mask, times, v, k)
    u = np.stack([t.values[k] for t in sol.u], axis=-1)          # (K, N, m)
    g = spec.rates(u.reshape(-1, spec.m).T).T.reshape(u.shape) @ spec.A.T
    diffusive = laps * np.asarray(spec.diffusions)
    res = dvdt - diffusive - g - laps @ spec.c_table().T
    worst = float(np.max(np.abs(res)))
    # residual is judged against the size of the equation's terms
    scale = max(1.0, *(float(np.max(np.abs(x))) for x in (dvdt, diffusive, g)))
    return EstimateReport(
        check="transformed_system_residual",
        lhs=worst, rhs=0.1 * scale,
        params={"system": spec.name, "frames": int(times.size),
                "burn_in": burn_in},
        grid=mask.grid.record(),
        details={"companion_added": sol.companion_added,
                 "box_exceeded": sol.box_exceeded},
    )


def transform_consistency_report(sol: GeneralSolution) -> EstimateReport:
    """B (A u) = u at every frame to 1e-12 (relative)."""
    spec = sol.spec
    u_mat = np.stack([t.values for t in sol.u])
    v_mat = np.stack([t.values for t in sol.v])
    back = np.einsum("ij,jfn->ifn", spec.B, v_mat)
    scale = max(float(np.max(np.abs(u_mat))), 1.0)
    err = float(np.max(np.abs(back - u_mat))) / scale
    return EstimateReport(
        check="transform_roundtrip",
        lhs=err, rhs=1e-12,
        params={"system": spec.name},
        grid=sol.u[0].grid.record(),
        details={},
    )
