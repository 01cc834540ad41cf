"""Reaction-diffusion systems: two families share the explicit-Euler core.

* the competition pair with cross diffusion
      du/dt - lap[(d1 + sigma v) u] = u (r_u - d11 u - d12 v),
      dv/dt - d2 lap v              = v (r_v - d21 u - d22 v),
  plus its auxiliary chain: the companion heat solve m, the pinched
  coefficient nu = (mu u + m)/(u + m), the time integral w with
  lap w = u + m - u_init - r_u int u, and the convexified w-tilde whose
  discrete Laplacian dominates u;

* networks du_i/dt - d_i lap u_i = f_i(u) written as polynomial term
  lists, with the structural checks (quasi-positivity at the faces, mass
  control, one-sided quadratic row bounds for a lower-triangular matrix A)
  and the transformed system dv_i/dt - d_i lap v_i = (A f)_i +
  sum_{k<i} c_ik lap v_k for v = A u.  :func:`general_solve`, the one
  network solver, conserves M = sum beta_i u_i and returns the mass
  potential w = int sum beta_i d_i u_i: mu^{-1} dw/dt - lap w = M(0), with
  mu = sum beta_i d_i u_i / M pinched in [min d_i, max d_i].  The quartet
  (-1)^i (u1 u3 - u2 u4) is the preset :func:`preset_quad4`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

from .errors import ParameterError, SolverError, StructuralError
from .grid import (Field, Trajectory, gradient, march, poisson_neumann,
                   stable_dt)
from .report import EstimateReport

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
    h2 = mask.grid.h ** 2
    row = mask.stencil_row_max()
    v_cap = p.v_ceiling(float(v_init.values.max()))
    mu_head = p.d1 + 2.0 * p.sigma * v_cap
    limit = h2 / (row * max(mu_head, p.d2, 1.0))

    # state rows: u, v, m, int_u, w; u and v are clipped densities
    def diffused(U, out):
        flux = out[4]                  # (d1 + sigma v) u, the w rate less m
        np.multiply(U[1], p.sigma, out=flux)
        flux += p.d1
        flux *= U[0]
        out[2:4] = U[1:3]
        return out[2:]                 # v, m, flux

    def rate(k, t, step, U, LU, top, out):
        mu_now = p.d1 + p.sigma * float(top[1])
        if step > h2 / (row * max(mu_now, p.d2, 1.0)) * (1 + 1e-9):
            raise SolverError(f"CFL breach at step {k}: mu reached {mu_now:.4g}")
        u, v, m = U[:3]
        lap_v, lap_m, lap_flux = LU[:3]
        ru, rv, rm, ri, rw = out       # ri is scratch until its own turn
        np.multiply(u, p.d11, out=rm)
        np.multiply(v, p.d12, out=ri)
        np.subtract(p.r_u, rm, out=ru)
        ru -= ri
        ru *= u
        ru += lap_flux
        rm += ri
        rm *= u
        rm += lap_m
        np.multiply(u, p.d21, out=rv)
        np.subtract(p.r_v, rv, out=rv)
        np.multiply(v, p.d22, out=ri)
        rv -= ri
        rv *= v
        np.multiply(lap_v, p.d2, out=ri)
        rv += ri
        np.copyto(ri, u)
        rw += m
        return out

    state = np.zeros((5, mask.active_count))
    state[0], state[1] = u_init.values, v_init.values
    run = march(mask, state, rate, t_end, dt, limit, n_frames,
                diffused=diffused, clip=2)
    u, v, m, int_u, w = (Trajectory(mask, run.times, f) for f in run.frames)
    return SKTSolution(u=u, v=v, m=m, int_u=int_u, w=w, params=params,
                       dt=run.dt, steps=run.n_steps, clipped_mass=run.clipped)


@dataclass
class SKTAuxiliary:
    m: Trajectory
    nu: Trajectory
    w: Trajectory
    coef: float                 # coefficient of |x|^2/(2d) in w-tilde
    residual: EstimateReport


def skt_auxiliary(sol: SKTSolution) -> SKTAuxiliary:
    """Companion chain m, nu, w and the evolution-identity residual.

    m (dm/dt - lap m = u (d11 u + d12 v), m(0) = 0) and the integrals come
    straight from the solver, which co-evolved them at full step resolution.
    nu is the u/m weighted mean of (d1 + sigma v) and 1.  The residual of

        nu^{-1} dw/dt - lap w = u_init + r_u int_0^t u

    is evaluated with centered time differences at the interior frames; the
    centered quotient of the rectangle-rule w is a window average of
    (mu u + m), so the residual shrinks with both the frame spacing and the
    solver step.
    """
    mask = sol.u.mask
    p = sol.params
    times = sol.u.times
    n_fr = times.size
    dt_s = float(times[1] - times[0]) if n_fr > 1 else 0.0
    m_vals = sol.m.values
    w_vals = sol.w.values

    mu_vals = p.d1 + p.sigma * sol.v.values
    flux = mu_vals * sol.u.values + m_vals      # mu u + m, per frame
    denom = sol.u.values + m_vals
    nu_vals = np.where(denom < 1e-14, mu_vals,
                       flux / np.where(denom < 1e-14, 1.0, denom))

    # residual at interior frames
    u0 = sol.u.values[0]
    worst = 0.0
    scale = 0.0
    if n_fr > 2:
        dwdt = (w_vals[2:] - w_vals[:-2]) / (times[2:] - times[:-2])[:, None]
        lap_w = (mask.laplacian_matrix() @ w_vals[1:-1].T).T
        rhs = u0 + p.r_u * sol.int_u.values[1:-1]
        res = dwdt / nu_vals[1:-1] - lap_w - rhs
        worst = float(np.max(np.abs(res)))
        scale = float(np.max(np.abs(rhs)))
    residual = EstimateReport(
        check="skt_evolution_identity",
        lhs=worst, rhs=max(scale, 1.0) * 0.1,
        passed=bool(worst <= max(scale, 1.0) * 0.1),
        params={"dt_saved": dt_s, "frames": int(n_fr)},
        grid=mask.grid.record(),
        details={"residual_inf": worst, "rhs_scale": scale},
    )

    hd = mask.grid.h ** mask.grid.dim
    vol = mask.active_count * hd
    horizon = float(times[-1])
    sup_l1_u = float(np.max(hd * sol.u.values.sum(axis=1)))
    coef = float(np.max(np.abs(u0))) + p.r_u * horizon / vol * sup_l1_u

    return SKTAuxiliary(
        m=sol.m,
        nu=Trajectory(mask, times, nu_vals),
        w=sol.w,
        coef=coef,
        residual=residual,
    )


def nu_bounds_report(sol: SKTSolution, aux: SKTAuxiliary) -> EstimateReport:
    """nu pinched in [min(1, d1), max(1, d1 + sigma ||v||_inf)] pointwise."""
    p = sol.params
    v_sup = float(np.max(sol.v.values))
    lo = min(1.0, p.d1)
    hi = max(1.0, p.d1 + p.sigma * v_sup)
    nu_min = float(np.min(aux.nu.values))
    nu_max = float(np.max(aux.nu.values))
    breach = max(lo - nu_min, nu_max - hi, 0.0)
    return EstimateReport(
        check="skt_nu_bounds",
        lhs=breach, rhs=1e-12,
        passed=bool(breach <= 1e-12),
        params={"lo": lo, "hi": hi},
        grid=sol.u.grid.record(),
        details={"nu_min": nu_min, "nu_max": nu_max},
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
    w_t = aux.w.values[k] + aux.coef * quad + corr
    lap_t = mask.laplacian_matrix() @ aux.w.values[k] + aux.coef + g
    return Field(mask, w_t), Field(mask, lap_t)


def lp_energy_report(sol: SKTSolution, p: int,
                     c_p: float | None = None) -> EstimateReport:
    """Power-law energy balance for u:

        int u^(p+1)/(p+1) (T) + d1 4p/(p+1)^2 int int |grad u^((p+1)/2)|^2
            <= C_p (1 + int int u^(p+2)).

    Calibration mode (c_p None) fits C_p as lhs/rhs-core and passes.
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
    if c_p is None:
        c_p = lhs / core
        passed = True
    else:
        passed = bool(lhs <= c_p * core * (1 + 1e-9))
    return EstimateReport(
        check="lp_energy",
        lhs=lhs, rhs=c_p * core, passed=passed,
        params={"p": p, "C_p": c_p, "mode": mode},
        grid=mask.grid.record(),
        details={"gradient_coefficient": 4.0 * p / (p + 1) ** 2,
                 "source_integral": source},
    )


# ---------------------------------------------------------------------------
# general networks as polynomial term lists


def poly_combine(*weighted):
    """Linear combination of term lists: weighted = (coef, reaction) pairs."""
    acc: dict = {}
    for cf, reaction in weighted:
        for c, powers in reaction:
            key = tuple(int(e) for e in powers)
            acc[key] = acc.get(key, 0.0) + cf * c
    return [(c, k) for k, c in sorted(acc.items()) if c != 0.0]


def poly_max_coeff(reaction) -> float:
    return max((abs(c) for c, _ in reaction), default=0.0)


def poly_eval(reaction, states: np.ndarray) -> np.ndarray:
    """Evaluate a term list at states of shape (N, m)."""
    return _eval_monomials(*_monomial_table([reaction]), states.T)[0]


def _monomial_table(reactions):
    """Distinct monomials of some term lists, and coefficients C with
    f_i = sum_j C[j, i] * monomial_j."""
    keys = sorted({tuple(int(e) for e in powers)
                   for reaction in reactions for _, powers in reaction})
    row = {key: j for j, key in enumerate(keys)}
    coeffs = np.zeros((len(keys), len(reactions)))
    for i, reaction in enumerate(reactions):
        for c, powers in reaction:
            coeffs[row[tuple(int(e) for e in powers)], i] += c
    return keys, coeffs


def _eval_monomials(keys, coeffs, states: np.ndarray) -> np.ndarray:
    """(len(reactions), N) values of the table at species-major states of
    shape (m, N)."""
    mono = np.empty((len(keys), states.shape[1]))
    for j, powers in enumerate(keys):
        factors = [states[row] if e == 1 else states[row] ** e
                   for row, e in enumerate(powers) if e]
        mono[j] = factors[0] if factors else 1.0
        for x in factors[1:]:
            mono[j] *= x
    return coeffs.T @ mono


def _pad_terms(reaction, m: int):
    return [(float(c), tuple(int(e) for e in powers) + (0,) * (m - len(powers)))
            for c, powers in reaction]


class GeneralSystemSpec:
    """A reaction network plus the structure used to de-triangularize it.

    reactions[i] is a term list for f_i; beta_weights are the positive mass
    weights with sum beta_i f_i <= 0; A is lower triangular with positive
    diagonal and one-sidedly quadratically bounded row sums
    sum_{j<=i} a_ij f_j <= K (1 + sum u)^2.
    """

    def __init__(self, diffusions, reactions, beta_weights, A, K: float,
                 name: str = "custom"):
        self.m = len(reactions)
        if len(diffusions) != self.m or len(beta_weights) != self.m:
            raise ParameterError("inconsistent species count")
        self.diffusions = tuple(float(d) for d in diffusions)
        if min(self.diffusions) <= 0:
            raise ParameterError("diffusions must be positive")
        self.reactions = [_pad_terms(r, self.m) for r in reactions]
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
        self._table = _monomial_table(self.reactions)

    def rates(self, states: np.ndarray) -> np.ndarray:
        """Reaction rates f(u), shape (m, N), at species-major states of
        shape (m, N)."""
        return _eval_monomials(*self._table, states)

    def to_dict(self) -> dict:
        """JSON-ready description (term lists become [coef, powers] pairs)."""
        return {
            "name": self.name,
            "diffusions": list(self.diffusions),
            "reactions": [[[c, list(p)] for c, p in r] for r in self.reactions],
            "beta_weights": list(self.beta_weights),
            "A": self.A.tolist(),
            "K": self.K,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GeneralSystemSpec":
        reactions = [[(float(c), tuple(int(e) for e in p)) for c, p in r]
                     for r in data["reactions"]]
        return cls(data["diffusions"], reactions, data["beta_weights"],
                   data["A"], data["K"], name=data.get("name", "custom"))

    def c_table(self) -> np.ndarray:
        """c_ik = sum_{j=k}^{i-1} (d_j - d_i) a_ij b_jk for k < i."""
        m, A, B, d = self.m, self.A, self.B, self.diffusions
        c = np.zeros((m, m))
        for i in range(m):
            for k in range(i):
                c[i, k] = sum((d[j] - d[i]) * A[i, j] * B[j, k]
                              for j in range(k, i))
        return c

    def mass_combination(self):
        """Term list of sum beta_i f_i (symbolically combined)."""
        return poly_combine(*[(b, r) for b, r in
                              zip(self.beta_weights, self.reactions)])

    def with_companion(self) -> "GeneralSystemSpec":
        """Append the balancing species with f_{m+1} = -sum beta_i f_i.

        The companion diffuses like species 1, extends A by the beta row
        with unit diagonal, and restores an exact mass identity.
        """
        m = self.m
        comp = poly_combine((-1.0, self.mass_combination()))
        comp = _pad_terms(comp, m + 1)
        reactions = [_pad_terms(r, m + 1) for r in self.reactions] + [comp]
        A = np.zeros((m + 1, m + 1))
        A[:m, :m] = self.A
        A[m, :m] = self.beta_weights
        A[m, m] = 1.0
        return GeneralSystemSpec(
            self.diffusions + (self.diffusions[0],),
            reactions,
            self.beta_weights + (1.0,),
            A, self.K, name=self.name + "+companion")


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


def structural_checks(spec: GeneralSystemSpec, n_samples: int = 100_000,
                      box: tuple[float, float] = (0.0, 10.0),
                      raise_on_violation: bool = True) -> EstimateReport:
    """Sample-based audit of quasi-positivity, mass control, and the
    one-sided quadratic row bounds.

    Quasi-positivity is checked on the faces u_i = 0; the mass combination
    is first combined symbolically (exact zero when every coefficient
    cancels); the row bounds report the smallest feasible K and the fitted
    growth exponent of the worst row at large states (diagnostic only).
    A violation raises StructuralError carrying a witness state unless
    ``raise_on_violation`` is false.
    """
    m = spec.m
    sampler = qmc.Halton(d=m, scramble=False)
    states = box[0] + (box[1] - box[0]) * sampler.random(n_samples)
    tol = 1e-12
    scale = (1.0 + states.sum(axis=1)) ** 2

    def fail(condition, index, witness_state, value):
        witness = {"condition": condition, "index": index,
                   "state": [float(x) for x in witness_state],
                   "value": float(value)}
        if raise_on_violation:
            raise StructuralError(
                f"{condition} violated at species {index}: "
                f"value {value:.6g} at state {witness['state']}", witness)
        return witness

    violations = []

    # (A1) quasi-positivity at the faces
    a1_margin = np.inf
    for i in range(m):
        faces = states.copy()
        faces[:, i] = 0.0
        fi = poly_eval(spec.reactions[i], faces)
        worst = int(np.argmin(fi))
        a1_margin = min(a1_margin, float(fi[worst]))
        if fi[worst] < -tol * max(1.0, poly_max_coeff(spec.reactions[i])) \
                * float(scale[worst]):
            violations.append(fail("A1", i, faces[worst], fi[worst]))

    # (A2) mass control
    combo = spec.mass_combination()
    a2_exact = poly_max_coeff(combo) <= 1e-12
    if a2_exact:
        a2_worst = 0.0
    else:
        vals = poly_eval(combo, states)
        worst = int(np.argmax(vals))
        a2_worst = float(vals[worst])
        if a2_worst > tol * float(scale[worst]):
            violations.append(fail("A2", -1, states[worst], a2_worst))

    # (A3) one-sided quadratic row bounds
    rows = spec.rates(states.T).T @ spec.A.T
    fitted_k = 0.0
    a3_worst = -np.inf
    growth_exponent = 0.0
    for i in range(m):
        ratio = rows[:, i] / scale
        k_i = float(np.max(ratio))
        fitted_k = max(fitted_k, max(k_i, 0.0))
        excess = rows[:, i] - spec.K * scale
        worst = int(np.argmax(excess))
        a3_worst = max(a3_worst, float(excess[worst] / scale[worst]))
        if excess[worst] > tol * float(scale[worst]):
            violations.append(fail("A3", i, states[worst],
                                   float(rows[worst, i])))
        pos = rows[:, i] > 1e-12
        if pos.sum() > 10:
            s = np.log1p(states[pos].sum(axis=1))
            top = s >= np.quantile(s, 0.9)
            if top.sum() > 5 and np.ptp(s[top]) > 1e-6:
                slope = np.polyfit(s[top], np.log(rows[pos][top, i]), 1)[0]
                growth_exponent = max(growth_exponent, float(slope))

    passed = not violations
    return EstimateReport(
        check="structural_assumptions",
        lhs=a3_worst if np.isfinite(a3_worst) else 0.0, rhs=0.0,
        passed=passed,
        params={"system": spec.name, "K": spec.K, "samples": n_samples,
                "box": list(box)},
        grid={},
        details={"a1_min_margin": a1_margin,
                 "a2_symbolic_zero": bool(a2_exact),
                 "a2_worst": a2_worst,
                 "fitted_K": fitted_k,
                 "fitted_growth_exponent": growth_exponent,
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
                  sampled_box: tuple[float, float] = (0.0, 10.0)) -> GeneralSolution:
    """Explicit Euler for du_i/dt = d_i lap u_i + f_i(u); appends the
    balancing companion when the mass combination is not symbolically zero
    (companion starts at 0), so sum beta_i u_i is conserved.

    Records u, v = A u and the mass potential w = int sum beta_i d_i u_i,
    companion included: an undiffused state row sums the flux by the left
    rectangle rule, plus dt/2 (flux(t) - flux(0)) at each frame.  If the
    state leaves the structurally sampled box the solution is flagged (the
    caller should re-audit).
    """
    companion = poly_max_coeff(spec.mass_combination()) > 1e-12
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
    limit = stable_dt(mask, diffusion=max(spec.diffusions), safety=1.0)
    m = spec.m
    d = np.asarray(spec.diffusions)
    bd = np.asarray(spec.beta_weights) * d

    def rate(k, t, step, U, LU, top, out):
        for i in range(m):             # row by row: faster than broadcasting
            np.multiply(LU[i], d[i], out=out[i])
        out[:m] += spec.rates(U[:m])
        np.dot(bd, U[:m], out=out[m])
        return out

    state = np.stack([f.values for f in inits] + [np.zeros(mask.active_count)])
    run = march(mask, state, rate, t_end, dt, limit, n_frames,
                diffused=lambda U, out: U[:m], clip=m)
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
        lhs=drift, rhs=1e-10, passed=bool(drift <= 1e-10),
        params={"initial_mass": float(totals[0])},
        grid=sol.w.grid.record(),
        details={"clipped_mass": sol.clipped_mass},
    )


def quad_mu_report(sol: GeneralSolution, diffusions) -> EstimateReport:
    """mu pinched in [min d_i, max d_i] pointwise."""
    mu = _mu(sol, diffusions)[0]
    lo, hi = min(sol.spec.diffusions), max(sol.spec.diffusions)
    breach = max(lo - float(mu.min()), float(mu.max()) - hi, 0.0)
    return EstimateReport(
        check="quad_mu_bounds",
        lhs=breach, rhs=1e-12, passed=bool(breach <= 1e-12),
        params={"lo": lo, "hi": hi},
        grid=sol.w.grid.record(),
        details={"mu_min": float(mu.min()), "mu_max": float(mu.max())},
    )


def quad_identity_report(sol: GeneralSolution, diffusions) -> EstimateReport:
    """Residuals of lap w = M - M(0) and of dw/dt - mu lap w = mu M(0) for
    M = sum beta_i u_i, centered at interior frames."""
    mask = sol.w.mask
    times = sol.w.times
    mu, total = _mu(sol, diffusions)
    sum0 = total[0]
    w = sol.w.values
    worst_lap = worst_evo = 0.0
    if times.size > 2:
        lap_w = (mask.laplacian_matrix() @ w[1:-1].T).T
        worst_lap = float(np.max(np.abs(lap_w - (total[1:-1] - sum0))))
        dwdt = (w[2:] - w[:-2]) / (times[2:] - times[:-2])[:, None]
        worst_evo = float(np.max(np.abs(dwdt - mu[1:-1] * (lap_w + sum0))))
    scale = float(np.max(np.abs(total)))
    return EstimateReport(
        check="quad_integral_identities",
        lhs=max(worst_lap, worst_evo), rhs=0.1 * max(scale, 1.0),
        passed=bool(max(worst_lap, worst_evo) <= 0.1 * max(scale, 1.0)),
        params={"frames": int(times.size)},
        grid=mask.grid.record(),
        details={"lap_identity_inf": worst_lap, "evolution_inf": worst_evo},
    )


def transformed_residual_report(sol: GeneralSolution,
                                burn_in: float = 0.1) -> EstimateReport:
    """Residual of dv_i/dt - d_i lap v_i - (A f)_i - sum_{k<i} c_ik lap v_k.

    Centered time differences at interior frames with t >= burn_in * T.
    The skipped head is where frame-rate sampling cannot resolve the decay
    of the initial data's high modes; past it the residual shrinks with
    both the frame spacing and the solver step.
    """
    spec = sol.spec
    mask = sol.u[0].mask
    times = sol.u[0].times
    t_burn = burn_in * float(times[-1])
    lo = max(1, int(np.searchsorted(times, t_burn)))
    lo = min(lo, times.size - 3) if times.size > 3 else 1
    k = np.arange(lo, times.size - 1)
    worst, scale = 0.0, 1.0
    if k.size:
        u = np.stack([t.values[k] for t in sol.u], axis=-1)      # (K, N, m)
        v = np.stack([t.values for t in sol.v], axis=-1)         # (F, N, m)
        g = spec.rates(u.reshape(-1, spec.m).T).T.reshape(u.shape) @ spec.A.T
        laps = np.stack([mask.laplacian_matrix() @ vk for vk in v[k]])
        dvdt = (v[k + 1] - v[k - 1]) \
            / (times[k + 1] - times[k - 1])[:, None, None]
        diffusive = laps * np.asarray(spec.diffusions)
        res = dvdt - diffusive - g - laps @ spec.c_table().T
        worst = float(np.max(np.abs(res)))
        # residual is judged against the size of the equation's terms
        scale = max(1.0, *(float(np.max(np.abs(x)))
                           for x in (dvdt, diffusive, g)))
    return EstimateReport(
        check="transformed_system_residual",
        lhs=worst, rhs=0.1 * scale,
        passed=bool(worst <= 0.1 * scale),
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
        lhs=err, rhs=1e-12, passed=bool(err <= 1e-12),
        params={"system": spec.name},
        grid=sol.u[0].grid.record(),
        details={},
    )
