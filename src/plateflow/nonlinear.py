"""Deformed-geometry coupling: the interface-straightening map, the quadratic
interaction terms it induces, the smallness gate, and the fixed-point solver
for the fully coupled plate/fluid system.

The moving fluid domain is pulled back to the reference slab with the map
phi(t, x) = (x', x3 - (1 - x3) * eta(t, x')), which fixes the top face and
sends the bottom face onto the deformed interface at height -eta.  Written in
reference coordinates, the equations keep their flat-domain principal part;
everything the curvature of the map generates is collected into correction
terms that are polynomial or rational in eta, its derivatives, and the
unknowns.  Those corrections were re-derived here by the chain rule and
frozen only after an exact symbolic-differentiation oracle confirmed them,
term by term, against the physical-space operators composed with the map.

The map enters only through the geometry of a deflection (`_Geometry`): the
samples of eta, its derivatives and 1/(1 + eta) with the sup that keeps the
map bijective, built once and read by the tensor, the interaction terms, the
forcing pullback, the gate and the residual.  picard_solve builds it once per
iterate and passes it to those functions in place of eta.

All pointwise products (including the rational factor 1/(1 + eta)) are
evaluated on a zero-padded time/lateral lattice and truncated back, so the
quadratic terms are alias-free; the layer direction needs no padding because
products of node values define the collocation product directly.  So the
interaction terms and the forcing pullback take every derivative in
coefficient space and then form their products one block of NODE_BLOCK layer
nodes at a time: memory is bounded by a block, not by the padded slab.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    OVERSAMPLE,
    PlateField,
    SpectralField,
    _apply_layer_matrix,
    divergence,
    dt,
    dx,
    gradient,
    laplacian,
    pad_to_samples,
    samples_to_truncated,
    zeros_like_field,
)
from .grid import TorusGrid, cheb_eval, cheb_values_to_coeffs
from .lift import xi0_incompatibility
from .modes import DEFAULT_PARAMS, SolverParams, _residual_parts, solve_linear_full
from .norms import NormSpec, negative_norm, s_norm, sobolev_norm, x_norm

# Gate limits: the plate-norm budget keeps the geometry perturbative, the sup
# bound keeps the map bijective with room to spare, and the reciprocal bound
# keeps 1/(1 + eta) uniformly tame for the rational terms.
EPS0_DEFAULT = 0.1
SUP_ETA_LIMIT = 0.5
RECIPROCAL_LIMIT = 2.0

# Layer nodes per block of padded products.  Of 1 / 3 / 5 / 9 / 25 (whole
# slab) on a 17 x 17 x 24 Picard solve, 5 had the lowest peak RSS (150 MB
# against 171 and 260 MB at 9 and 25) at a wall time within noise of the best;
# single nodes ran 28% slower.
NODE_BLOCK = 5


class DegenerateDeformationError(ValueError):
    """The deflection is too large for the straightening map to be usable;
    sup_eta is the sup |eta| that failed, when that is the cause."""

    def __init__(self, message: str, sup_eta: float | None = None):
        super().__init__(message)
        self.sup_eta = sup_eta


class PicardDivergenceError(RuntimeError):
    """Fixed-point iteration left its ball or stopped contracting."""

    def __init__(self, message: str, trace: list[dict] | None = None):
        super().__init__(message)
        self.trace = trace or []


# ---- the geometry of one deflection ---------------------------------------------


class _Geometry:
    """Plate-sized samples of one deflection eta; the only place they are built.

    eta_s, g1_s, g2_s, lap_s, det_s: DEALIAS samples of eta, its lateral
    gradient, its lateral Laplacian and its time derivative (real parts when
    `real`); tau = 1/(1 + eta) on the same lattice; sup_eta and floor: the
    OVERSAMPLE sup |eta| and min(1 + Re eta) that the smallness gate reads.
    """

    def __init__(self, eta: PlateField, real: bool):
        over = pad_to_samples(eta.coeffs, eta.grid, OVERSAMPLE)
        self.sup_eta = float(np.max(np.abs(over)))
        # sup |eta| < 1 keeps 1 + eta away from zero, so tau and floor are finite
        if self.sup_eta >= 1.0:
            raise DegenerateDeformationError(
                f"sup |eta| = {self.sup_eta:.3f} >= 1; the straightening map "
                "degenerates", self.sup_eta)
        self.floor = float(np.min(1.0 + over.real))
        self.eta, self.real = eta, real
        self.eta_s, self.g1_s, self.g2_s, self.lap_s, self.det_s = (
            pad_to_samples(d.coeffs, eta.grid, real=real)
            for d in (eta, dx(eta, 1), dx(eta, 2), laplacian(eta), dt(eta)))
        self.tau = 1.0 / (1.0 + self.eta_s)


def _geometry_for(eta, real: bool) -> _Geometry:
    """eta's geometry for products whose other factors are real iff `real`;
    a record that picard_solve built for the iterate passes through."""
    return eta if isinstance(eta, _Geometry) else _Geometry(eta, real and eta.real)


def _e3_row(geo: _Geometry, rho: np.ndarray) -> tuple[np.ndarray, ...]:
    """Third row of the gradient-correction tensor at every layer node."""
    e31 = (geo.g1_s * geo.tau)[..., None] * rho
    e32 = (geo.g2_s * geo.tau)[..., None] * rho
    return e31, e32, np.broadcast_to((-geo.eta_s * geo.tau)[..., None], e31.shape)


def e_matrix(eta: PlateField) -> np.ndarray:
    """Gradient-correction tensor of the straightening map, as coefficients.

    Returns shape (N_t, N_x, N_x, N_z + 1, 3, 3).  Only the third row is
    nonzero: ((1 - x3) d1 eta, (1 - x3) d2 eta, -eta) / (1 + eta).
    """
    g = eta.grid
    geo = _Geometry(eta, eta.real)
    es = np.zeros(geo.eta_s.shape + (g.n_z + 1, 3, 3), dtype=geo.tau.dtype)
    es[..., 2, :] = np.stack(_e3_row(geo, 1.0 - g.nodes), axis=-1)
    return samples_to_truncated(es, g, eta.real)


# ---- interaction terms ---------------------------------------------------------


@dataclass
class PlateTensor:
    """Fourier coefficients of a 3 x 3 tensor on the plate.

    coeffs shape: (N_t, N_x, N_x, 3, 3).  A PlateField holds one scalar, so
    the tensor keeps its own container and never reaches the norm helpers.
    """

    grid: TorusGrid
    coeffs: np.ndarray
    real: bool = False


@dataclass
class NonlinearTerms:
    """Right-hand-side corrections generated by one (u, p, eta) state.

    rf_tilde feeds the momentum slot: the map-induced part, which vanishes
    identically for a flat plate, plus the convective term.  rd_tilde =
    div rd_vector feeds the divergence slot and is mean-free because
    rd_vector vanishes on both faces wherever u does.  r_eta and s_eta act
    on the plate row.
    """

    rf_tilde: SpectralField
    rd_tilde: SpectralField
    rd_vector: SpectralField
    r_eta: PlateField
    s_eta: PlateTensor


def _node_blocks(grid: TorusGrid):
    """Consecutive slices of at most NODE_BLOCK layer nodes, from node 0."""
    n = grid.n_z + 1
    return [slice(j, min(j + NODE_BLOCK, n)) for j in range(0, n, NODE_BLOCK)]


def _layer_rows(grid: TorusGrid, coeffs: np.ndarray, order: int, rows: slice,
                vector: bool) -> np.ndarray:
    """The `rows` nodes of the order-th x3 derivative: rows of grid.dmat."""
    return _apply_layer_matrix(grid.dmat(order)[rows], coeffs, vector)


def _terms_geometry(u: SpectralField, p: SpectralField, eta) -> _Geometry:
    """eta's geometry for the interaction terms of (u, p), after checking
    that the three fields fit together."""
    geo = _geometry_for(eta, u.real and p.real)
    if p.grid != u.grid or geo.eta.grid != u.grid:
        raise ValueError("fields live on different grids")
    if u.components != 3 or p.components != 1:
        raise ValueError("expected a 3-component velocity and a scalar pressure")
    return geo


def _block_momentum(u: SpectralField, p: SpectralField, geo: _Geometry,
                    rows: slice, mu_f: float):
    """Padded samples at one block of layer nodes: the velocity u_s, its layer
    derivative du3, the third row (e31, e32, e33) of the gradient-correction
    tensor and the map-induced momentum part rf_def."""
    g = u.grid

    def pad(c):
        return pad_to_samples(c, g, real=geo.real)

    # lateral multipliers commute with the layer derivative
    u3 = _layer_rows(g, u.coeffs, 1, rows, True)
    u_s, du3 = pad(u.coeffs[..., rows, :]), pad(u3)
    d31 = pad(1j * g.xi_phys[:, None, None, None] * u3)
    d32 = pad(1j * g.xi_phys[None, :, None, None] * u3)
    d33 = pad(_layer_rows(g, u.coeffs, 2, rows, True))
    dp3 = pad(_layer_rows(g, p.coeffs, 1, rows, False))

    tau = geo.tau
    grad_sq = geo.g1_s * geo.g1_s + geo.g2_s * geo.g2_s
    rho = 1.0 - g.nodes[rows]
    e31, e32, e33 = _e3_row(geo, rho)
    # div of the tensor row plus its quadratic companion, expanded in eta
    first_coef = (geo.lap_s * tau - 2.0 * grad_sq * tau * tau)[..., None] * rho
    e3_norm_sq = e31 * e31 + e32 * e32 + e33 * e33
    e3_dot_u = e31 * u_s[..., 0] + e32 * u_s[..., 1] + e33 * u_s[..., 2]
    time_coef = (geo.det_s * tau)[..., None] * rho

    rf_def = (
        -du3 * time_coef[..., None]
        + mu_f * (
            2.0 * (d31 * e31[..., None] + d32 * e32[..., None] + d33 * e33[..., None])
            + d33 * e3_norm_sq[..., None]
            + du3 * first_coef[..., None]
        )
        - du3 * e3_dot_u[..., None]
        - dp3[..., None] * np.stack([e31, e32, e33], axis=-1)
    )
    return u_s, du3, (e31, e32, e33), rf_def


def compute_nonlinear_terms(u: SpectralField, p: SpectralField, eta: PlateField,
                            mu_f: float = 1.0) -> NonlinearTerms:
    """Evaluate every interaction term pseudospectrally on a padded lattice.

    The momentum correction acts only through layer derivatives: because the
    map moves points vertically, all second-derivative corrections contract
    against the third row of the gradient-correction tensor, i.e. against
    d3 d_k u, never against purely lateral second derivatives.

    Products are formed per block of layer nodes (see the module docstring);
    the plate-row terms come from the node-0 block.
    """
    g = u.grid
    geo = _terms_geometry(u, p, eta)
    real_in, eta_s, g1_s, g2_s = geo.real, geo.eta_s, geo.g1_s, geo.g2_s
    i1 = 1j * g.xi_phys[:, None, None, None]
    i2 = 1j * g.xi_phys[None, :, None, None]

    rf_tilde, rd_vector = np.empty_like(u.coeffs), np.empty_like(u.coeffs)
    for rows in _node_blocks(g):
        u_s, du3, (e31, e32, e33), rf_def = _block_momentum(u, p, geo, rows, mu_f)
        ub = u.coeffs[..., rows, :]
        du1 = pad_to_samples(i1 * ub, g, real=real_in)
        du2 = pad_to_samples(i2 * ub, g, real=real_in)
        convective = (u_s[..., 0:1] * du1 + u_s[..., 1:2] * du2 + u_s[..., 2:3] * du3)
        rho = 1.0 - g.nodes[rows]
        rd = np.stack(
            [
                -eta_s[..., None] * u_s[..., 0],
                -eta_s[..., None] * u_s[..., 1],
                -(g1_s[..., None] * u_s[..., 0] + g2_s[..., None] * u_s[..., 1]) * rho,
            ],
            axis=-1,
        )
        rf_tilde[..., rows, :] = samples_to_truncated(rf_def - convective, g, real_in)
        rd_vector[..., rows, :] = samples_to_truncated(rd, g, real_in)

        if rows.start == 0:
            # plate-row terms live on the bottom face, where the blend is 1
            du3_0 = du3[..., 0, :]
            t31 = mu_f * (du1[..., 0, 2] + du3_0[..., 0])
            t32 = mu_f * (du2[..., 0, 2] + du3_0[..., 1])
            e3_0 = np.stack([e31[..., 0], e32[..., 0], e33[..., 0]], axis=-1)
            a = mu_f * du3_0[..., :, None] * e3_0[..., None, :]
            s_eta_s = a + np.swapaxes(a, -1, -2)
            r_eta_s = (
                -(t31 + s_eta_s[..., 2, 0]) * g1_s
                - (t32 + s_eta_s[..., 2, 1]) * g2_s
                - s_eta_s[..., 2, 2]
            )

    rd_vector = SpectralField(g, rd_vector, 3, real_in)
    r_eta = PlateField(g, samples_to_truncated(r_eta_s, g, real_in), real_in)
    s_eta = PlateTensor(g, samples_to_truncated(s_eta_s, g, real_in), real_in)
    return NonlinearTerms(SpectralField(g, rf_tilde, 3, real_in),
                          divergence(rd_vector), rd_vector, r_eta, s_eta)


def _deformation_momentum(u: SpectralField, p: SpectralField, eta: PlateField,
                          mu_f: float = 1.0) -> np.ndarray:
    """Coefficients of the map-induced part of rf_tilde alone (rf_tilde less
    the convective term), which vanishes identically for a flat plate.

    The solver never needs it apart; the flat-plate checks read it.
    """
    geo = _terms_geometry(u, p, eta)
    out = np.empty_like(u.coeffs)
    for rows in _node_blocks(u.grid):
        rf_def = _block_momentum(u, p, geo, rows, mu_f)[-1]
        out[..., rows, :] = samples_to_truncated(rf_def, u.grid, geo.real)
    return out


# ---- smallness gate ------------------------------------------------------------


@dataclass(frozen=True)
class SmallnessReport:
    passed: bool
    plate_norm: float
    plate_limit: float
    sup_eta: float
    reciprocal_sup: float
    margin: float


def _gate(eta: PlateField, eps0: float, q: float
          ) -> tuple[SmallnessReport, _Geometry | None]:
    """The smallness report of eta and its geometry record, which is None
    when the map degenerates: a gate fails rather than raising."""
    try:
        geo = _Geometry(eta, eta.real)
        sup, reciprocal = geo.sup_eta, 1.0 / geo.floor
    except DegenerateDeformationError as err:
        geo, sup, reciprocal = None, err.sup_eta, np.inf
    plate_norm = s_norm(eta, q)
    passed = (plate_norm <= eps0 and sup <= SUP_ETA_LIMIT
              and reciprocal <= RECIPROCAL_LIMIT)
    return SmallnessReport(
        passed=bool(passed),
        plate_norm=plate_norm,
        plate_limit=eps0,
        sup_eta=sup,
        reciprocal_sup=float(reciprocal),
        margin=eps0 - plate_norm,
    ), geo


# ---- empirical bound ratios ------------------------------------------------------


def nonlinear_bound_ratios(u: SpectralField, p: SpectralField, eta: PlateField,
                           q: float = 2.0, eps0: float = EPS0_DEFAULT,
                           mu_f: float = 1.0) -> dict[str, float]:
    """Left/right quotients of the three quadratic-term estimates.

    The momentum right side keeps the squared velocity term outside the
    plate-norm factor so the quotient stays meaningful as eta -> 0, where
    the correction reduces to the convective term.  Zero data reports zero.
    """
    terms = compute_nonlinear_terms(u, p, eta, mu_f=mu_f)
    nu = sobolev_norm(u, NormSpec(1, 2, q))
    ngp = sobolev_norm(gradient(p), NormSpec(0, 0, q))
    ns = s_norm(eta, q)

    lhs_f = sobolev_norm(terms.rf_tilde, NormSpec(0, 0, q))
    rhs_f = ((1.0 + eps0) * nu + ngp) * ns + nu * nu

    lhs_d = (sobolev_norm(terms.rd_tilde, NormSpec(0, 1, q))
             + negative_norm(terms.rd_tilde, q=q, time_order=1))
    rhs_d = nu * ns

    lhs_e = sobolev_norm(terms.r_eta, NormSpec(0, 1.0 - 1.0 / q, q))
    rhs_e = (1.0 + eps0) * (ns * nu + nu + sobolev_norm(p, NormSpec(0, 1, q)))

    def quot(lhs, rhs):
        return float(lhs / rhs) if rhs > 0.0 else 0.0

    return {
        "momentum": quot(lhs_f, rhs_f),
        "divergence": quot(lhs_d, rhs_d),
        "plate": quot(lhs_e, rhs_e),
    }


# ---- forcing pullback ------------------------------------------------------------


def compose_forcing(f: SpectralField, eta: PlateField) -> SpectralField:
    """Pull a 3-component momentum forcing back through the straightening map.

    The composition is sampled on the padded lattice at the displaced layer
    coordinate and truncated back, so grid data is evaluated through its
    Chebyshev interpolant (polynomial continuation covers the small
    overhang where the displaced coordinate leaves [0, 1]).  The layer
    series is taken on the grid lattice, where it commutes with the periodic
    synthesis, summed one displaced node at a time and analyzed one block of
    nodes at a time.
    """
    geo = _geometry_for(eta, f.real)
    g = geo.eta.grid
    if f.grid != g:
        raise ValueError("forcing grid does not match the deflection grid")
    if f.components != 3:
        raise ValueError("expected a 3-component forcing field")
    if not np.any(geo.eta.coeffs):
        return f.copy()

    real_in, eta_s = geo.real, geo.eta_s
    # (series, component, t, x'), contiguous: each Clenshaw step reads one
    # contiguous slice, and each column's series broadcasts over that
    # column's displaced point
    series = np.ascontiguousarray(np.moveaxis(pad_to_samples(
        cheb_values_to_coeffs(f.coeffs, axis=3), g, real=real_in), (3, 4), (0, 1)))
    out = np.empty_like(f.coeffs)
    for rows in _node_blocks(g):
        composed = np.empty(eta_s.shape + (rows.stop - rows.start, 3),
                            np.result_type(series, eta_s))
        # one displaced node at a time: the recurrence's buffers stay in cache
        for j, node in enumerate(g.nodes[rows]):
            displaced = node * (1.0 + eta_s) - eta_s
            composed[..., j, :] = np.moveaxis(cheb_eval(series, displaced, axis=0), 0, -1)
        out[..., rows, :] = samples_to_truncated(composed, g, real_in)
    return SpectralField(g, out, 3, real_in)


# ---- fixed-point solver -----------------------------------------------------------


@dataclass(frozen=True)
class PicardConfig:
    """Settings of the fixed-point iteration.

    eps is the data-smallness scale; the iterate ball defaults to sqrt(eps).
    Control-flow norms use q = 2 so the stopping rule is evaluated exactly.
    """

    eps: float = 1e-3
    radius: float | None = None
    max_iter: int = 25
    picard_tol: float = 1e-11
    eps0: float = EPS0_DEFAULT
    q: float = 2.0
    params: SolverParams = DEFAULT_PARAMS

    @property
    def ball_radius(self) -> float:
        return self.radius if self.radius is not None else float(np.sqrt(self.eps))


@dataclass
class PicardResult:
    """Final iterate with its trace; gate is the smallness report of the
    sweep that produced the iterate."""

    u: SpectralField
    p: SpectralField
    eta: PlateField
    converged: bool
    iterations: int
    trace: list[dict]
    residuals: dict[str, float]
    radius: float
    in_ball: bool
    gate: SmallnessReport


def picard_solve(f, h: PlateField | None, config: PicardConfig | None = None,
                 grid: TorusGrid | None = None) -> PicardResult:
    """Iterate the data-to-solution map of the linear system on the
    correction-augmented right-hand sides, starting from rest.

    Each sweep recomputes the pulled-back forcing and every interaction term
    at the current iterate, solves the linear system, and measures the step
    in the solution norm.  The iterate must stay inside the configured ball
    and keep contracting; leaving the ball or a step ratio >= 1 raises
    PicardDivergenceError with the trace attached.
    """
    config = config or PicardConfig()
    if config.max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if h is None:
        if grid is None and f is None:
            raise ValueError("grid is needed when both f and h are implicit")
        h = zeros_like_field(grid if grid is not None else f.grid, plate=True)
    g = h.grid
    if f is not None and f.grid != g:
        raise ValueError("f and h live on different grids")
    params = config.params
    radius = config.ball_radius

    u = zeros_like_field(g, components=3)
    p = zeros_like_field(g)
    # before the first sweep the flat rest state stands in for its record
    geo = eta = zeros_like_field(g, plate=True)

    trace: list[dict] = []
    converged = False
    prev_step = None
    iterations = 0
    for n in range(1, config.max_iter + 1):
        iterations = n
        rhs_f = None if f is None else compose_forcing(f, geo)
        # at rest every interaction term vanishes exactly, so sweep 1 skips them
        rd, rhs_h, rd_mean = None, h, 0.0
        if n > 1:
            terms = compute_nonlinear_terms(u, p, geo, mu_f=params.mu_f)
            rhs_f = terms.rf_tilde if rhs_f is None else rhs_f + terms.rf_tilde
            rd, rhs_h = terms.rd_tilde, h + terms.r_eta
            # xi' = 0 compatibility of the divergence slot, rechecked numerically
            rd_mean = xi0_incompatibility(g, rd.coeffs)

        sol = solve_linear_full(rhs_f, rd, rhs_h, grid=g,
                                params=params, route="lift", compute_ratio=False)
        new_norm = x_norm(sol.u, sol.p, sol.eta, q=config.q)
        step = x_norm(sol.u - u, sol.p - p, sol.eta - eta, q=config.q)
        ratio = (step / prev_step) if prev_step else None

        gate, next_geo = _gate(sol.eta, config.eps0, config.q)
        trace.append(
            {
                "iteration": n,
                "x_norm": new_norm,
                "step": step,
                "ratio": ratio,
                "rd_mean": rd_mean,
                "plate_norm": gate.plate_norm,
                "sup_eta": gate.sup_eta,
                "in_ball": bool(new_norm <= radius),
            }
        )
        if not gate.passed:
            err = DegenerateDeformationError(
                f"smallness gate failed at iteration {n}: plate norm "
                f"{gate.plate_norm:.3e}, sup {gate.sup_eta:.3e}"
            )
            err.trace = trace
            raise err
        if new_norm > radius:
            raise PicardDivergenceError(
                f"iterate left the ball: {new_norm:.3e} > {radius:.3e}", trace
            )
        if ratio is not None and ratio >= 1.0 and step > 10.0 * config.picard_tol:
            raise PicardDivergenceError(
                f"contraction failed: step ratio {ratio:.3f} >= 1", trace
            )
        u, p, eta, geo = sol.u, sol.p, sol.eta, next_geo
        if step < config.picard_tol:
            converged = True
            break
        if step > 0.0:
            prev_step = step

    residuals = nonlinear_residual(u, p, geo, f, h, mu_f=params.mu_f,
                                   mu_s=params.mu_s)
    return PicardResult(u=u, p=p, eta=eta, converged=converged,
                        iterations=iterations, trace=trace,
                        residuals=residuals, radius=radius,
                        in_ball=trace[-1]["in_ball"], gate=gate)


# ---- full-system residuals ---------------------------------------------------------


def nonlinear_residual(u: SpectralField, p: SpectralField, eta: PlateField,
                       f=None, h: PlateField | None = None,
                       mu_f: float = 1.0, mu_s: float = 1.0) -> dict[str, float]:
    """Max-magnitude residuals of the six transformed-system equations.

    Momentum rows are collocated at interior nodes only; the two face rows
    belong to the trace conditions.  The plate row is evaluated in
    coefficient space against the damped symbol.
    """
    g = u.grid
    geo = _geometry_for(eta, u.real and p.real)
    terms = compute_nonlinear_terms(u, p, geo, mu_f=mu_f)
    rhs_f = terms.rf_tilde
    if f is not None:
        rhs_f = compose_forcing(f, eta) + rhs_f
    rhs_h = terms.r_eta if h is None else h + terms.r_eta
    xp = g.xi_phys
    parts = _residual_parts(g, u.coeffs, p.coeffs, geo.eta.coeffs,
                            g.k_phys[:, None, None], xp[:, None], xp,
                            rhs_f.coeffs, terms.rd_tilde.coeffs, rhs_h.coeffs,
                            mu_f, mu_s)
    mid_x = (g.n_x - 1) // 2
    parts["plate_mean"] = float(np.max(np.abs(geo.eta.coeffs[:, mid_x, mid_x])))
    return parts
