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
iterate and passes it to those functions in place of eta.  One helper,
`_map_rhs`, forms the fixed-point map's right-hand sides at a state for both
a Picard sweep and `nonlinear_residual`.  A sweep solves on them with
`solve_linear_full`: the divergence slot goes straight into the mode
solves' continuity rows, with no divergence lift.

All pointwise products (including the rational factor 1/(1 + eta)) are
evaluated on a zero-padded time/lateral lattice and truncated back, so the
quadratic terms are alias-free; the layer direction needs no padding because
products of node values define the collocation product directly.  So the
interaction terms and the forcing pullback take every derivative in
coefficient space and then form their products one block of NODE_BLOCK layer
nodes at a time: memory is bounded by a block, not by the padded slab.  A
block is a slice of the stored node axis, (comp, node, t, x1, x2): the
padded transform takes it as it is, the plate-sized geometry samples
broadcast over its leading axes, its layer derivatives are the block's rows
of `fields.layer_derivative`, and its results are analyzed straight into the
block's slice of the outputs.  The velocity and its layer derivative are
each synthesized with their two lateral derivatives in one shared set of
transform passes (`fields.pad_with_lateral_derivatives`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    OVERSAMPLE,
    PlateField,
    SpectralField,
    divergence,
    dt,
    dx,
    laplacian,
    layer_derivative,
    pad_to_samples,
    pad_with_lateral_derivatives,
    samples_to_truncated,
    zeros_like_field,
)
from .grid import TorusGrid, cheb_eval, cheb_values_to_coeffs
from .modes import (DEFAULT_PARAMS, SolverParams, _residual_parts, solve_linear_full,
                    xi0_incompatibility)
from .norms import s_norm, x_norm

# Gate limits: the plate-norm budget keeps the geometry perturbative, the sup
# bound keeps the map bijective with room to spare, and the reciprocal bound
# keeps 1/(1 + eta) uniformly tame for the rational terms.
EPS0_DEFAULT = 0.1
SUP_ETA_LIMIT = 0.5
RECIPROCAL_LIMIT = 2.0

# Layer nodes per block of padded products.  Of 1 / 3 / 5 / 9 / 25 (whole
# slab) on a 17 x 17 x 24 Picard solve (median of 5 fresh processes, 2-core
# VM), the node-major blocks peaked at 122 / 126 / 125 / 145 / 220 MB RSS
# with wall times of 4.38 / 4.36 / 4.41 / 4.53 / 4.81 s, within noise of each
# other up to 9.  Single nodes save 3 MB but send the one-row layer GEMM to
# another BLAS kernel, which changes the output bits; 3 and 5 tie.
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
    """Third row of the gradient-correction tensor at the layer nodes whose
    blend weights rho = 1 - x3 are given, node-major: (node, t, x1, x2)."""
    e31 = geo.g1_s * geo.tau * rho
    e32 = geo.g2_s * geo.tau * rho
    return e31, e32, np.broadcast_to(-geo.eta_s * geo.tau, e31.shape)


def _blend(grid: TorusGrid, rows: slice = slice(None)) -> np.ndarray:
    """rho = 1 - x3 at the `rows` nodes, shaped to lead a node-major block."""
    return (1.0 - grid.nodes[rows])[:, None, None, None]


def e_matrix(eta: PlateField) -> np.ndarray:
    """Gradient-correction tensor of the straightening map, as coefficients.

    Returns shape (3, 3, N_z + 1, N_t, N_x, N_x), (row, column) in front of
    the stored slab axes.  Only the third row is nonzero:
    ((1 - x3) d1 eta, (1 - x3) d2 eta, -eta) / (1 + eta).
    """
    g = eta.grid
    geo = _Geometry(eta, eta.real)
    es = np.zeros((3, 3, g.n_z + 1) + geo.eta_s.shape, dtype=geo.tau.dtype)
    es[2] = np.stack(_e3_row(geo, _blend(g)))
    return samples_to_truncated(es, g, eta.real)


# ---- interaction terms ---------------------------------------------------------


@dataclass
class NonlinearTerms:
    """Right-hand-side corrections generated by one (u, p, eta) state.

    rf_tilde feeds the momentum slot: the map-induced part, which vanishes
    identically for a flat plate, plus the convective term.  rd_tilde =
    div rd_vector feeds the divergence slot and is mean-free because
    rd_vector vanishes on both faces wherever u does, so picard_solve hands
    it to the mode solves' continuity rows as it is (through
    solve_linear_full).  r_eta acts on the plate row.
    """

    rf_tilde: SpectralField
    rd_tilde: SpectralField
    rd_vector: SpectralField
    r_eta: PlateField


def _node_blocks(grid: TorusGrid):
    """Consecutive slices of at most NODE_BLOCK layer nodes, from node 0."""
    n = grid.n_z + 1
    return [slice(j, min(j + NODE_BLOCK, n)) for j in range(0, n, NODE_BLOCK)]


def _terms_inputs(u: SpectralField, p: SpectralField, eta) -> _Geometry:
    """eta's geometry for the interaction terms of (u, p), after checking
    that the three fields fit together."""
    geo = _geometry_for(eta, u.real and p.real)
    if p.grid != u.grid or geo.eta.grid != u.grid:
        raise ValueError("fields live on different grids")
    if u.components != 3 or p.components != 1:
        raise ValueError("expected a 3-component velocity and a scalar pressure")
    return geo


def _block_momentum(g: TorusGrid, u: np.ndarray, p: np.ndarray,
                    geo: _Geometry, rows: slice, u_s: np.ndarray, mu_f: float):
    """Padded samples at one block of layer nodes, given the stored
    coefficients u, (comp, node, t, x1, x2), and p, (node, t, x1, x2), and
    the velocity's samples u_s there: its layer derivative du3, shaped like
    u_s, the third row (e31, e32, e33) of the gradient-correction tensor,
    each (node, t, x1, x2), and the map-induced momentum part rf_def,
    shaped like u_s."""

    def pad(c):
        return pad_to_samples(c, g, real=geo.real)

    # lateral multipliers commute with the layer derivative
    du3, d31, d32 = pad_with_lateral_derivatives(layer_derivative(g, u, 1, rows),
                                                 g, geo.real)
    d33 = pad(layer_derivative(g, u, 2, rows))
    dp3 = pad(layer_derivative(g, p, 1, rows))

    tau = geo.tau
    grad_sq = geo.g1_s * geo.g1_s + geo.g2_s * geo.g2_s
    rho = _blend(g, rows)
    e31, e32, e33 = _e3_row(geo, rho)
    # div of the tensor row plus its quadratic companion, expanded in eta
    first_coef = (geo.lap_s * tau - 2.0 * grad_sq * tau * tau) * rho
    e3_norm_sq = e31 * e31 + e32 * e32 + e33 * e33
    e3_dot_u = e31 * u_s[0] + e32 * u_s[1] + e33 * u_s[2]
    time_coef = geo.det_s * tau * rho

    rf_def = (
        -du3 * time_coef
        + mu_f * (
            2.0 * (d31 * e31 + d32 * e32 + d33 * e33)
            + d33 * e3_norm_sq
            + du3 * first_coef
        )
        - du3 * e3_dot_u
        - dp3 * np.stack([e31, e32, e33])
    )
    return du3, (e31, e32, e33), rf_def


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
    geo = _terms_inputs(u, p, eta)
    real_in, eta_s, g1_s, g2_s = geo.real, geo.eta_s, geo.g1_s, geo.g2_s

    rf_tilde, rd_vector = np.empty_like(u.coeffs), np.empty_like(u.coeffs)
    for rows in _node_blocks(g):
        u_s, du1, du2 = pad_with_lateral_derivatives(u.coeffs[:, rows], g, real_in)
        du3, (e31, e32, e33), rf_def = _block_momentum(g, u.coeffs, p.coeffs, geo,
                                                       rows, u_s, mu_f)
        convective = u_s[0] * du1 + u_s[1] * du2 + u_s[2] * du3
        rd = np.stack([-eta_s * u_s[0], -eta_s * u_s[1],
                       -(g1_s * u_s[0] + g2_s * u_s[1]) * _blend(g, rows)])
        rf_tilde[:, rows] = samples_to_truncated(rf_def - convective, g, real_in)
        rd_vector[:, rows] = samples_to_truncated(rd, g, real_in)

        if rows.start == 0:
            # plate-row terms live on the bottom face, where the blend is 1
            du3_0 = du3[:, 0]
            t31 = mu_f * (du1[2, 0] + du3_0[0])
            t32 = mu_f * (du2[2, 0] + du3_0[1])
            e3_0 = np.stack([e31[0], e32[0], e33[0]])
            # third row of a + a^T, a = mu_f du3 (x) e3 being the face stress
            # the map adds
            a = mu_f * du3_0
            s3 = a[2] * e3_0 + a * e3_0[2]
            r_eta_s = -(t31 + s3[0]) * g1_s - (t32 + s3[1]) * g2_s - s3[2]
        # the next block's samples need not sit beside this block's
        del u_s, du1, du2, du3, e31, e32, e33, rf_def, convective, rd

    rd_vector = SpectralField(g, rd_vector, 3, real_in)
    r_eta = PlateField(g, samples_to_truncated(r_eta_s, g, real_in), real_in)
    return NonlinearTerms(SpectralField(g, rf_tilde, 3, real_in),
                          divergence(rd_vector), rd_vector, r_eta)


def _deformation_momentum(u: SpectralField, p: SpectralField, eta: PlateField,
                          mu_f: float = 1.0) -> np.ndarray:
    """Coefficients of the map-induced part of rf_tilde alone (rf_tilde less
    the convective term), which vanishes identically for a flat plate.

    The solver never needs it apart; the flat-plate checks read it.
    """
    g = u.grid
    geo = _terms_inputs(u, p, eta)
    out = np.empty_like(u.coeffs)
    for rows in _node_blocks(g):
        u_s = pad_to_samples(u.coeffs[:, rows], g, real=geo.real)
        rf_def = _block_momentum(g, u.coeffs, p.coeffs, geo, rows, u_s, mu_f)[-1]
        out[:, rows] = samples_to_truncated(rf_def, g, geo.real)
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
    # (series, component, t, x'), contiguous as the padded transform returns
    # it: each Clenshaw step reads one contiguous slice, and each column's
    # series broadcasts over that column's displaced point
    series = pad_to_samples(np.moveaxis(cheb_values_to_coeffs(f.coeffs, axis=1),
                                        1, 0), g, real=real_in)
    out = np.empty_like(f.coeffs)
    for rows in _node_blocks(g):
        composed = np.empty((3, rows.stop - rows.start) + eta_s.shape,
                            np.result_type(series, eta_s))
        # one displaced node at a time: the recurrence's buffers stay in cache
        for j, node in enumerate(g.nodes[rows]):
            composed[:, j] = cheb_eval(series, node * (1.0 + eta_s) - eta_s, axis=0)
        out[:, rows] = samples_to_truncated(composed, g, real_in)
    return SpectralField(g, out, 3, real_in)


# ---- fixed-point solver -----------------------------------------------------------


def _map_rhs(u: SpectralField, p: SpectralField, geo, f, h, mu_f: float):
    """Momentum, divergence and plate right-hand sides of the fixed-point map
    at the state (u, p, eta), geo being eta or its geometry record: the
    pulled-back f, zero and h, each corrected by the interaction terms.
    None stands for zero data; every term carries a factor of u or p, so at
    rest none is formed."""
    rhs_f = None if f is None else compose_forcing(f, geo)
    if not (u.coeffs.any() or p.coeffs.any()):
        return rhs_f, None, h
    terms = compute_nonlinear_terms(u, p, geo, mu_f=mu_f)
    rhs_f = terms.rf_tilde if rhs_f is None else rhs_f + terms.rf_tilde
    rhs_h = terms.r_eta if h is None else h + terms.r_eta
    return rhs_f, terms.rd_tilde, rhs_h


@dataclass(frozen=True)
class PicardConfig:
    """Settings of the fixed-point iteration.

    eps is the data-smallness scale; the iterate ball has radius sqrt(eps).
    The step, the ball and the smallness gate use the norms of exponent q.
    The loop stops when a step, or from sweep 3 on its a-posteriori error
    bound (see picard_solve), falls below picard_tol.  params sets every
    sweep's linear solve.
    """

    eps: float = 1e-3
    max_iter: int = 25
    picard_tol: float = 1e-11
    eps0: float = EPS0_DEFAULT
    q: float = 2.0
    params: SolverParams = DEFAULT_PARAMS


@dataclass
class PicardResult:
    """Final iterate with its trace; gate is the smallness report of the
    sweep that produced the iterate.  error_bound is q / (1 - q) times the
    last step, q being the largest step ratio the stop used, or None when
    there is no such ratio or q >= 1."""

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
    error_bound: float | None


def picard_solve(f, h: PlateField, config: PicardConfig | None = None
                 ) -> PicardResult:
    """Iterate the data-to-solution map of the linear system on the
    correction-augmented right-hand sides, starting from rest.

    Each sweep forms the map's right-hand sides at the iterate (`_map_rhs`),
    solves the linear system on them (`solve_linear_full`) and measures the
    step in the solution norm.  The loop stops when a step falls below
    picard_tol, or, from sweep 3 on, when Banach's a-posteriori estimate
    q / (1 - q) * step of the distance to the fixed point does, q < 1 being
    the largest step ratio seen (Zeidler, Nonlinear Functional Analysis and
    its Applications I, section 1.1).  The iterate must stay inside the
    ball of radius sqrt(eps) and keep contracting; leaving the ball or a
    step ratio >= 1 raises PicardDivergenceError with the trace attached.
    """
    config = config or PicardConfig()
    if config.max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    g = h.grid
    if f is not None and f.grid != g:
        raise ValueError("f and h live on different grids")
    params = config.params
    radius = float(np.sqrt(config.eps))

    u = zeros_like_field(g, components=3)
    p = zeros_like_field(g)
    # before the first sweep the flat rest state stands in for its record
    geo = eta = zeros_like_field(g, plate=True)

    trace: list[dict] = []
    converged = False
    prev_step = q = None
    for n in range(1, config.max_iter + 1):
        rhs_f, rd, rhs_h = _map_rhs(u, p, geo, f, h, params.mu_f)
        # rd = div R with R zero on both faces already meets xi' = 0, so the
        # mode solves take it in their continuity rows; solve_linear_full
        # checks it against compat_tol, and the trace keeps its value
        rd_mean = 0.0 if rd is None else xi0_incompatibility(g, rd.coeffs)
        sol = solve_linear_full(rhs_f, rd, rhs_h, grid=g, params=params)
        # the next sweep's terms need not sit beside this sweep's data
        del rhs_f, rd, rhs_h
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
                f"iterate left the ball at iteration {n}: {new_norm:.3e} > "
                f"{radius:.3e}", trace
            )
        if ratio is not None and ratio >= 1.0 and step > 10.0 * config.picard_tol:
            raise PicardDivergenceError(
                f"contraction failed at iteration {n}: step ratio {ratio:.3f} "
                ">= 1", trace
            )
        u, p, eta, geo = sol.u, sol.p, sol.eta, next_geo
        if step < config.picard_tol:
            converged = True
            break
        # every ratio that enters q has a numerator step at or above
        # picard_tol, because a smaller step stops the loop first: q is never
        # read off steps at round-off
        if ratio is not None:
            q = ratio if q is None else max(q, ratio)
            if n >= 3 and q < 1.0 and q / (1.0 - q) * step < config.picard_tol:
                converged = True
                break
        prev_step = step
    error_bound = q / (1.0 - q) * step if q is not None and q < 1.0 else None

    residuals = nonlinear_residual(u, p, geo, f, h, mu_f=params.mu_f,
                                   mu_s=params.mu_s)
    return PicardResult(u=u, p=p, eta=eta, converged=converged,
                        iterations=n, trace=trace,
                        residuals=residuals, radius=radius,
                        in_ball=trace[-1]["in_ball"], gate=gate,
                        error_bound=error_bound)


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
    geo = _geometry_for(eta, u.real and p.real and (f is None or f.real))
    rhs = [None if r is None else r.coeffs
           for r in _map_rhs(u, p, geo, f, h, mu_f)]
    xp = g.xi_phys
    parts = _residual_parts(g, u.coeffs, p.coeffs, geo.eta.coeffs,
                            g.k_phys[:, None, None], xp[:, None], xp,
                            *rhs, mu_f, mu_s)
    mid_x = (g.n_x - 1) // 2
    parts["plate_mean"] = float(np.max(np.abs(geo.eta.coeffs[:, mid_x, mid_x])))
    return parts
