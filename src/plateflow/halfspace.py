"""Half-space response formulas and the coupled plate multiplier.

With the layer replaced by the half space above the plate, the response of
the coupled system to a single plate-displacement mode is available in
closed form: decaying exponentials for the velocity and pressure profiles
and an algebraic symbol for the plate balance.  The reciprocal of that
symbol is a Fourier multiplier whose boundedness encodes the damping of the
coupled dynamics; lattice scans here quantify it and contrast it with the
undamped variant, which is singular on the resonance ring.

One broadcasting symbol kernel serves every caller: _fluid_load is the
half-space load and _coupled_symbol adds it to modes._damped_symbol.  One
ring rule, _undamped_gap, decides membership of the resonance ring.

All frequency arguments are integers on the lattice; grid._phys applies
the 2*pi/period scaling to physical wave numbers.  Viscosity is
normalized to one in this module, matching the closed-form profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import _distinct, _phys
from .modes import _damped_symbol

# fitting window for the decay-exponent rays: top decade of the scan range
_RAY_POINTS = 24
# side of the square (k, s) tiles of the pruned boundedness scan: of 32, 48,
# 64, 96 and 128, 64 scanned both criterion-02 windows fastest (median of 5
# interleaved runs on a 2-core Xeon: 1.46 s, the others 1.52-2.08 s)
_TILE = 64
# relative safety margin that keeps each tile bound above rounded values
_BOUND_MARGIN = 1e-12
# ring tolerance relative to |xi'|^4 + k^2: off the 2*pi periods rounding
# leaves ring points a gap (worst for k < 400: 2.24 eps at (T, L) = (1,
# sqrt(2*pi)), 3.06 eps at (3, sqrt(6*pi))); off-ring gaps are ~1/k or more
_RING_TOL = 16.0 * np.finfo(float).eps


def _decay_root(a2, kp):
    """Principal branch of sqrt(|xi'|^2 + ik); real part must be positive."""
    root = np.sqrt(a2 + 1j * kp)
    if not np.all(np.real(root) > 0.0):
        raise ArithmeticError("square-root branch lost positivity of the real part")
    return root


def _fluid_load(kp, a2):
    """-k^2/|xi'| + i k (|xi'| + sqrt(|xi'|^2 + ik)) at physical k and a2 = |xi'|^2.

    The one definition of the half-space fluid load on the plate; a2 must
    be positive, and the arguments broadcast.
    """
    a = np.sqrt(a2)
    return -kp * kp / a + 1j * kp * (a + _decay_root(a2, kp))


def _coupled_symbol(kp, a2, mu_s):
    """Damped plate symbol plus the fluid load: the one coupled symbol; broadcasts."""
    return _damped_symbol(kp, a2, mu_s) + _fluid_load(kp, a2)


def _undamped_gap(kp, a2):
    """|xi'|^4 - k^2 and the ring mask |gap| <= _RING_TOL (|xi'|^4 + k^2).

    The one ring rule; arguments broadcast.  At the 2*pi periods the gap is
    the exact integer s^2 - k^2 (s^2 < 2^53), and nonzero ones are >= 3, so
    the rule is the exact integer test there.
    """
    a4, k2 = a2 * a2, kp * kp
    gap = a4 - k2
    return gap, np.abs(gap) <= _RING_TOL * (a4 + k2)


def q0_symbol(k: int, xi: tuple[int, int], eta_hat: complex = 1.0,
              t_period: float = 2.0 * math.pi,
              l_period: float = 2.0 * math.pi) -> complex:
    """Pressure amplitude of the half-space response to a plate mode."""
    kp, x1, x2 = _phys(k, xi, t_period, l_period)
    if kp == 0.0 or (x1 == 0.0 and x2 == 0.0):
        raise ValueError("q0 is defined for k != 0 and xi' != 0 only")
    return -_fluid_load(kp, x1 * x1 + x2 * x2) * eta_hat


@dataclass
class HalfspaceProfiles:
    """Closed-form half-space response sampled on a wall-normal ray."""

    x3: np.ndarray
    u_lat: np.ndarray
    v: np.ndarray
    p: np.ndarray
    q0: complex


def halfspace_profiles(k: int, xi: tuple[int, int], eta_hat: complex,
                       x3: np.ndarray,
                       t_period: float = 2.0 * math.pi,
                       l_period: float = 2.0 * math.pi) -> HalfspaceProfiles:
    """Evaluate the explicit half-space solution driven by one plate mode."""
    kp, x1, x2 = _phys(k, xi, t_period, l_period)
    if kp == 0.0 or (x1 == 0.0 and x2 == 0.0):
        raise ValueError("profiles are defined for k != 0 and xi' != 0 only")
    x3 = np.asarray(x3, float)
    a = math.hypot(x1, x2)
    root = complex(_decay_root(a * a, kp))
    q0 = q0_symbol(k, xi, eta_hat, t_period, l_period)
    e_a = np.exp(-a * x3)
    e_s = np.exp(-root * x3)
    u_shape = (q0 / kp) * (-e_a + e_s)
    u_lat = np.stack([x1 * u_shape, x2 * u_shape])
    v = (a * q0 / (1j * kp)) * e_a - (1j * kp * eta_hat + a * q0 / (1j * kp)) * e_s
    p = q0 * e_a
    return HalfspaceProfiles(x3, u_lat, v, p, q0)


def halfspace_residuals(k: int, xi: tuple[int, int], eta_hat: complex,
                        x3: np.ndarray,
                        t_period: float = 2.0 * math.pi,
                        l_period: float = 2.0 * math.pi) -> dict[str, float]:
    """Substitute the profiles into the mode operators; max-abs residuals.

    Derivatives of the decaying exponentials are taken in closed form, so
    this is an algebraic check of the printed formulas, not a finite
    difference test.
    """
    kp, x1, x2 = _phys(k, xi, t_period, l_period)
    prof = halfspace_profiles(k, xi, eta_hat, x3, t_period, l_period)
    a2 = x1 * x1 + x2 * x2
    a = math.sqrt(a2)
    root = complex(_decay_root(a2, kp))
    q0 = prof.q0
    e_a = np.exp(-a * prof.x3)
    e_s = np.exp(-root * prof.x3)
    # second derivatives multiply each exponential by its squared rate
    helm_a = 1j * kp + a2 - a * a          # acting on e^{-a x3}
    helm_s = 1j * kp + a2 - root * root    # acting on e^{-root x3}
    mom_lat = []
    for xj, u_j in ((x1, prof.u_lat[0]), (x2, prof.u_lat[1])):
        amp = xj * q0 / kp
        eval_helm = helm_a * (-amp) * e_a + helm_s * amp * e_s
        mom_lat.append(eval_helm + 1j * xj * prof.p)
    c_a = a * q0 / (1j * kp)
    c_s = -(1j * kp * eta_hat + a * q0 / (1j * kp))
    mom_vert = helm_a * c_a * e_a + helm_s * c_s * e_s + (-a) * q0 * e_a
    dv = -a * c_a * e_a - root * c_s * e_s
    div = 1j * x1 * prof.u_lat[0] + 1j * x2 * prof.u_lat[1] + dv
    bc = max(float(np.max(np.abs(prof.u_lat[..., 0]))),
             abs(prof.v[0] + 1j * kp * eta_hat))
    return {
        "momentum": float(max(np.max(np.abs(m)) for m in (*mom_lat, mom_vert))),
        "divergence": float(np.max(np.abs(div))),
        "bc": bc,
    }


def lattice_multipliers(k, xi, mu_s: float = 1.0,
                        t_period: float = 2.0 * math.pi,
                        l_period: float = 2.0 * math.pi):
    """M = 1/sym and (1 + |k|^2 + |xi'|^4) M at k, xi = (n1, n2), which broadcast.

    Every point needs k != 0 and xi' != 0; see multiplier_M for those.
    """
    kp, x1, x2 = _phys(k, xi, t_period, l_period)
    a2 = x1 * x1 + x2 * x2
    m = 1.0 / _coupled_symbol(kp, a2, mu_s)
    return m, (1.0 + kp * kp + a2 * a2) * m


def multiplier_M(k: int, xi: tuple[int, int], mu_s: float = 1.0,
                 t_period: float = 2.0 * math.pi,
                 l_period: float = 2.0 * math.pi) -> complex:
    """Damped multiplier; exact zero on the excluded k = 0 and xi' = 0 modes."""
    if k == 0 or (xi[0] == 0 and xi[1] == 0):
        return 0.0 + 0.0j
    return lattice_multipliers(k, xi, mu_s, t_period, l_period)[0]


def is_resonant_lattice_point(k: int, xi: tuple[int, int],
                              t_period: float = 2.0 * math.pi,
                              l_period: float = 2.0 * math.pi) -> bool:
    """Ring rule test of |xi'|^4 = k^2 on the frequency lattice."""
    if k == 0 or (xi[0] == 0 and xi[1] == 0):
        return False
    kp, x1, x2 = _phys(k, xi, t_period, l_period)
    return bool(_undamped_gap(kp, x1 * x1 + x2 * x2)[1])


def undamped_multiplier(k: int, xi: tuple[int, int],
                        t_period: float = 2.0 * math.pi,
                        l_period: float = 2.0 * math.pi):
    """Multiplier of the undamped comparison model; None on the resonance ring."""
    if k == 0 or (xi[0] == 0 and xi[1] == 0):
        return 0.0 + 0.0j
    kp, x1, x2 = _phys(k, xi, t_period, l_period)
    gap, ring = _undamped_gap(kp, x1 * x1 + x2 * x2)
    return None if ring else 1.0 / gap


# ---- lattice scans ------------------------------------------------------------


def _square_sums(xi_max: int) -> tuple[np.ndarray, dict[int, tuple[int, int]]]:
    """Distinct values of n1^2 + n2^2 on the lattice and a canonical pair each.

    Both multipliers depend on xi' only through |xi'|, so scanning distinct
    square sums with |k| > 0 covers the full lattice up to symmetry.  The
    canonical representative is the lexicographically smallest (n1, n2) with
    n1 >= n2 >= 0.
    """
    reps: dict[int, tuple[int, int]] = {}
    for n1 in range(xi_max + 1):
        for n2 in range(n1 + 1):
            s = n1 * n1 + n2 * n2
            if s == 0:
                continue
            if s not in reps or (n1, n2) < reps[s]:
                reps[s] = (n1, n2)
    svals = np.array(sorted(reps), dtype=float)
    return svals, reps


def _symbol_arrays(kp: np.ndarray, a2: np.ndarray, mu_s: float):
    """Coupled symbol on a (k, |xi'|^2) grid, both in physical units."""
    return _coupled_symbol(kp[:, None], a2[None, :], mu_s)


@dataclass
class ScanReport:
    """Outcome of a boundedness scan of the weighted multiplier."""

    k_max: int
    xi_max: int
    mu_s: float
    sup_weighted: float
    argmax_k: int
    argmax_xi: tuple[int, int]
    max_damping_ratio: float
    ratio_k: int
    ratio_xi: tuple[int, int]
    decay_exponent_k: float
    decay_exponent_xi: float
    points_scanned: int     # (k, s) points covered by the scan
    points_evaluated: int   # of those, the points in tiles the bounds kept

    def as_json_dict(self) -> dict:
        return {
            "k_max": self.k_max,
            "xi_max": self.xi_max,
            "mu_s": self.mu_s,
            "sup_weighted": self.sup_weighted,
            "argmax": {"k": self.argmax_k, "xi": list(self.argmax_xi)},
            "max_damping_ratio": self.max_damping_ratio,
            "damping_ratio_argmax": {"k": self.ratio_k, "xi": list(self.ratio_xi)},
            "decay_exponent_k": self.decay_exponent_k,
            "decay_exponent_xi": self.decay_exponent_xi,
            "points_scanned": self.points_scanned,
            "points_evaluated": self.points_evaluated,
        }


def _tile_edges(n: int) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each run of _TILE consecutive indices in range(n)."""
    first = np.arange(0, n, _TILE)
    return first, np.minimum(first + _TILE, n) - 1


def _tile_bounds(kp: np.ndarray, a2: np.ndarray, mu_s: float):
    """Certified per-tile upper bounds of the weighted multiplier and damping ratio.

    Over a tile [K0, K1] x [S0, S1] of physical (k, |xi'|^2), with K, S > 0
    and mu_s >= 0, the coupled symbol is monotone: Re sym = S^2 - K^2 - K^2/sqrt(S)
    - K Im sqrt(S + iK) rises in S and falls in K, and Im sym = K (mu_s S +
    sqrt(S) + Re sqrt(S + iK)) rises in both.  So Re sym lies between its
    values at (K1, S0) and (K0, S1), Im sym between those at (K0, S0) and
    (K1, S1), and S^2 - K^2 between S0^2 - K1^2 and S1^2 - K0^2.  Each
    cancelling difference is widened by _BOUND_MARGIN times the size of its
    terms, and both bounds are scaled by 1 + _BOUND_MARGIN, far above the
    rounding of the few float operations behind a bound or a pointwise
    value.  A tile whose gap interval reaches zero (it straddles the ring
    S = K) gets an infinite ratio bound; the ring rule only drops points.
    """
    k_lo, k_hi = _tile_edges(kp.size)
    s_lo, s_hi = _tile_edges(a2.size)
    k0, k1 = kp[k_lo][:, None], kp[k_hi][:, None]
    s0, s1 = a2[s_lo][None, :], a2[s_hi][None, :]
    re_lo = _symbol_arrays(kp[k_hi], a2[s_lo], mu_s).real
    re_hi = _symbol_arrays(kp[k_lo], a2[s_hi], mu_s).real
    im_lo = _symbol_arrays(kp[k_lo], a2[s_lo], mu_s).imag
    im_hi = _symbol_arrays(kp[k_hi], a2[s_hi], mu_s).imag
    # |K Im sqrt(S + iK)| <= K sqrt(K) bounds the last term of Re sym
    slack = _BOUND_MARGIN * (s1 * s1 + k1 * k1 * (1.0 + 1.0 / np.sqrt(s0))
                             + k1 * np.sqrt(k1))
    re_lo = re_lo - slack
    re_hi = re_hi + slack
    abs_lo = np.hypot(np.maximum(np.maximum(re_lo, -re_hi), 0.0), im_lo)
    abs_hi = np.hypot(np.maximum(-re_lo, re_hi), im_hi)
    gap = (np.maximum(s0 * s0 - k1 * k1, k0 * k0 - s1 * s1)
           - _BOUND_MARGIN * (s1 * s1 + k1 * k1))
    weighted = (1.0 + k1 * k1 + s1 * s1) / abs_lo
    ratio = np.full(gap.shape, np.inf)
    np.divide(abs_hi, gap, out=ratio, where=gap > 0.0)
    return weighted * (1.0 + _BOUND_MARGIN), ratio * (1.0 + _BOUND_MARGIN)


def _running_max(values: np.ndarray, k_first: int, s_first: int,
                 best: float, at: tuple[int, int]):
    """Fold a tile into a running (supremum, smallest (k, s) index attaining it)."""
    idx = int(np.argmax(values))
    value = float(values.flat[idx])
    point = (k_first + idx // values.shape[1], s_first + idx % values.shape[1])
    if value > best or (value == best and point < at):
        return value, point
    return best, at


def boundedness_scan(k_max: int, xi_max: int, mu_s: float = 1.0,
                     t_period: float = 2.0 * math.pi,
                     l_period: float = 2.0 * math.pi) -> ScanReport:
    """Scan |k| <= k_max, |xi_i| <= xi_max for the weighted multiplier supremum.

    The scan covers k >= 1 and distinct square sums s only (conjugate and
    lattice symmetry).  That (k, s) lattice is cut into tiles of _TILE x
    _TILE points, and every tile first gets certified upper bounds on the
    weighted multiplier and on the damping ratio |sym| / |s^2 - k^2| (see
    _tile_bounds: monotonicity of the symbol between tile corners, with a
    1e-12 relative safety margin).  Tiles are visited in descending
    weighted bound, ties in tile order, and a tile is skipped only when both
    bounds lie strictly below the running suprema; every other tile is
    evaluated point by point with the same expressions as a dense scan, so
    the results are those of a dense scan.  Ties go to the smallest
    (|k|, |xi'|) in ascending order, and ratios against the undamped
    multiplier skip the ring (_undamped_gap).  points_scanned counts the
    points covered, points_evaluated those of the evaluated tiles.  The
    symbol takes physical frequencies for the periods; the bookkeeping
    stays on integer k and s.  The bounds need mu_s >= 0.
    """
    if k_max < 1 or xi_max < 1:
        raise ValueError("scan ranges must satisfy k_max, xi_max >= 1")
    if mu_s < 0.0:
        raise ValueError("the scan needs mu_s >= 0")
    ss, reps = _square_sums(xi_max)
    # both scale factors are exactly 1.0 at the 2*pi default periods
    ct = 2.0 * math.pi / t_period
    a2 = (2.0 * math.pi / l_period) ** 2 * ss
    kp = ct * np.arange(1, k_max + 1, dtype=float)
    w_bound, r_bound = _tile_bounds(kp, a2, mu_s)
    n_sj = w_bound.shape[1]
    w_bound, r_bound = w_bound.ravel(), r_bound.ravel()
    order = np.argsort(-w_bound, kind="stable").tolist()
    w_bound, r_bound = w_bound.tolist(), r_bound.tolist()
    sup_w, arg_w = -1.0, (0, 0)
    sup_r, arg_r = -1.0, (0, 0)
    evaluated = 0
    for tile in order:
        if w_bound[tile] < sup_w and r_bound[tile] < sup_r:
            continue
        i, j = divmod(tile, n_sj)
        k_first, s_first = i * _TILE, j * _TILE
        k_t = kp[k_first:k_first + _TILE]
        s_t = a2[s_first:s_first + _TILE]
        mag = np.abs(_symbol_arrays(k_t, s_t, mu_s))
        weighted = (1.0 + k_t[:, None] ** 2 + s_t[None, :] ** 2) * (1.0 / mag)
        gap, ring = _undamped_gap(k_t[:, None], s_t[None, :])
        ratio = mag / np.where(ring, np.inf, np.abs(gap))
        evaluated += mag.size
        sup_w, arg_w = _running_max(weighted, k_first, s_first, sup_w, arg_w)
        sup_r, arg_r = _running_max(ratio, k_first, s_first, sup_r, arg_r)

    # decay exponents along rays, fitted over the top decade
    k_lo = max(1, k_max // 10)
    ks = _distinct(np.geomspace(k_lo, k_max, _RAY_POINTS).astype(int)).astype(float)
    m_ray = 1.0 / np.abs(_symbol_arrays(ct * ks, a2[:1], mu_s)[:, 0])
    slope_k = float(np.polyfit(np.log(ks), np.log(m_ray), 1)[0])
    s_hi = float(ss[-1])
    s_lo = max(1.0, s_hi / 10.0)
    s_ray = ss >= s_lo
    m_ray = 1.0 / np.abs(_symbol_arrays(np.array([ct]), a2[s_ray], mu_s)[0])
    slope_s = float(np.polyfit(np.log(ss[s_ray]), np.log(m_ray), 1)[0])

    return ScanReport(
        k_max, xi_max, mu_s,
        sup_w, arg_w[0] + 1, reps[int(ss[arg_w[1]])],
        sup_r, arg_r[0] + 1, reps[int(ss[arg_r[1]])],
        slope_k, slope_s, k_max * ss.size, evaluated,
    )


def scan_window_bytes(k_max: int, xi_max: int) -> int:
    """Upper estimate of the memory boundedness_scan allocates for a window.

    16 bytes per k (frequencies, ray arrays), 128 per (n1 >= n2 >= 0) pair
    (square-sum table; the pair count also bounds the distinct sums), 400
    per tile of bound bookkeeping, and 1 MiB for one evaluated tile.  The
    tracemalloc peaks stay below it: 3.0 of 7.0 MB at (10^4, 10^2), 21 of
    58 MB at (2 * 10^6, 10).
    """
    pairs = (xi_max + 1) * (xi_max + 2) // 2
    tiles = -(-k_max // _TILE) * -(-pairs // _TILE)
    return 16 * k_max + 128 * pairs + 400 * tiles + (1 << 20)


# ---- resonance classification table -------------------------------------------


@dataclass(slots=True)
class ResonanceRow:
    """Multipliers and classification of one lattice point."""

    k: int
    xi: tuple[int, int]
    m_damped: complex
    weighted: complex
    m_undamped: float | None
    label: str


_LABELS = ("damped", "near-resonant", "resonant")


def resonance_report(k_max: int, xi_max: int, mu_s: float = 1.0,
                     near_factor: float = 10.0,
                     t_period: float = 2.0 * math.pi,
                     l_period: float = 2.0 * math.pi) -> list[ResonanceRow]:
    """Classify every lattice point of a small window.

    Labels: "resonant" marks the ring |xi'|^4 = k^2 of the undamped model
    (_undamped_gap); "near-resonant" marks points where damping shrinks the
    response by at least near_factor; everything else is "damped".
    Excluded modes (k = 0 or xi' = 0) are omitted; conjugate and sign
    symmetry make the k >= 1, xi lattice quadrant representative, but all
    sign combinations are reported, k, then n1, then n2 ascending.
    """
    n1, n2 = np.divmod(np.arange((2 * xi_max + 1) ** 2), 2 * xi_max + 1)
    keep = (n1 != xi_max) | (n2 != xi_max)
    xi = (n1[keep] - xi_max, n2[keep] - xi_max)
    ks = np.arange(1, k_max + 1)[:, None]
    m, weighted = lattice_multipliers(ks, xi, mu_s, t_period, l_period)
    kp, x1, x2 = _phys(ks, xi, t_period, l_period)
    gap, ring = _undamped_gap(kp, x1 * x1 + x2 * x2)
    und = 1.0 / np.where(ring, np.inf, gap)
    code = np.where(ring, 2, np.abs(und) >= near_factor * np.abs(m))
    pairs = list(zip(xi[0].tolist(), xi[1].tolist()))
    rows = []
    for k, m_k, w_k, u_k, c_k in zip(range(1, k_max + 1), m.tolist(),
                                     weighted.tolist(), und.tolist(),
                                     code.tolist()):
        rows.extend(ResonanceRow(k, p, mm, ww, None if c == 2 else uu, _LABELS[c])
                    for p, mm, ww, uu, c in zip(pairs, m_k, w_k, u_k, c_k))
    return rows


def report_window_bytes(k_max: int, xi_max: int) -> int:
    """Upper estimate of the memory of resonance_report and its CSV text.

    One row per k >= 1 and nonzero xi' in the window, 1 KiB each (the
    tracemalloc peak of table and CSV text is 0.56 KB per row).
    """
    return 1024 * k_max * ((2 * xi_max + 1) ** 2 - 1)


_CSV_HEADER = "k,xi1,xi2,re_m,im_m,abs_weighted,abs_undamped,class\n"
_CSV_ROW = "%d,%d,%d,%.16e,%.16e,%.16e,%s,%s\n"
# rows per % operation: bounds the flattened values and template held at once
_CSV_CHUNK = 4096


def resonance_rows_to_csv(rows: list[ResonanceRow]) -> str:
    """Render report rows in the exchange CSV layout.

    Each chunk of rows is flattened and formatted by one % operation on a
    repeated row template.  '%.16e' and the '.16e' format spec share
    CPython's float formatter, so the bytes are those of formatting each
    value on its own; that formatter, not the Python loop, is most of the
    cost.
    """
    parts = [_CSV_HEADER]
    for start in range(0, len(rows), _CSV_CHUNK):
        chunk = rows[start:start + _CSV_CHUNK]
        flat = []
        for r in chunk:
            und = "inf" if r.m_undamped is None else "%.16e" % abs(r.m_undamped)
            flat += (r.k, *r.xi, r.m_damped.real, r.m_damped.imag, abs(r.weighted),
                     und, r.label)
        parts.append(_CSV_ROW * len(chunk) % tuple(flat))
    return "".join(parts)
