"""The coupled plate multiplier of the half-space model and its lattice scans.

With the layer replaced by the half space above the plate, the response of
the coupled system to a single plate-displacement mode is available in
closed form: decaying exponentials for the velocity and pressure profiles
(`oracles.halfspace_profiles`, which criterion 04 checks) and an algebraic
symbol for the plate balance.  The reciprocal of that
symbol is a Fourier multiplier whose boundedness encodes the damping of the
coupled dynamics; lattice scans here quantify it and contrast it with the
undamped variant, which is singular on the resonance ring.

One broadcasting symbol kernel serves every caller: _fluid_load is the
half-space load and _coupled_symbol adds it to grid._damped_symbol.  One
ring rule, _undamped_gap, decides membership of the resonance ring.  The
boundedness scan bounds tiles, then sub-tiles of candidate tiles, with one
certified kernel and evaluates only candidate sub-tiles: a dense scan's result.

All frequency arguments are integers on the lattice; grid._phys applies
the 2*pi/period scaling to physical wave numbers.  Viscosity is
normalized to one in this module, matching the closed-form profiles.  The
module imports only `grid`, so the scans load no solver code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import _damped_symbol, _distinct, _phys

# fitting window for the decay-exponent rays: top decade of the scan range
_RAY_POINTS = 24
# sides of the scan's (k, s) tiles and of their sub-tiles, candidate tiles per
# batch of sub-tile bounds and sub-tiles per evaluated chunk.  Both criterion-02
# windows, 2-core Xeon, medians of 9-15 interleaved runs: tiles of 128 took
# 0.48 s, 64 0.57 s, 32, 96 and 256 0.65-0.78 s; in 64-tiles, sub-tiles of 8
# took 0.50 s, 4 0.53 s (bound work dominates), 16 0.63 s (1.9x the points);
# batches of 8-64 tiles and chunks of 128-512 sub-tiles read alike
_TILE, _SUB, _BATCH, _CHUNK = 128, 8, 32, 256
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


def lattice_multipliers(k, xi, mu_s: float = 1.0,
                        t_period: float = 2.0 * math.pi,
                        l_period: float = 2.0 * math.pi):
    """M = 1/sym and (1 + |k|^2 + |xi'|^4) M at k, xi = (n1, n2), which broadcast.

    Every point needs k != 0 and xi' != 0.
    """
    kp, x1, x2 = _phys(k, xi, t_period, l_period)
    a2 = x1 * x1 + x2 * x2
    m = 1.0 / _coupled_symbol(kp, a2, mu_s)
    return m, (1.0 + kp * kp + a2 * a2) * m


# ---- lattice scans ------------------------------------------------------------


def _square_sums(xi_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of n1^2 + n2^2 on the lattice and a canonical pair each.

    Both multipliers depend on xi' only through |xi'|, so scanning distinct
    square sums with |k| > 0 covers the full lattice up to symmetry.  The
    canonical representative is the lexicographically smallest (n1, n2) with
    n1 >= n2 >= 0: the first of its sum in np.tril_indices order.
    """
    n1, n2 = np.tril_indices(xi_max + 1)
    sums, first = np.unique(n1 * n1 + n2 * n2, return_index=True)
    return sums[1:].astype(float), np.stack([n1, n2], axis=1)[first[1:]]


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


def _runs(first, last, width: int, count: int):
    """(first, last) of count runs of width indices from first, clipped at last,
    on a new last axis; a run that starts past last is empty (first > last)."""
    lo = np.asarray(first)[..., None] + width * np.arange(count)
    return lo, np.minimum(lo + width - 1, np.asarray(last)[..., None])


def _tile_bounds(kp: np.ndarray, a2: np.ndarray, mu_s: float, k_edges, s_edges):
    """Certified per-tile upper bounds of the weighted multiplier and damping ratio.

    Over a tile [K0, K1] x [S0, S1] of physical (k, |xi'|^2), kp and a2 at
    the index edges k_edges and s_edges (which broadcast to the tiles'
    shape), with K, S > 0 and mu_s >= 0, the coupled symbol is monotone:
    Re sym = S^2 - K^2 - K^2/sqrt(S) - K Im sqrt(S + iK) rises in S and falls
    in K, and Im sym = K (mu_s S + sqrt(S) + Re sqrt(S + iK)) rises in both.
    So Re sym lies between its values at (K1, S0) and (K0, S1), Im sym
    between those at (K0, S0) and (K1, S1), and S^2 - K^2 between S0^2 -
    K1^2 and S1^2 - K0^2.  Each cancelling difference is widened by
    _BOUND_MARGIN times the size of its terms, and both bounds are scaled by
    1 + _BOUND_MARGIN, far above the rounding of the few float operations
    behind a bound or a pointwise value.  A tile whose gap interval reaches
    zero (it straddles the ring S = K) gets an infinite ratio bound.
    """
    k0, k1 = kp[k_edges[0]], kp[k_edges[1]]
    s0, s1 = a2[s_edges[0]], a2[s_edges[1]]
    re_lo = _coupled_symbol(k1, s0, mu_s).real
    re_hi = _coupled_symbol(k0, s1, mu_s).real
    im_lo = _coupled_symbol(k0, s0, mu_s).imag
    im_hi = _coupled_symbol(k1, s1, mu_s).imag
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


def _sub_tiles(kp: np.ndarray, a2: np.ndarray, mu_s: float, tiles):
    """Flat edges (K0, K1, S0, S1) and bounds of the sub-tiles of tiles with 1-D
    edges, tile by tile, clipped at the tile's last index (-inf bounds past it)."""
    count = -(-_TILE // _SUB)
    k0, k1 = _runs(tiles[0], tiles[1], _SUB, count)
    s0, s1 = _runs(tiles[2], tiles[3], _SUB, count)
    edges = (np.minimum(k0, k1)[:, :, None], k1[:, :, None],
             np.minimum(s0, s1)[:, None, :], s1[:, None, :])
    w_sub, r_sub = _tile_bounds(kp, a2, mu_s, edges[:2], edges[2:])
    empty = (k0 > k1)[:, :, None] | (s0 > s1)[:, None, :]
    w_sub[empty] = r_sub[empty] = -np.inf
    return ([np.broadcast_to(e, w_sub.shape).ravel() for e in edges],
            w_sub.ravel(), r_sub.ravel())


def _running_max(values: np.ndarray, ki, si, best: float, at: tuple[int, int]):
    """Fold (n, _SUB, _SUB) values at (ki[:, :, None], si[:, None, :]) into a
    running (supremum, smallest (k, s) attaining it); a NaN maximum folds nothing."""
    value = float(values.max())
    if not value >= best:
        return best, at
    b, p, q = np.nonzero(values == value)
    point = min(zip(ki[b, p].tolist(), si[b, q].tolist()))
    return (value, point) if value > best or point < at else (best, at)


def _fold(kp: np.ndarray, a2: np.ndarray, mu_s: float, edges, best):
    """Evaluate sub-tiles (K0, K1, S0, S1) as (n, _SUB, _SUB) blocks (a clipped
    one repeats its last index) with a dense scan's pointwise expressions and
    fold weighted multiplier and damping ratio into best, their running pairs."""
    step = np.arange(_SUB)
    ki = np.minimum(edges[0][:, None] + step, edges[1][:, None])
    si = np.minimum(edges[2][:, None] + step, edges[3][:, None])
    k_t, s_t = kp[ki][:, :, None], a2[si][:, None, :]
    mag = np.abs(_coupled_symbol(k_t, s_t, mu_s))
    weighted = (1.0 + k_t ** 2 + s_t ** 2) * (1.0 / mag)
    gap, ring = _undamped_gap(k_t, s_t)
    ratio = mag / np.where(ring, np.inf, np.abs(gap))
    return [_running_max(v, ki, si, *b) for v, b in zip((weighted, ratio), best)]


def boundedness_scan(k_max: int, xi_max: int, mu_s: float = 1.0,
                     t_period: float = 2.0 * math.pi,
                     l_period: float = 2.0 * math.pi) -> ScanReport:
    """Scan |k| <= k_max, |xi_i| <= xi_max for the weighted multiplier supremum.

    The scan covers k >= 1 and distinct square sums s only (conjugate and
    lattice symmetry).  Certified upper bounds on the weighted multiplier and
    the damping ratio |sym| / |s^2 - k^2| (_tile_bounds, 1e-12 relative
    margin) prune that (k, s) lattice on two levels, _TILE-tiles and their
    _SUB-sub-tiles.  The best sub-tile of the top weighted and of the top
    finite-ratio tile seed the running suprema; tiles then go in descending
    weighted bound, _BATCH at a time, those whose bounds reach the suprema
    get sub-tile bounds, and sub-tiles whose bounds reach them are evaluated
    with a dense scan's expressions, _CHUNK at a time.  Only bounds strictly
    below attained values skip points, so the results are a dense scan's;
    ties go to the smallest (|k|, |xi'|), and ratios skip the ring
    (_undamped_gap).  points_evaluated counts the points of the kept
    sub-tiles (the two seeds are evaluated once more).  The symbol takes
    physical frequencies, the bookkeeping integer k and s; mu_s >= 0.
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
    k0, k1 = _runs(0, kp.size - 1, _TILE, -(-kp.size // _TILE))
    s0, s1 = _runs(0, a2.size - 1, _TILE, -(-a2.size // _TILE))
    w_tile, r_tile = _tile_bounds(kp, a2, mu_s, (k0[:, None], k1[:, None]), (s0, s1))
    tiles = [np.broadcast_to(e, w_tile.shape).ravel()
             for e in (k0[:, None], k1[:, None], s0, s1)]
    w_tile, r_tile = w_tile.ravel(), r_tile.ravel()
    seeds = [np.argmax(w_tile), np.argmax(np.nan_to_num(r_tile, posinf=-1.0))]
    edges, w_sub, r_sub = _sub_tiles(kp, a2, mu_s, [e[seeds] for e in tiles])
    half = w_sub.size // 2
    pick = [np.argmax(w_sub[:half]),
            half + np.argmax(np.nan_to_num(r_sub[half:], posinf=-1.0))]
    best = _fold(kp, a2, mu_s, [e[pick] for e in edges], [(-1.0, (0, 0))] * 2)
    order = np.argsort(-w_tile, kind="stable")
    (sup_w, _), (sup_r, _) = best
    order = order[(w_tile[order] >= sup_w) | (r_tile[order] >= sup_r)]
    evaluated = 0
    for start in range(0, order.size, _BATCH):
        (sup_w, _), (sup_r, _) = best
        batch = order[start:start + _BATCH]
        batch = batch[(w_tile[batch] >= sup_w) | (r_tile[batch] >= sup_r)]
        edges, w_sub, r_sub = _sub_tiles(kp, a2, mu_s, [e[batch] for e in tiles])
        keep = np.flatnonzero((w_sub >= sup_w) | (r_sub >= sup_r))
        for chunk in range(0, keep.size, _CHUNK):
            sub = [e[keep[chunk:chunk + _CHUNK]] for e in edges]
            evaluated += int(((sub[1] - sub[0] + 1) * (sub[3] - sub[2] + 1)).sum())
            best = _fold(kp, a2, mu_s, sub, best)
    (sup_w, arg_w), (sup_r, arg_r) = best

    # decay exponents along rays, fitted over the top decade
    k_lo = max(1, k_max // 10)
    ks = _distinct(np.geomspace(k_lo, k_max, _RAY_POINTS).astype(int)).astype(float)
    m_ray = 1.0 / np.abs(_coupled_symbol(ct * ks, a2[0], mu_s))
    slope_k = float(np.polyfit(np.log(ks), np.log(m_ray), 1)[0])
    s_hi = float(ss[-1])
    s_lo = max(1.0, s_hi / 10.0)
    s_ray = ss >= s_lo
    m_ray = 1.0 / np.abs(_coupled_symbol(ct, a2[s_ray], mu_s))
    slope_s = float(np.polyfit(np.log(ss[s_ray]), np.log(m_ray), 1)[0])

    return ScanReport(
        k_max, xi_max, mu_s,
        sup_w, arg_w[0] + 1, tuple(reps[arg_w[1]].tolist()),
        sup_r, arg_r[0] + 1, tuple(reps[arg_r[1]].tolist()),
        slope_k, slope_s, k_max * ss.size, evaluated,
    )


def scan_window_bytes(k_max: int, xi_max: int) -> int:
    """Upper estimate of the memory boundedness_scan allocates for a window.

    16 bytes per k (frequencies, ray arrays), 128 per (n1 >= n2 >= 0) pair
    (square-sum table; the pair count also bounds the distinct sums), 400
    per tile of bound bookkeeping, 192 per sub-tile of one batch of sub-tile
    bounds (128 traced, plus the flat edges kept for its chunks) and 128 per
    point of one evaluated chunk (71 traced).  The tracemalloc peaks stay
    below it: 1.9 of 5.8 MB at (10^4, 10^2), 18 of 42 MB at (2 * 10^6, 10).
    """
    pairs = (xi_max + 1) * (xi_max + 2) // 2
    tiles = -(-k_max // _TILE) * -(-pairs // _TILE)
    sub_tiles = _BATCH * (-(-_TILE // _SUB)) ** 2
    return (16 * k_max + 128 * pairs + 400 * tiles + 192 * sub_tiles
            + 128 * _CHUNK * _SUB * _SUB)


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
