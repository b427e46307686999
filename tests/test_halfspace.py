"""Half-space response formulas, damped multiplier, resonance bookkeeping."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from plateflow import halfspace
from plateflow.halfspace import (
    _coupled_symbol,
    _fluid_load,
    _runs,
    _square_sums,
    _sub_tiles,
    _tile_bounds,
    boundedness_scan,
    halfspace_profiles,
    halfspace_residuals,
    is_resonant_lattice_point,
    lattice_multipliers,
    multiplier_M,
    q0_symbol,
    report_window_bytes,
    resonance_report,
    resonance_rows_to_csv,
    scan_window_bytes,
    undamped_multiplier,
)
from plateflow.modes import _damped_symbol

TOL_EQ = 1e-10
TOL_BC = 1e-13

RAY = np.linspace(0.0, 6.0, 121)


def test_excluded_modes_rejected():
    with pytest.raises(ValueError):
        q0_symbol(0, (1, 0))
    with pytest.raises(ValueError):
        q0_symbol(1, (0, 0))
    with pytest.raises(ValueError):
        halfspace_profiles(0, (1, 1), 1.0, RAY)


@pytest.mark.parametrize("seed", range(10))
def test_halfspace_residuals_random_modes(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 7)) * (1 if rng.random() < 0.5 else -1)
    xi = (int(rng.integers(-5, 6)), int(rng.integers(-5, 6)))
    if xi == (0, 0):
        xi = (1, 2)
    eta_hat = complex(rng.standard_normal(), rng.standard_normal())
    res = halfspace_residuals(k, xi, eta_hat, RAY)
    scale = max(1.0, abs(eta_hat))
    assert res["momentum"] < TOL_EQ * scale
    assert res["divergence"] < TOL_EQ * scale
    assert res["bc"] < TOL_BC * scale


def test_boundary_identities_direct():
    prof = halfspace_profiles(2, (1, -1), 0.3 + 0.7j, RAY)
    kp = 2.0
    assert abs(prof.v[0] + 1j * kp * (0.3 + 0.7j)) < TOL_BC
    assert np.max(np.abs(prof.u_lat[:, 0])) < TOL_BC
    # response decays into the half space
    assert abs(prof.p[-1]) < 1e-2 * abs(prof.p[0])


def test_multiplier_vanishes_on_excluded_modes():
    assert multiplier_M(0, (3, 1)) == 0.0 + 0.0j
    assert multiplier_M(2, (0, 0)) == 0.0 + 0.0j


def test_damped_multiplier_at_first_ring_point():
    # independent reassembly of the symbol at (1, (1, 0))
    root = cmath.sqrt(1.0 + 1.0j)
    sym = (1.0 - 1.0 + 1.0j) + (-1.0 + 1.0j * (1.0 + root))
    m = multiplier_M(1, (1, 0))
    assert abs(m - 1.0 / sym) < 1e-14
    assert abs(abs(m) - 0.2921) < 1e-3


def test_resonance_ring_membership():
    for point in ((1, (1, 0)), (1, (0, 1)), (2, (1, 1)), (4, (2, 0)),
                  (5, (2, 1)), (-5, (1, 2))):
        assert is_resonant_lattice_point(*point), point
    for point in ((1, (1, 1)), (3, (1, 1)), (2, (2, 0)), (0, (1, 0)),
                  (1, (0, 0))):
        assert not is_resonant_lattice_point(*point), point


def test_undamped_multiplier_values():
    assert undamped_multiplier(1, (1, 0)) is None
    val = undamped_multiplier(3, (1, 1))
    assert val == pytest.approx(1.0 / (4.0 - 9.0))
    assert undamped_multiplier(0, (1, 1)) == 0.0 + 0.0j


def test_weighted_multiplier_consistent():
    k, xi = 3, (2, 1)
    want = (1.0 + 9.0 + 25.0) * multiplier_M(k, xi)
    assert lattice_multipliers(k, xi)[1] == pytest.approx(want)


def test_symbol_variants_agree_across_modules():
    # dropping the fluid load must reproduce the mode-solver plate symbol
    for k, xi in ((1, (1, 0)), (3, (2, 1)), (-2, (1, 1))):
        s = float(xi[0] ** 2 + xi[1] ** 2)
        a = _coupled_symbol(float(k), s, 1.3) - _fluid_load(float(k), s)
        b = _damped_symbol(float(k), s, 1.3)
        assert a == pytest.approx(b)
    # the vectorized scan symbol matches the per-mode coupled symbol
    pairs = ((1, (1, 0)), (3, (2, 1)), (7, (4, 3)), (40, (9, 2)))
    for mu_s in (0.0, 1.3):
        for k, xi in pairs:
            s = float(xi[0] ** 2 + xi[1] ** 2)
            arr = _coupled_symbol(np.array([[float(k)]]), np.array([[s]]), mu_s)
            assert arr[0, 0] == pytest.approx(_coupled_symbol(float(k), s, mu_s),
                                              rel=1e-14)


def test_scan_window_and_decay():
    rep = boundedness_scan(50, 10)
    assert np.isfinite(rep.sup_weighted) and rep.sup_weighted > 0.0
    assert rep.points_scanned > 0
    assert rep.decay_exponent_k < -1.5
    assert rep.decay_exponent_xi < -1.5
    assert rep.argmax_k >= 1
    assert isinstance(rep.argmax_xi, tuple)
    doc = rep.as_json_dict()
    assert doc["sup_weighted"] == rep.sup_weighted
    assert doc["argmax"]["xi"] == list(rep.argmax_xi)


def test_scan_uses_the_periods():
    # the pointwise maximum over the full window, k < 0 by conjugate symmetry
    t_period, l_period = 3.0, 5.0
    best = max(
        (abs(lattice_multipliers(k, (n1, n2), 1.0, t_period, l_period)[1]),
         k, n1 * n1 + n2 * n2)
        for k in range(1, 21) for n1 in range(-5, 6) for n2 in range(-5, 6)
        if (n1, n2) != (0, 0))
    rep = boundedness_scan(20, 5, t_period=t_period, l_period=l_period)
    assert rep.sup_weighted == pytest.approx(best[0], rel=1e-12)
    assert rep.argmax_k == best[1]
    assert rep.argmax_xi[0] ** 2 + rep.argmax_xi[1] ** 2 == best[2]
    assert (rep.argmax_k, rep.argmax_xi) == (20, (4, 4))


def _dense_scan(k_max, xi_max, mu_s, t_period, l_period):
    """Every (k >= 1, distinct square sum) point at once, the unpruned reference."""
    reps = {}
    for n1 in range(xi_max + 1):
        for n2 in range(n1 + 1):
            if n1 or n2:
                s = n1 * n1 + n2 * n2
                reps[s] = min(reps.get(s, (n1, n2)), (n1, n2))
    ss = np.array(sorted(reps), dtype=float)
    ks = np.arange(1, k_max + 1, dtype=float)
    kp = 2.0 * math.pi / t_period * ks
    a2 = (2.0 * math.pi / l_period) ** 2 * ss
    sym = _coupled_symbol(kp[:, None], a2[None, :], mu_s)
    weighted = (1.0 + kp[:, None] ** 2 + a2[None, :] ** 2) * (1.0 / np.abs(sym))
    gap = np.abs(a2[None, :] ** 2 - kp[:, None] ** 2)
    ratio = np.abs(sym) / np.where(gap > 0.0, gap, np.inf)
    out = {"points_scanned": weighted.size}
    for name, values in (("weighted", weighted), ("ratio", ratio)):
        i, j = divmod(int(np.argmax(values)), ss.size)   # first in C order
        out[name] = (float(values[i, j]), int(ks[i]), reps[int(ss[j])])
    return out


@pytest.mark.parametrize("periods,window", [
    pytest.param((2.0 * math.pi, 2.0 * math.pi), (400, 30), id="periods0"),
    pytest.param((3.0, 5.0), (400, 30), id="periods1"),
    # at 2*pi periods the ring |xi'|^2 = k crosses many tiles of this window
    pytest.param((2.0 * math.pi, 2.0 * math.pi), (2000, 40), id="ring"),
])
@pytest.mark.parametrize("mu_s", [0.0, 1.0, 1.3])
def test_pruned_scan_equals_dense_scan(periods, window, mu_s):
    k_max, xi_max = window
    rep = boundedness_scan(k_max, xi_max, mu_s, *periods)
    want = _dense_scan(k_max, xi_max, mu_s, *periods)
    assert (rep.sup_weighted, rep.argmax_k, rep.argmax_xi) == want["weighted"]
    assert (rep.max_damping_ratio, rep.ratio_k, rep.ratio_xi) == want["ratio"]
    assert rep.points_scanned == want["points_scanned"]
    assert 0 < rep.points_evaluated < rep.points_scanned   # the bounds pruned


def test_scan_evaluates_few_points_at_the_benchmark_window():
    # the one-level 64-tile scan evaluated 6,045,696 of these 37,360,000 points
    rep = boundedness_scan(10_000, 100)
    assert rep.points_evaluated <= 1_300_000


@pytest.mark.parametrize("seed", range(6))
def test_tile_bounds_cover_every_point(seed):
    rng = np.random.default_rng(seed)
    tile = 1 + seed    # one-point tiles make the bounds tight: only the margin covers
    mu_s = float(rng.choice([0.0, 1.0, 1.3]))
    # physical frequencies clustered around the ring |xi'|^2 = k or spread out
    hi = float(rng.choice([10.0, 1e3, 3e4]))
    kp = np.sort(rng.uniform(0.05, hi, 4 * tile + 1))
    a2 = np.sort(rng.uniform(0.05, hi, 3 * tile + 2))
    if seed % 2:
        a2 = np.sort(kp[: a2.size] * (1.0 + 1e-9 * rng.standard_normal(a2.size)))
    k_edges = _runs(0, kp.size - 1, tile, -(-kp.size // tile))
    s_edges = _runs(0, a2.size - 1, tile, -(-a2.size // tile))
    w_bound, r_bound = _tile_bounds(kp, a2, mu_s, (k_edges[0][:, None],
                                                   k_edges[1][:, None]), s_edges)
    sym = _coupled_symbol(kp[:, None], a2[None, :], mu_s)
    weighted = (1.0 + kp[:, None] ** 2 + a2[None, :] ** 2) * (1.0 / np.abs(sym))
    gap = np.abs(a2[None, :] ** 2 - kp[:, None] ** 2)
    ratio = np.abs(sym) / np.where(gap > 0.0, gap, np.inf)
    for i in range(w_bound.shape[0]):
        for j in range(w_bound.shape[1]):
            block = np.s_[i * tile:(i + 1) * tile, j * tile:(j + 1) * tile]
            assert np.all(weighted[block] <= w_bound[i, j])
            assert np.all(ratio[block] <= r_bound[i, j])


@pytest.mark.parametrize("seed", range(4))
def test_sub_tile_bounds_cover_every_point(seed):
    # random tiles near the ring |xi'|^2 = k; half are clipped, so their edge
    # sub-tiles are narrower than halfspace._SUB or empty
    rng = np.random.default_rng(seed)
    mu_s = float(rng.choice([0.0, 1.0, 1.3]))
    tile, n = halfspace._TILE, 6
    kp, a2 = np.arange(1.0, 3001.0), _square_sums(40)[0]
    k0 = rng.integers(0, kp.size - tile, n)
    s0 = np.clip(np.searchsorted(a2, kp[k0]) - rng.integers(0, tile, n),
                 0, a2.size - tile)
    full = np.arange(n) % 2 == 0
    k1 = k0 + np.where(full, tile, rng.integers(1, tile, n)) - 1
    s1 = s0 + np.where(full, tile, rng.integers(1, tile, n)) - 1
    edges, w_sub, r_sub = _sub_tiles(kp, a2, mu_s, (k0, k1, s0, s1))
    per_tile = w_sub.size // n
    for t in range(n):
        seen = np.zeros((k1[t] - k0[t] + 1, s1[t] - s0[t] + 1), int)
        for i in range(t * per_tile, (t + 1) * per_tile):
            if w_sub[i] == -np.inf:          # past the tile's last index
                assert r_sub[i] == -np.inf
                continue
            a, b, c, d = (int(e[i]) for e in edges)
            k, s = kp[a:b + 1, None], a2[None, c:d + 1]
            sym = _coupled_symbol(k, s, mu_s)
            weighted = (1.0 + k ** 2 + s ** 2) * (1.0 / np.abs(sym))
            gap = np.abs(s ** 2 - k ** 2)
            ratio = np.abs(sym) / np.where(gap > 0.0, gap, np.inf)
            assert np.all(weighted <= w_sub[i]) and np.all(ratio <= r_sub[i])
            seen[a - k0[t]:b - k0[t] + 1, c - s0[t]:d - s0[t] + 1] += 1
        assert np.all(seen == 1)            # the sub-tiles cover the tile once


def test_scan_rejects_empty_window():
    with pytest.raises(ValueError):
        boundedness_scan(0, 10)


def test_scan_allows_zero_internal_damping():
    rep = boundedness_scan(50, 10, mu_s=0.0)
    assert np.isfinite(rep.sup_weighted)     # fluid damping alone suffices
    with pytest.raises(ValueError):
        boundedness_scan(50, 10, mu_s=-0.5)   # the tile bounds need mu_s >= 0


def test_resonance_report_small_window():
    rows = resonance_report(4, 2)
    assert len(rows) == 4 * (5 * 5 - 1)     # excluded modes never appear
    resonant = [r for r in rows if r.label == "resonant"]
    assert len(resonant) == 12
    assert all(r.m_undamped is None for r in resonant)
    assert {(1, (1, 0)), (2, (1, 1)), (4, (2, 0))} <= \
        {(r.k, r.xi) for r in resonant}
    for r in rows:
        assert r.label in ("resonant", "near-resonant", "damped")
        if r.label == "near-resonant":
            assert abs(r.m_undamped) >= 10.0 * abs(r.m_damped)
        # damping decomposition is consistent with the assembled symbol
        s = float(r.xi[0] ** 2 + r.xi[1] ** 2)
        full = _coupled_symbol(float(r.k), s, 1.0)
        fluid = _fluid_load(float(r.k), s)
        assert abs(_damped_symbol(float(r.k), s, 1.0) + fluid - full) < 1e-9


def test_resonance_csv_layout():
    text = resonance_rows_to_csv(resonance_report(2, 1))
    lines = text.strip().split("\n")
    assert lines[0] == "k,xi1,xi2,re_m,im_m,abs_weighted,abs_undamped,class"
    ring = [ln for ln in lines if ln.startswith("1,1,0,")]
    assert len(ring) == 1 and ring[0].endswith(",inf,resonant")


def _csv_one_value_at_a_time(rows):
    """The exchange layout formatted row by row, one f-string field per value."""
    lines = ["k,xi1,xi2,re_m,im_m,abs_weighted,abs_undamped,class"]
    for r in rows:
        und = "inf" if r.m_undamped is None else f"{abs(r.m_undamped):.16e}"
        lines.append(
            f"{r.k},{r.xi[0]},{r.xi[1]},{r.m_damped.real:.16e},"
            f"{r.m_damped.imag:.16e},{abs(r.weighted):.16e},{und},{r.label}"
        )
    return "\n".join(lines) + "\n"


def test_resonance_csv_bytes_match_the_row_formatter():
    # 16,992 rows span several formatting chunks; this window holds ring points
    rows = resonance_report(59, 8, t_period=1.0, l_period=math.sqrt(2.0 * math.pi))
    assert sum(r.label == "resonant" for r in rows) > 0
    for part in (rows, rows[:1], []):
        assert resonance_rows_to_csv(part) == _csv_one_value_at_a_time(part)


def _reference_rows(k_max, xi_max, t_period, l_period, mu_s=1.0, near_factor=10.0):
    """The resonance table row by row in scalar arithmetic, each symbol assembled here."""
    two_pi = 2.0 * math.pi
    rows = []
    for k in range(1, k_max + 1):
        for n1 in range(-xi_max, xi_max + 1):
            for n2 in range(-xi_max, xi_max + 1):
                if n1 == 0 and n2 == 0:
                    continue
                kp = two_pi / t_period * k
                x1 = two_pi / l_period * n1
                x2 = two_pi / l_period * n2
                a2 = x1 * x1 + x2 * x2
                a = math.sqrt(a2)
                sym = (a2 * a2 - kp * kp + 1j * kp * mu_s * a2
                       - kp * kp / a + 1j * kp * (a + cmath.sqrt(a2 + 1j * kp)))
                m = 1.0 / sym
                if (t_period, l_period) == (two_pi, two_pi):
                    ring = n1 * n1 + n2 * n2 == k
                else:
                    ring = a2 * a2 == kp * kp
                und = None if ring else 1.0 / (a2 * a2 - kp * kp)
                if ring:
                    label = "resonant"
                elif abs(und) >= near_factor * abs(m):
                    label = "near-resonant"
                else:
                    label = "damped"
                rows.append((k, (n1, n2), m, (1.0 + kp * kp + a2 * a2) * m, und, label))
    return rows


@pytest.mark.parametrize("window", [(4, 2), (12, 4)])
@pytest.mark.parametrize("periods", [(2.0 * math.pi, 2.0 * math.pi), (3.0, 5.0)])
def test_resonance_report_matches_pointwise_reference(window, periods):
    rows = resonance_report(*window, t_period=periods[0], l_period=periods[1])
    want = _reference_rows(*window, *periods)
    assert [(r.k, r.xi) for r in rows] == [w[:2] for w in want]
    assert [r.label for r in rows] == [w[5] for w in want]
    for r, (_, _, m, weighted, und, _) in zip(rows, want):
        assert abs(r.m_damped - m) <= 1e-14 * abs(m)
        assert abs(r.weighted - weighted) <= 1e-14 * abs(weighted)
        if und is None:
            assert r.m_undamped is None
        else:
            assert abs(r.m_undamped - und) <= 1e-14 * abs(und)


def test_ring_rule_off_the_2pi_periods():
    # at T = 1, L = sqrt(2 pi) the ring |xi'|^4 = k^2 is the lattice set s = k,
    # whose points the rounded physical frequencies rarely put at a zero gap
    periods = (1.0, math.sqrt(2.0 * math.pi))
    rows = resonance_report(59, 8, t_period=periods[0], l_period=periods[1])
    on_ring = [r.xi[0] ** 2 + r.xi[1] ** 2 == r.k for r in rows]
    assert sum(on_ring) > 0
    assert [r.label == "resonant" for r in rows] == on_ring
    for r, ring in zip(rows, on_ring):
        assert is_resonant_lattice_point(r.k, r.xi, *periods) == ring
        assert (undamped_multiplier(r.k, r.xi, *periods) is None) == ring
    rep = boundedness_scan(60, 8, 1.0, *periods)
    assert math.isfinite(rep.max_damping_ratio) and rep.max_damping_ratio < 1e6
    assert rep.ratio_xi[0] ** 2 + rep.ratio_xi[1] ** 2 != rep.ratio_k


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_window_estimates_bound_the_traced_peaks():
    # warm up first: the first calls import parts of numpy lazily (~0.7 MB)
    boundedness_scan(20, 5)
    resonance_rows_to_csv(resonance_report(2, 1))
    for k_max, xi_max in ((100, 30), (500, 100), (50, 200)):
        peak = _traced_peak(lambda: boundedness_scan(k_max, xi_max))
        assert peak <= scan_window_bytes(k_max, xi_max), (k_max, xi_max)
    for k_max, xi_max in ((40, 10), (5, 40)):
        peak = _traced_peak(
            lambda: resonance_rows_to_csv(resonance_report(k_max, xi_max)))
        assert peak <= report_window_bytes(k_max, xi_max), (k_max, xi_max)
