"""Half-space response formulas and the coupled plate multiplier.

With the layer replaced by the half space above the plate, the response of
the coupled system to a single plate-displacement mode is available in
closed form: decaying exponentials for the velocity and pressure profiles
and an algebraic symbol for the plate balance.  The reciprocal of that
symbol is a Fourier multiplier whose boundedness encodes the damping of the
coupled dynamics; lattice scans here quantify it and contrast it with the
undamped variant, which is singular on the resonance ring.

All frequency arguments are integers on the lattice; the 2*pi/period
scaling to physical wave numbers happens internally.  Viscosity is
normalized to one in this module, matching the closed-form profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modes import _damped_symbol

# fitting window for the decay-exponent rays: top decade of the scan range
_RAY_POINTS = 24


def _phys(k, xi, t_period, l_period):
    kp = 2.0 * math.pi / t_period * k
    x1 = 2.0 * math.pi / l_period * xi[0]
    x2 = 2.0 * math.pi / l_period * xi[1]
    return kp, x1, x2


def _decay_root(a2, kp):
    """Principal branch of sqrt(|xi'|^2 + ik); real part must be positive."""
    root = np.sqrt(a2 + 1j * kp)
    if not np.all(np.real(root) > 0.0):
        raise ArithmeticError("square-root branch lost positivity of the real part")
    return root


def q0_symbol(k: int, xi: tuple[int, int], eta_hat: complex = 1.0,
              t_period: float = 2.0 * math.pi,
              l_period: float = 2.0 * math.pi) -> complex:
    """Pressure amplitude of the half-space response to a plate mode."""
    kp, x1, x2 = _phys(k, xi, t_period, l_period)
    if kp == 0.0 or (x1 == 0.0 and x2 == 0.0):
        raise ValueError("q0 is defined for k != 0 and xi' != 0 only")
    a = math.hypot(x1, x2)
    root = complex(_decay_root(a * a, kp))
    return (-1j * kp * (a + root) + kp * kp / a) * eta_hat


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


def coupled_plate_symbol(k: int, xi: tuple[int, int], mu_s: float = 1.0,
                         include_fluid: bool = True,
                         t_period: float = 2.0 * math.pi,
                         l_period: float = 2.0 * math.pi) -> complex:
    """Plate symbol with the half-space fluid load folded in.

    include_fluid=False drops the fluid contribution and keeps only the
    elastic, inertial, and internal-damping terms; mu_s=0 keeps only the
    fluid damping.  Both variants feed the resonance report.
    """
    kp, x1, x2 = _phys(k, xi, t_period, l_period)
    a2 = x1 * x1 + x2 * x2
    if a2 == 0.0:
        raise ValueError("xi' = 0 modes are excluded from the coupled symbol")
    value = _damped_symbol(kp, a2, mu_s)
    if include_fluid:
        a = math.sqrt(a2)
        root = complex(_decay_root(a2, kp))
        value += -kp * kp / a + 1j * kp * (a + root)
    return value


def multiplier_M(k: int, xi: tuple[int, int], mu_s: float = 1.0,
                 t_period: float = 2.0 * math.pi,
                 l_period: float = 2.0 * math.pi) -> complex:
    """Damped multiplier; exact zero on the excluded k = 0 and xi' = 0 modes."""
    if k == 0 or (xi[0] == 0 and xi[1] == 0):
        return 0.0 + 0.0j
    return 1.0 / coupled_plate_symbol(k, xi, mu_s, True, t_period, l_period)


def is_resonant_lattice_point(k: int, xi: tuple[int, int],
                              t_period: float = 2.0 * math.pi,
                              l_period: float = 2.0 * math.pi) -> bool:
    """Exact test of |xi'|^4 = k^2 on the frequency lattice."""
    if k == 0 or (xi[0] == 0 and xi[1] == 0):
        return False
    if t_period == 2.0 * math.pi and l_period == 2.0 * math.pi:
        return xi[0] * xi[0] + xi[1] * xi[1] == abs(k)   # integer arithmetic
    kp, x1, x2 = _phys(k, xi, t_period, l_period)
    return (x1 * x1 + x2 * x2) ** 2 == kp * kp


def undamped_multiplier(k: int, xi: tuple[int, int],
                        t_period: float = 2.0 * math.pi,
                        l_period: float = 2.0 * math.pi):
    """Multiplier of the undamped comparison model; None on the resonance ring."""
    if k == 0 or (xi[0] == 0 and xi[1] == 0):
        return 0.0 + 0.0j
    if is_resonant_lattice_point(k, xi, t_period, l_period):
        return None
    kp, x1, x2 = _phys(k, xi, t_period, l_period)
    a2 = x1 * x1 + x2 * x2
    return 1.0 / (a2 * a2 - kp * kp)


def weighted_multiplier(k: int, xi: tuple[int, int], mu_s: float = 1.0,
                        t_period: float = 2.0 * math.pi,
                        l_period: float = 2.0 * math.pi) -> complex:
    """(1 + |k|^2 + |xi'|^4) * M, the quantity whose boundedness is claimed."""
    kp, x1, x2 = _phys(k, xi, t_period, l_period)
    a2 = x1 * x1 + x2 * x2
    return (1.0 + kp * kp + a2 * a2) * multiplier_M(k, xi, mu_s, t_period, l_period)


@dataclass(frozen=True)
class MultiplierSample:
    """One lattice point of the damped/undamped multiplier comparison."""

    k: int
    xi: tuple[int, int]
    m_damped: complex
    m_undamped: complex | None
    weighted: complex


def multiplier_sample(k: int, xi: tuple[int, int], mu_s: float = 1.0,
                      t_period: float = 2.0 * math.pi,
                      l_period: float = 2.0 * math.pi) -> MultiplierSample:
    return MultiplierSample(
        k, tuple(xi),
        multiplier_M(k, xi, mu_s, t_period, l_period),
        undamped_multiplier(k, xi, t_period, l_period),
        weighted_multiplier(k, xi, mu_s, t_period, l_period),
    )


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
    k = kp[:, None]
    s = a2[None, :]
    a = np.sqrt(s)
    root = _decay_root(s, k)
    return _damped_symbol(k, s, mu_s) - k * k / a + 1j * k * (a + root)


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
    points_scanned: int

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
        }


def boundedness_scan(k_max: int, xi_max: int, mu_s: float = 1.0,
                     block_points: int = 1 << 21,
                     t_period: float = 2.0 * math.pi,
                     l_period: float = 2.0 * math.pi) -> ScanReport:
    """Scan |k| <= k_max, |xi_i| <= xi_max for the weighted multiplier supremum.

    The scan runs over k >= 1 and distinct square sums only (conjugate and
    lattice symmetry), in ascending order, so the reported argmax is the
    smallest (|k|, |xi'|) attaining the supremum.  Ratios against the
    undamped multiplier skip the exact resonance ring.  block_points caps
    the size of each vectorized (k, s) block.  The symbol takes physical
    frequencies for the periods; the bookkeeping stays on integer k and s.
    """
    if k_max < 1 or xi_max < 1:
        raise ValueError("scan ranges must satisfy k_max, xi_max >= 1")
    ss, reps = _square_sums(xi_max)
    # both scale factors are exactly 1.0 at the 2*pi default periods
    ct = 2.0 * math.pi / t_period
    a2 = (2.0 * math.pi / l_period) ** 2 * ss
    sup_w = -1.0
    arg_w = (1, 1.0)
    sup_r = -1.0
    arg_r = (1, 1.0)
    count = 0
    chunk = max(1, block_points // ss.size)
    for start in range(1, k_max + 1, chunk):
        ks = np.arange(start, min(start + chunk, k_max + 1), dtype=float)
        kp = ct * ks
        sym = _symbol_arrays(kp, a2, mu_s)
        absm = 1.0 / np.abs(sym)
        weighted = (1.0 + kp[:, None] ** 2 + a2[None, :] ** 2) * absm
        count += weighted.size
        idx = np.argmax(weighted)
        if weighted.flat[idx] > sup_w:
            sup_w = float(weighted.flat[idx])
            arg_w = (int(ks[idx // ss.size]), float(ss[idx % ss.size]))
        gap = np.abs(a2[None, :] ** 2 - kp[:, None] ** 2)
        ratio = np.abs(sym) / np.where(gap > 0.0, gap, np.inf)
        idx = np.argmax(ratio)
        if ratio.flat[idx] > sup_r:
            sup_r = float(ratio.flat[idx])
            arg_r = (int(ks[idx // ss.size]), float(ss[idx % ss.size]))

    # decay exponents along rays, fitted over the top decade
    k_lo = max(1, k_max // 10)
    ks = np.unique(np.geomspace(k_lo, k_max, _RAY_POINTS).astype(int)).astype(float)
    m_ray = 1.0 / np.abs(_symbol_arrays(ct * ks, a2[:1], mu_s)[:, 0])
    slope_k = float(np.polyfit(np.log(ks), np.log(m_ray), 1)[0])
    s_hi = float(ss[-1])
    s_lo = max(1.0, s_hi / 10.0)
    s_ray = ss >= s_lo
    m_ray = 1.0 / np.abs(_symbol_arrays(np.array([ct]), a2[s_ray], mu_s)[0])
    slope_s = float(np.polyfit(np.log(ss[s_ray]), np.log(m_ray), 1)[0])

    return ScanReport(
        k_max, xi_max, mu_s,
        sup_w, arg_w[0], reps[int(arg_w[1])],
        sup_r, arg_r[0], reps[int(arg_r[1])],
        slope_k, slope_s, count,
    )


# ---- resonance classification table -------------------------------------------


@dataclass
class ResonanceRow:
    """Per-mode damping decomposition and classification."""

    k: int
    xi: tuple[int, int]
    m_damped: complex
    weighted: complex
    m_undamped: complex | None
    internal_damping: complex
    fluid_damping: complex
    symbol_fluid_only: complex
    symbol_internal_only: complex
    label: str


def resonance_report(k_max: int, xi_max: int, mu_s: float = 1.0,
                     near_factor: float = 10.0,
                     t_period: float = 2.0 * math.pi,
                     l_period: float = 2.0 * math.pi) -> list[ResonanceRow]:
    """Classify every lattice point of a small window.

    Labels: "resonant" marks the exact ring |xi'|^4 = k^2 of the undamped
    model; "near-resonant" marks points where damping shrinks the response
    by at least near_factor; everything else is "damped".  Excluded modes
    (k = 0 or xi' = 0) are omitted; conjugate and sign symmetry make the
    k >= 1, xi lattice quadrant representative, but all sign combinations
    are reported for table completeness.
    """
    rows = []
    for k in range(1, k_max + 1):
        for n1 in range(-xi_max, xi_max + 1):
            for n2 in range(-xi_max, xi_max + 1):
                if n1 == 0 and n2 == 0:
                    continue
                xi = (n1, n2)
                kp, x1, x2 = _phys(k, xi, t_period, l_period)
                a2 = x1 * x1 + x2 * x2
                a = math.sqrt(a2)
                root = complex(_decay_root(a2, kp))
                internal = 1j * kp * mu_s * a2
                fluid = -kp * kp / a + 1j * kp * (a + root)
                m = multiplier_M(k, xi, mu_s, t_period, l_period)
                und = undamped_multiplier(k, xi, t_period, l_period)
                if und is None:
                    label = "resonant"
                elif abs(und) >= near_factor * abs(m):
                    label = "near-resonant"
                else:
                    label = "damped"
                rows.append(ResonanceRow(
                    k, xi, m,
                    weighted_multiplier(k, xi, mu_s, t_period, l_period),
                    und, internal, fluid,
                    coupled_plate_symbol(k, xi, 0.0, True, t_period, l_period),
                    coupled_plate_symbol(k, xi, mu_s, False, t_period, l_period),
                    label,
                ))
    return rows


def resonance_rows_to_csv(rows: list[ResonanceRow]) -> str:
    """Render report rows in the exchange CSV layout."""
    lines = ["k,xi1,xi2,re_m,im_m,abs_weighted,abs_undamped,class"]
    for r in rows:
        und = "inf" if r.m_undamped is None else f"{abs(r.m_undamped):.16e}"
        lines.append(
            f"{r.k},{r.xi[0]},{r.xi[1]},{r.m_damped.real:.16e},"
            f"{r.m_damped.imag:.16e},{abs(r.weighted):.16e},{und},{r.label}"
        )
    return "\n".join(lines) + "\n"
