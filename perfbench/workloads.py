"""The benchmark's workloads: seeded inputs, configs and output checks.

Each workload is one ``plateflow`` CLI path.  The benchmark writes the
config and the ``.plf`` input containers before any timing; the program
sees only those files.  The manufactured truth stays in the benchmark
process, which checks every invocation's outputs against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

# Values `multiplier-scan` reports for k_max = 10000, xi_max = 100, mu_s = 1
# at the commit that introduced this benchmark.  Argmaxes and the point count
# must match exactly, the floats to SCAN_RTOL relative.
SCAN_REFERENCE = {
    "sup_weighted": 1.9592272940921065,
    "argmax": {"k": 10000, "xi": [83, 57]},
    "max_damping_ratio": 5105.6875289056625,
    "damping_ratio_argmax": {"k": 10000, "xi": [76, 65]},
    "decay_exponent_k": -1.9967400815786418,
    "decay_exponent_xi": -2.000000037388294,
    "points_scanned": 37360000,
}
SCAN_RTOL = 1e-14
SCAN_EXACT = ("argmax", "damping_ratio_argmax", "points_scanned")

LINEAR_REL_ERROR = 1e-8      # X-norm error against the manufactured truth
PICARD_RESIDUAL = 1e-9       # max nonlinear residual over all equations
PICARD_CONTRACTION = 0.5     # max step ratio between sweeps

COMPLEX_BYTES = 16
SCAN_BLOCK_POINTS = 1 << 21  # default block size of halfspace.boundedness_scan


@dataclass(frozen=True)
class Workload:
    """One CLI path with its inputs.

    grid is (n_t, n_x, n_z); band and amplitude (the X norm of the truth)
    shape the manufactured data; containers names the data fields written
    as ``.plf`` files.
    """

    name: str
    command: str
    why: str
    settings: dict
    grid: tuple[int, int, int] | None = None
    band: int = 0
    amplitude: float = 1.0
    containers: tuple[str, ...] = ()
    scan_reference: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="linear-fullband",
            command="solve-linear",
            why="all 2,457 half-lattice modes get a dense 133x133 solve and "
                "the lift a full-band solve; nonlinear stays idle, so this "
                "is the bypass case for transform and product changes",
            settings={"route": "lift"},
            grid=(17, 17, 32), band=8, containers=("f", "g", "h")),
        Workload(
            name="picard-lowband",
            command="solve-nonlinear",
            why="4 Picard sweeps of padded pseudospectral products, forcing "
                "pullback and a linear solve with unchanged operators; the "
                "only workload that can show factorization reuse",
            settings={"eps": 0.001},
            # amplitude 3 puts the third Picard step 20x above picard_tol and
            # the fourth 25x below it on every seed, so each run does 4 sweeps
            grid=(17, 17, 24), band=2, amplitude=3.0, containers=("f", "h")),
        Workload(
            name="multiplier-scan",
            command="multiplier-scan",
            why="the criterion-02 window exercises only halfspace (no LAPACK, "
                "FFT or einsum): the bypass case for every solver-side change",
            settings={"k_max": 10000, "xi_max": 100, "mu_s": 1},
            scan_reference=SCAN_REFERENCE),
    )
}

# Tiny config per subcommand, run once before timing so that bytecode
# caches and the page cache are warm.
WARMUP_SETTINGS = {
    "solve-linear": {"n_t": 3, "n_x": 3, "n_z": 8,
                     "forcing_h": "cos(t)*cos(x1)"},
    "solve-nonlinear": {"n_t": 3, "n_x": 3, "n_z": 8, "eps": 0.001,
                        "forcing_h": "cos(t)*cos(x1)"},
    "multiplier-scan": {"k_max": 10, "xi_max": 3},
}


@dataclass
class Prepared:
    """Inputs written for one seed, with what the checks need."""

    workload: Workload
    config: Path
    case: object | None  # plateflow.oracles.ManufacturedCase


def write_config(path: Path, settings: dict) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    return path


def prepare(workload: Workload, seed: int, directory: Path) -> Prepared:
    """Write the config and input containers that `seed` determines."""
    from plateflow import TorusGrid, make_manufactured, write_field

    directory.mkdir(parents=True, exist_ok=True)
    settings = dict(workload.settings)
    case = None
    if workload.grid is not None:
        n_t, n_x, n_z = workload.grid
        settings.update(n_t=n_t, n_x=n_x, n_z=n_z)
        case = make_manufactured(seed, grid=TorusGrid(n_t, n_x, n_z),
                                 band=workload.band,
                                 amplitude=workload.amplitude)
        for name in workload.containers:
            write_field(directory / f"{name}.plf", getattr(case, name))
            settings[f"forcing_{name}"] = f"file:{name}.plf"
    config = write_config(directory / "bench.cfg", settings)
    return Prepared(workload, config, case)


def check(prepared: Prepared, out_dir: Path, manifest: dict) -> list[str]:
    """Problems found in one invocation's outputs; empty when correct."""
    command = prepared.workload.command
    if command == "solve-linear":
        return _check_linear(prepared, out_dir, manifest)
    if command == "solve-nonlinear":
        return _check_picard(manifest)
    return _check_scan(prepared.workload.scan_reference, manifest["scan"])


def _check_linear(prepared: Prepared, out_dir: Path, manifest: dict) -> list[str]:
    from plateflow import read_field, x_norm

    problems = []
    tol = manifest["tolerances"]
    for name, value in manifest["residuals"].items():
        limit = tol["tol_bc"] if name == "bc" else tol["tol_eq"]
        if not value <= limit:
            problems.append(f"residual {name} = {value:.3e} > {limit:.1e}")
    case = prepared.case
    u, p, eta = (read_field(out_dir / f"{n}.plf", grid=case.grid)
                 for n in ("u", "p", "eta"))
    err = x_norm(u - case.u, p - case.p, eta - case.eta)
    rel = err / x_norm(case.u, case.p, case.eta)
    if not rel <= LINEAR_REL_ERROR:
        problems.append(f"X-norm error {rel:.3e} > {LINEAR_REL_ERROR:.0e}")
    return problems


def _check_picard(manifest: dict) -> list[str]:
    problems = []
    if manifest.get("converged") is not True:
        problems.append("Picard iteration did not converge")
    worst = max(manifest["residuals"].values())
    if not worst < PICARD_RESIDUAL:
        problems.append(f"nonlinear residual {worst:.3e} >= {PICARD_RESIDUAL:.0e}")
    ratio = manifest["max_contraction_ratio"]
    if not ratio < PICARD_CONTRACTION:
        problems.append(f"contraction ratio {ratio:.3e} >= {PICARD_CONTRACTION}")
    return problems


def _check_scan(reference: dict, scan: dict) -> list[str]:
    problems = []
    for key, want in reference.items():
        got = scan.get(key)
        if key in SCAN_EXACT:
            ok = got == want
        else:
            ok = isinstance(got, float) and math.isclose(
                got, want, rel_tol=SCAN_RTOL, abs_tol=0.0)
        if not ok:
            problems.append(f"scan {key} = {got!r}, expected {want!r}")
    return problems


def working_set(workload: Workload) -> dict[str, int]:
    """Computed (not measured) sizes of the arrays each workload streams."""
    if workload.grid is None:
        # one complex symbol block of halfspace.boundedness_scan
        return {"scan_block_bytes": SCAN_BLOCK_POINTS * COMPLEX_BYTES}
    n_t, n_x, n_z = workload.grid
    m = n_z + 1
    lattice = n_t * n_x * n_x
    sizes = {
        "mode_matrix_bytes": (4 * m + 1) ** 2 * COMPLEX_BYTES,
        "velocity_field_bytes": lattice * m * 3 * COMPLEX_BYTES,
    }
    if workload.command == "solve-nonlinear":
        # padded lattice of the dealiased products (pad factor 1.5, odd sizes)
        m_t = _padded(n_t)
        m_x = _padded(n_x)
        sizes["padded_component_bytes"] = m_t * m_x * m_x * m * COMPLEX_BYTES
    return sizes


def _padded(n: int) -> int:
    size = max(n, math.ceil(1.5 * (n - 1) + 1))
    return size if size % 2 == 1 else size + 1
