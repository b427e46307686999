"""Spectral field containers, transforms, and exact derivative operators."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import plateflow
from plateflow.fields import (
    DEALIAS,
    OVERSAMPLE,
    PlateField,
    SpectralField,
    divergence,
    dt,
    dx,
    dx3,
    forward_transform,
    gradient,
    inverse_transform,
    is_conjugate_symmetric,
    laplacian,
    layer_derivative,
    pad_to_samples,
    pad_with_lateral_derivatives,
    padded_sizes,
    physical_samples,
    samples_to_truncated,
    trace_bottom,
    zeros_like_field,
)
from plateflow.fields import _symmetrize
from plateflow.grid import TorusGrid

from conftest import poly_field, poly_plate

PADDED = (-3, -2, -1)  # the periodic axes of the padded transform

TOL_ROUND = 1e-13
TOL_DERIV = 1e-12

GRID = TorusGrid(5, 5, 8)
HT = (GRID.n_t - 1) // 2
HX = (GRID.n_x - 1) // 2


def _lattice(grid):
    # node-major: (node, t, x1, x2) on the slab, the last three on the plate
    t = grid.t_samples[:, None, None]
    x1 = grid.x_samples[:, None]
    x2 = grid.x_samples
    x3 = grid.nodes[:, None, None, None]
    return t, x1, x2, x3


# the transforms and the derivatives take plate (rank 3) and slab samples alike
def test_sample_round_trip_real():
    rng = np.random.default_rng(0)
    samples = np.moveaxis(rng.standard_normal((5, 5, 5, 9, 3)), (4, 3), (0, 1))
    for kind, vals in ((SpectralField, samples), (PlateField, samples[0, 0])):
        field = forward_transform(GRID, vals)
        assert isinstance(field, kind) and field.real
        assert is_conjugate_symmetric(field.coeffs)
        back = physical_samples(field)
        assert np.isrealobj(back)
        assert np.max(np.abs(back - vals)) < TOL_ROUND


def test_sample_round_trip_complex():
    rng = np.random.default_rng(1)
    samples = np.moveaxis(rng.standard_normal((5, 5, 5, 9))
                          + 1j * rng.standard_normal((5, 5, 5, 9)), -1, 0)
    for kind, vals in ((SpectralField, samples), (PlateField, samples[0])):
        field = forward_transform(GRID, vals)
        assert isinstance(field, kind) and not field.real
        assert np.max(np.abs(inverse_transform(field) - vals)) < TOL_ROUND


def test_plate_round_trip():
    rng = np.random.default_rng(2)
    samples = rng.standard_normal((5, 5, 5))
    field = forward_transform(GRID, samples)
    assert isinstance(field, PlateField)
    assert np.max(np.abs(inverse_transform(field) - samples)) < TOL_ROUND
    with pytest.raises(ValueError, match="expected 5-d samples"):
        forward_transform(GRID, samples, components=3)
    # a smaller lattice would alias into the grid's rows without a word
    with pytest.raises(ValueError, match=r"on the \(5, 5, 5\) lattice"):
        forward_transform(GRID, samples[:3])


def test_shape_strictness():
    with pytest.raises(ValueError):
        SpectralField(GRID, np.zeros((8, 5, 5, 5), complex))  # n_z+1 expected
    with pytest.raises(ValueError):
        SpectralField(GRID, np.zeros((9, 5, 5, 5), complex), components=3)
    with pytest.raises(ValueError):
        PlateField(GRID, np.zeros((5, 3, 5), complex))


def test_plate_field_rejects_trailing_axis():
    # a plate field is one scalar on the torus; vectors are separate fields
    PlateField(GRID, np.zeros((5, 5, 5), complex))
    for shape in ((5, 5, 5, 3), (5, 5, 5, 1)):
        with pytest.raises(ValueError, match="does not match grid"):
            PlateField(GRID, np.zeros(shape, complex))


def test_time_derivative_single_mode():
    t, x1, _, _ = _lattice(GRID)
    shape = (9, 5, 5, 5)
    samples = np.broadcast_to(np.cos(t + x1), shape).copy()
    want = np.broadcast_to(-np.sin(t + x1), shape)
    for layer in (slice(None), 0):     # slab, then its bottom-node plate
        field = forward_transform(GRID, samples[layer])
        assert np.max(np.abs(physical_samples(dt(field)) - want[layer])) \
            < TOL_DERIV


def test_lateral_derivative_single_mode():
    _, x1, x2, _ = _lattice(GRID)
    shape = (9, 5, 5, 5)
    samples = np.broadcast_to(np.sin(x1) * np.cos(2.0 * x2), shape).copy()
    want1 = np.broadcast_to(np.cos(x1) * np.cos(2.0 * x2), shape)
    want2 = np.broadcast_to(-2.0 * np.sin(x1) * np.sin(2.0 * x2), shape)
    for layer in (slice(None), 0):     # slab, then its bottom-node plate
        field = forward_transform(GRID, samples[layer])
        d1 = physical_samples(dx(field, 1))
        d2 = physical_samples(dx(field, 2))
        assert np.max(np.abs(d1 - want1[layer])) < TOL_DERIV
        assert np.max(np.abs(d2 - want2[layer])) < TOL_DERIV


def test_dx_direction_is_one_based():
    field = zeros_like_field(GRID)
    with pytest.raises(ValueError):
        dx(field, 0)
    with pytest.raises(ValueError):
        dx(field, 3)


def test_layer_derivative_on_polynomial():
    profile = (slice(None), HT, HX, HX)
    coeffs = np.zeros((9, 5, 5, 5), complex)
    coeffs[profile] = GRID.nodes ** 3
    field = SpectralField(GRID, coeffs, 1, True)
    out = dx3(field).coeffs[profile]
    assert np.max(np.abs(out - 3.0 * GRID.nodes ** 2)) < TOL_DERIV
    out2 = dx3(field, 2).coeffs[profile]
    assert np.max(np.abs(out2 - 6.0 * GRID.nodes)) < 1e-10

    # vector field: the component axis before the node axis
    z = GRID.nodes
    profiles = (slice(None),) + profile
    vec = np.zeros((3, 9, 5, 5, 5), complex)
    vec[profiles] = np.stack([z ** 2, z ** 3, z ** 4])
    vfield = SpectralField(GRID, vec, 3, True)
    want1 = np.stack([2.0 * z, 3.0 * z ** 2, 4.0 * z ** 3])
    want2 = np.stack([np.full_like(z, 2.0), 6.0 * z, 12.0 * z ** 2])
    assert np.max(np.abs(dx3(vfield).coeffs[profiles] - want1)) < TOL_DERIV
    assert np.max(np.abs(dx3(vfield, 2).coeffs[profiles] - want2)) < 1e-10

    # raw kernel on a batch of profiles, each on a 1 x 1 x 1 lattice
    batch = np.stack([z ** j for j in range(1, 5)])[..., None, None, None]
    want = np.stack([j * z ** (j - 1) for j in range(1, 5)])[..., None, None, None]
    assert np.max(np.abs(layer_derivative(GRID, batch) - want)) < TOL_DERIV


def test_traces_pick_face_nodes():
    f = poly_field(GRID, 11, components=3)
    samples = physical_samples(f)
    bot = inverse_transform(trace_bottom(f, 0))
    top = inverse_transform(PlateField(GRID, f.coeffs[2, -1], f.real))
    assert np.max(np.abs(bot - samples[0, 0])) < TOL_ROUND
    assert np.max(np.abs(top - samples[2, -1])) < TOL_ROUND


def test_div_grad_is_laplacian():
    phi = poly_field(GRID, 13, components=1, degree=4)
    lhs = divergence(gradient(phi))
    rhs = laplacian(phi)
    scale = np.max(np.abs(rhs.coeffs)) + 1.0
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-11 * scale


def test_plate_operators_single_mode():
    coeffs = np.zeros((5, 5, 5), complex)
    coeffs[HT + 1, HX + 1, HX] = 0.5
    coeffs[HT - 1, HX - 1, HX] = 0.5          # cos(t + x1)
    eta = PlateField(GRID, coeffs, True)
    t = GRID.t_samples[:, None, None]
    x1 = GRID.x_samples[None, :, None]
    shape = (5, 5, 5)
    want_dt = np.broadcast_to(-np.sin(t + x1), shape)
    assert np.max(np.abs(inverse_transform(dt(eta)) - want_dt)) < TOL_DERIV
    assert np.max(np.abs(inverse_transform(dx(eta, 1)) - want_dt)) < TOL_DERIV
    assert np.max(np.abs(inverse_transform(dx(eta, 2)))) < TOL_DERIV
    lap = inverse_transform(laplacian(eta))
    assert np.max(np.abs(lap + np.broadcast_to(np.cos(t + x1), shape))) \
        < TOL_DERIV


def test_dealias_sampling_pair():
    f = poly_field(GRID, 15, components=1, band_t=2, band_x=2)
    samples = pad_to_samples(f.coeffs, GRID, OVERSAMPLE)
    back = samples_to_truncated(samples, GRID, real=True)
    assert np.max(np.abs(back - f.coeffs)) < TOL_ROUND


@pytest.mark.parametrize("factor", [DEALIAS, OVERSAMPLE])
def test_plate_synthesis_is_the_singleton_slab_synthesis(factor):
    eta = poly_plate(GRID, 16)
    plate = pad_to_samples(eta.coeffs, GRID, factor)
    slab = pad_to_samples(eta.coeffs[None], GRID, factor)
    m_t, m_x = padded_sizes(GRID, factor)
    assert plate.shape == (m_t, m_x, m_x)
    assert np.array_equal(plate, slab[0])


def test_padded_real_part():
    coeffs = poly_field(GRID, 17, components=3).coeffs * (0.6 + 0.8j)
    samples = pad_to_samples(coeffs, GRID)
    assert np.max(np.abs(samples.imag)) > 0.1
    real = pad_to_samples(coeffs, GRID, real=True)
    assert np.isrealobj(real)
    # the real half-lattice transform matches the real part to round-off
    assert np.max(np.abs(real - samples.real)) <= 1e-15 * np.max(np.abs(samples.real))


# tail: what a slab adds to the plate's (k, xi1, xi2) shape, in front of
# the periodic axes: (node,) or (comp, node); the transform passes it through
HALF_LATTICE_CASES = [
    (grid, factor, tail)
    for grid in (TorusGrid(3, 3, 4), GRID, TorusGrid(7, 5, 6), TorusGrid(3, 7, 4))
    for factor in (DEALIAS, OVERSAMPLE)
    for tail in ((), (grid.n_z + 1,), (3, grid.n_z + 1))
]


def _grid_rows(grid, m_t, m_x):
    """Where the grid's (k, xi1, xi2) modes sit in an unshifted padded lattice."""
    k, xi = grid.k_int % m_t, grid.xi_int % m_x
    return Ellipsis, k[:, None, None], xi[None, :, None], xi[None, None, :]


@pytest.mark.parametrize("grid,factor,tail", HALF_LATTICE_CASES)
def test_half_lattice_synthesis_is_the_real_part(grid, factor, tail):
    rng = np.random.default_rng(len(tail))
    shape = tail + (grid.n_t, grid.n_x, grid.n_x)
    # not conjugate symmetric, so the real part is a genuine projection
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    real = pad_to_samples(coeffs, grid, factor, real=True)
    want = pad_to_samples(coeffs, grid, factor).real
    assert np.isrealobj(real) and real.shape == want.shape
    assert np.max(np.abs(real - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("grid,factor,tail", HALF_LATTICE_CASES)
def test_half_lattice_analysis_matches_the_complex_path(grid, factor, tail):
    m_t, m_x = padded_sizes(grid, factor)
    samples = np.random.default_rng(len(tail)).standard_normal(
        tail + (m_t, m_x, m_x))
    coeffs = samples_to_truncated(samples, grid, real=True)
    want = _symmetrize(np.fft.fftn(samples, axes=PADDED, norm="forward")[
        _grid_rows(grid, m_t, m_x)])
    assert coeffs.shape == tail + (grid.n_t, grid.n_x, grid.n_x)
    assert np.max(np.abs(coeffs - want)) <= 1e-15 * np.max(np.abs(want))
    assert np.array_equal(coeffs, np.conj(coeffs[..., ::-1, ::-1, ::-1]))


@pytest.mark.parametrize("grid,factor,tail", HALF_LATTICE_CASES)
def test_complex_passes_match_the_full_transforms(grid, factor, tail):
    # the complex path is ifftn / fftn of the zero-embedded padded lattice,
    # up to round-off: its passes run in another axis order
    rng = np.random.default_rng(3 + len(tail))
    m_t, m_x = padded_sizes(grid, factor)
    shape = tail + (grid.n_t, grid.n_x, grid.n_x)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    padded = np.zeros(tail + (m_t, m_x, m_x), complex)
    padded[_grid_rows(grid, m_t, m_x)] = coeffs
    want = np.fft.ifftn(padded, axes=PADDED, norm="forward")
    samples = pad_to_samples(coeffs, grid, factor)
    assert samples.shape == want.shape
    assert np.max(np.abs(samples - want)) <= 1e-15 * np.max(np.abs(want))
    samples = rng.standard_normal(want.shape) + 1j * rng.standard_normal(want.shape)
    want = np.fft.fftn(samples, axes=PADDED, norm="forward")[_grid_rows(grid, m_t, m_x)]
    got = samples_to_truncated(samples, grid, real=False)
    assert got.shape == shape
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("factor", [DEALIAS, OVERSAMPLE])
def test_batched_padded_transform_equals_the_plate_transforms(factor, real):
    # stored slab coefficients transform, slice by slice, to the very bits
    # of the plate transform of each slice
    grid = TorusGrid(7, 5, 4)
    rng = np.random.default_rng(11)
    shape = (grid.n_t, grid.n_x, grid.n_x, grid.n_z + 1, 3)
    stored = np.moveaxis(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                         (4, 3), (0, 1))
    samples = pad_to_samples(stored, grid, factor, real)
    back = samples_to_truncated(samples, grid, real)
    assert samples.shape[:2] == back.shape[:2] == (3, grid.n_z + 1)
    for c, j in np.ndindex(3, grid.n_z + 1):
        plate = pad_to_samples(stored[c, j], grid, factor, real)
        assert np.array_equal(samples[c, j], plate)
        assert np.array_equal(back[c, j], samples_to_truncated(plate, grid, real))


@pytest.mark.parametrize("real", [True, False])
def test_shared_passes_match_the_padded_lateral_derivatives(real):
    grid = TorusGrid(7, 9, 4)
    f = poly_field(grid, 18, components=3, band_t=3, band_x=4)
    if not real:  # a genuinely complex field
        coeffs = f.coeffs * (0.6 + 0.8j) + poly_field(grid, 19).coeffs
        f = SpectralField(grid, coeffs, 3, False)
    shared = pad_with_lateral_derivatives(f.coeffs, grid, real)
    for got, field in zip(shared, (f, dx(f, 1), dx(f, 2))):
        want = pad_to_samples(field.coeffs, grid, real=real)
        assert np.isrealobj(got) == real and got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _half_lattice_index(grid, m_t, m_x):
    hx = (grid.n_x - 1) // 2
    return (Ellipsis, (grid.k_int % m_t)[:, None, None],
            (grid.xi_int % m_x)[None, :, None], np.arange(hx + 1))


def _irfftn_synthesis(coeffs, grid, factor):
    """The real half-lattice synthesis as one irfftn of the filled half lattice."""
    m_t, m_x = padded_sizes(grid, factor)
    hx = (grid.n_x - 1) // 2
    half = np.zeros(coeffs.shape[:-3] + (m_t, m_x, m_x // 2 + 1), complex)
    half[_half_lattice_index(grid, m_t, m_x)] = 0.5 * (
        coeffs[..., hx:] + np.conj(coeffs[..., ::-1, ::-1, hx::-1]))
    return np.fft.irfftn(half, s=(m_t, m_x, m_x), axes=PADDED, norm="forward")


def _rfftn_analysis(samples, grid):
    """The real half-lattice analysis as one rfftn, gathered and reflected."""
    m_t, m_x = samples.shape[-3:-1]
    hx = (grid.n_x - 1) // 2
    spec = np.fft.rfftn(samples, axes=PADDED, norm="forward")
    half = spec[_half_lattice_index(grid, m_t, m_x)]
    return _symmetrize(np.concatenate([np.conj(half[..., ::-1, ::-1, hx:0:-1]), half],
                                      axis=-1))


@pytest.mark.parametrize("grid,factor,tail", HALF_LATTICE_CASES)
def test_pruned_half_lattice_passes_equal_irfftn_and_rfftn(grid, factor, tail):
    # the pruned passes run in irfftn's / rfftn's order, so every bit agrees
    rng = np.random.default_rng(7 + len(tail))
    shape = tail + (grid.n_t, grid.n_x, grid.n_x)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert np.array_equal(pad_to_samples(coeffs, grid, factor, real=True),
                          _irfftn_synthesis(coeffs, grid, factor))
    m_t, m_x = padded_sizes(grid, factor)
    samples = rng.standard_normal(tail + (m_t, m_x, m_x))
    assert np.array_equal(samples_to_truncated(samples, grid, True),
                          _rfftn_analysis(samples, grid))


# the periodic transform's passes, and grid's Chebyshev transform
FFT_HOMES = {("fields", "_t_pass"), ("fields", "_x1_pass"), ("fields", "_x2_pass"),
             ("fields", "samples_to_truncated"), ("grid", "cheb_values_to_coeffs")}


def _is_numpy_fft(node):
    return (isinstance(node, ast.Attribute) and node.attr == "fft"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))


def test_numpy_fft_is_called_only_by_the_pass_helpers():
    # a second periodic transform would have to reach numpy.fft elsewhere
    homes, names, imports = set(), set(), []
    for path in sorted(Path(plateflow.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if _is_numpy_fft(node):
                    homes.add((path.stem, getattr(top, "name", None)))
                if isinstance(node, ast.Attribute) and _is_numpy_fft(node.value):
                    names.add(node.attr)
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    module = getattr(node, "module", None) or ""
                    imports += [f"{module}.{a.name}" for a in node.names
                                if "fft" in f"{module}.{a.name}"]
    assert homes == FFT_HOMES
    assert names <= {"fft", "ifft", "rfft", "irfft"}
    assert imports == []


# the modules that hold or solve coefficient arrays, in the one stored layout
LAYOUT_MODULES = ("fields", "modes", "lift", "norms")
AXIS_SHUFFLES = {"moveaxis", "swapaxes", "transpose"}


def test_no_axis_shuffles_in_the_coefficient_modules():
    # a second coefficient layout would need its axes moved back and forth
    found = []
    for stem in LAYOUT_MODULES:
        path = Path(plateflow.__file__).parent / f"{stem}.py"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in AXIS_SHUFFLES:
                found.append((stem, node.lineno, node.attr))
            if isinstance(node, ast.ImportFrom) and "numpy" in (node.module or ""):
                found += [(stem, node.lineno, a.name) for a in node.names
                          if a.name in AXIS_SHUFFLES]
    assert found == []


def test_cli_walks_without_recursion():
    # outside input of any depth, forcing expressions above all, is walked
    # with explicit stacks: no function of cli calls itself, and no module
    # hands a tree to ast.NodeVisitor, whose visits recurse
    def callee(call):  # f(...) or self.f(...)
        func = call.func
        if isinstance(func, ast.Attribute):
            return func.attr if getattr(func.value, "id", None) == "self" else None
        return getattr(func, "id", None)

    cli_tree = ast.parse((Path(plateflow.__file__).parent / "cli.py").read_text())
    recursive = [(fn.name, call.lineno) for fn in ast.walk(cli_tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for call in ast.walk(fn)
                 if isinstance(call, ast.Call) and callee(call) == fn.name]
    assert recursive == []
    visitors = []
    for path in sorted(Path(plateflow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                visitors += [(path.stem, node.name) for base in node.bases
                             if getattr(base, "attr", getattr(base, "id", None))
                             in ("NodeVisitor", "NodeTransformer")]
    assert visitors == []


# each solver module imports only the modules below it; oracles and cli sit
# on top, and the package root maps only the names imported from it to
# their home modules, which it loads on first use.  halfspace needs grid
# alone, so the scans load no solver code
IMPORT_GRAPH = {
    "grid": set(),
    "fields": {"grid"},
    "io": {"fields", "grid"},
    "norms": {"fields", "grid"},
    "modes": {"fields", "grid"},
    "lift": {"fields", "grid", "modes", "norms"},
    "nonlinear": {"fields", "grid", "modes", "norms"},
    "halfspace": {"grid"},
}
ROOT_NAMES = {"TorusGrid", "boundedness_scan", "make_manufactured", "read_field",
              "write_field", "x_norm"}


def _package_imports(tree):
    # the plateflow modules a module imports, relative or absolute, anywhere
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            full = ".".join(filter(None, ["plateflow" if node.level else None,
                                          node.module]))
            if full == "plateflow":
                found |= {a.name for a in node.names}
            elif full.startswith("plateflow."):
                found.add(full.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("plateflow.")}
    return found


def test_import_graph_is_layered():
    package = Path(plateflow.__file__).parent
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    graph = {stem: _package_imports(tree) for stem, tree in trees.items()}
    assert graph["__init__"] == set()
    graph["__init__"] = set(plateflow._HOMES.values())
    assert {stem: graph[stem] for stem in IMPORT_GRAPH} == IMPORT_GRAPH
    assert {stem for stem, deps in graph.items() if "oracles" in deps} \
        == {"cli", "__init__"}
    assert {stem for stem, deps in graph.items() if "cli" in deps} == set()
    # cli imports the rest inside the functions that run it, so each
    # subcommand loads only what it runs
    todo, at_import = list(trees["cli"].body), []
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            at_import.append(node)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo += ast.iter_child_nodes(node)
    assert _package_imports(ast.Module(body=at_import, type_ignores=[])) == {"grid"}
    assert set(plateflow._HOMES) == ROOT_NAMES
    for name, home in plateflow._HOMES.items():
        assert getattr(plateflow, name).__module__ == f"plateflow.{home}"


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("sizes", [(7, 5, 12), (17, 17, 16), (17, 17, 32)],
                         ids=lambda s: "x".join(map(str, s)))
def test_layer_derivative_equals_the_per_mode_products(sizes, real, order):
    # bit for bit d[rows] @ c with the node axis against the flattened
    # lattice, one product per leading index, complex c as the real product
    # with its float view; a per-plane GEMM of real data once reached other
    # dgemm kernels, up to 1.6e-9 off at n_z = 32
    grid = TorusGrid(*sizes)
    rng = np.random.default_rng(sizes[2] + order)
    shape = (3, grid.n_z + 1, grid.n_t, grid.n_x, grid.n_x)
    vec = rng.standard_normal(shape)
    if not real:
        vec = vec + 1j * rng.standard_normal(shape)
    scal = vec[0].copy()

    def product(c, rows):
        d = grid.dmat(order)[rows]
        out = np.empty(c.shape[:-4] + (d.shape[0],) + c.shape[-3:], c.dtype)
        for lead in np.ndindex(c.shape[:-4]):
            flat = c[lead].reshape(c.shape[-4], -1)
            prod = d @ flat if real else (d @ flat.view(float)).view(complex)
            out[lead] = prod.reshape(out.shape[-4:])
        return out

    # whole fields, a component, one time plane and a batch of profiles on
    # 1 x 1 x 1 lattices
    cases = (vec, scal, vec[2], vec[:, :, 1:2], scal[:, 0, 0].T[:, :, None, None, None])
    for rows in (slice(None), slice(5, 10), slice(0, 1)):
        for c in cases:
            got = layer_derivative(grid, c, order, rows)
            assert np.isrealobj(got) == real
            assert np.array_equal(got, product(c, rows))
    assert np.array_equal(layer_derivative(grid, vec, order), product(vec, slice(None)))


def test_layer_derivative_allocates_only_its_output():
    grid = TorusGrid(17, 17, 32)
    shape = (3, 33, 17, 17, 17)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    layer_derivative(grid, coeffs, 2)  # builds and caches dmat(2)
    tracemalloc.start()
    try:
        out = layer_derivative(grid, coeffs, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the reshape of contiguous coefficients is a view; under 64 KiB more
    # holds the complex cast of the (33, 33) matrix and the bookkeeping
    assert peak <= out.nbytes + (64 << 10)


def test_zeros_like_shapes():
    assert zeros_like_field(GRID).coeffs.shape == (9, 5, 5, 5)
    assert zeros_like_field(GRID, components=3).coeffs.shape == (3, 9, 5, 5, 5)
    assert zeros_like_field(GRID, plate=True).coeffs.shape == (5, 5, 5)


def test_component_and_arithmetic():
    a = poly_field(GRID, 16, components=3)
    b = poly_field(GRID, 17, components=3)
    # a component of a vector field is a contiguous scalar field, not a copy
    u2 = SpectralField(GRID, a.coeffs[2], 1, a.real)
    assert u2.coeffs.shape == (9, 5, 5, 5)
    assert np.shares_memory(u2.coeffs, a.coeffs)
    s = a + b
    d = a - b
    assert np.max(np.abs(s.coeffs - (a.coeffs + b.coeffs))) == 0.0
    assert np.max(np.abs(d.coeffs - (a.coeffs - b.coeffs))) == 0.0
    scaled = a * 2.5
    assert np.max(np.abs(scaled.coeffs - 2.5 * a.coeffs)) == 0.0


def test_grid_mismatch_rejected():
    other = TorusGrid(5, 5, 10)
    with pytest.raises(ValueError):
        poly_field(GRID, 18) + poly_field(other, 18)


def test_plate_arithmetic_and_real_flag():
    a = poly_plate(GRID, 19)
    b = poly_plate(GRID, 20)
    assert (a + b).real and (a - b).real
    assert np.max(np.abs((a * 3.0).coeffs - 3.0 * a.coeffs)) == 0.0
