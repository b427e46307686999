"""Lattice symmetries of the discrete system, as metamorphic tests.

The coupled system is invariant under the x1 <-> x2 swap, the reflection
x1 -> -x1 and a shift of time by one sample, so each solve must map
transformed data to the transformed solution: solve(T data) = T solve(data)
(Chen, Cheung & Yiu 1998; Segura et al., IEEE TSE 42, 2016).  The linear
solves must also superpose.  The cases that map bit for bit are pinned as
such; the others must agree to a relative X gap under GAP.
"""

from functools import lru_cache

import numpy as np
import pytest

from plateflow.cli import _one_blas_thread
from plateflow.fields import PlateField, SpectralField
from plateflow.grid import TorusGrid
from plateflow.lift import solve_by_lift
from plateflow.modes import solve_linear_full
from plateflow.nonlinear import PicardConfig, picard_solve
from plateflow.norms import x_norm
from plateflow.oracles import make_manufactured

GAP = 1e-12
# the Picard sweeps cost most, so they run on the smaller lattice
LINEAR_GRID, PICARD_GRID = TorusGrid(7, 7, 12), TorusGrid(5, 5, 8)
PICARD_SCALE = 1e-3


def _swap(c, vector):
    c = c.swapaxes(-1, -2)
    return c[[1, 0, 2]] if vector else c


def _reflect(c, vector):
    # lattice index n -> -n on the centered x1 axis, and u1 -> -u1
    c = c[..., ::-1, :].copy()
    if vector:
        c[0] = -c[0]
    return c


def _shift(c, vector):
    # u(t + T / n_t): harmonic k takes the phase exp(2 pi i k / n_t)
    n_t = c.shape[-3]
    k = np.arange(n_t) - (n_t - 1) // 2
    return c * np.exp(2j * np.pi * k / n_t)[:, None, None]


TRANSFORMS = {"swap": _swap, "reflect": _reflect, "shift": _shift}
SOLVES = {
    "solve_linear_full": lambda f, g, h: solve_linear_full(f, g, h, grid=h.grid),
    "solve_by_lift": lambda f, g, h: solve_by_lift(f, g, h, grid=h.grid),
    "picard_solve": lambda f, g, h: picard_solve(
        f, h, config=PicardConfig(eps=PICARD_SCALE)),
}
# what the solves read when this test was written: a change that loses
# bit-identity on a case states the gap it reads, the bar stays
BIT_IDENTICAL = {("solve_linear_full", "swap"), ("solve_linear_full", "reflect"),
                 ("solve_by_lift", "swap"), ("solve_by_lift", "reflect"),
                 ("picard_solve", "reflect")}


def _apply(transform, field):
    if field is None:
        return None
    vector = isinstance(field, SpectralField) and field.components == 3
    coeffs = transform(field.coeffs, vector)
    if isinstance(field, PlateField):
        return PlateField(field.grid, coeffs, field.real)
    return SpectralField(field.grid, coeffs, field.components, field.real)


@lru_cache(maxsize=None)
def _data(name, seed):
    if name == "picard_solve":
        case = make_manufactured(seed, grid=PICARD_GRID)
        return case.f * PICARD_SCALE, None, case.h * PICARD_SCALE
    case = make_manufactured(seed, grid=LINEAR_GRID)
    return case.f, case.g, case.h


def _solve(name, data):
    with _one_blas_thread():
        sol = SOLVES[name](*data)
    return sol.u, sol.p, sol.eta


@lru_cache(maxsize=None)
def _solution(name, seed):
    return _solve(name, _data(name, seed))


def _relative_gap(got, want):
    return (x_norm(*(a - b for a, b in zip(got, want)))
            / x_norm(*want))


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
@pytest.mark.parametrize("name", sorted(SOLVES))
def test_solve_commutes_with_the_lattice_symmetry(name, transform):
    move = TRANSFORMS[transform]
    got = _solve(name, [_apply(move, x) for x in _data(name, 3)])
    want = [_apply(move, x) for x in _solution(name, 3)]
    if (name, transform) in BIT_IDENTICAL:
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.coeffs, b.coeffs)
    else:
        assert _relative_gap(got, want) < GAP


@pytest.mark.parametrize("name", ["solve_by_lift", "solve_linear_full"])
def test_linear_solve_superposes(name):
    a, b = _data(name, 3), _data(name, 4)
    got = _solve(name, [x + y for x, y in zip(a, b)])
    want = [x + y for x, y in zip(_solution(name, 3), _solution(name, 4))]
    assert _relative_gap(got, want) < GAP
