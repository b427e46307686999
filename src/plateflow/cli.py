"""Command-line harness for batch solver studies.

Grammar::

    plateflow <subcommand> --config <path> [--out <dir>] [--threads N] [--seed N]

Subcommands: solve-linear, solve-nonlinear, multiplier-scan,
resonance-report, lift-div, validate.  Every run writes ``manifest.json``
(inputs, config hash, tolerance set, norms, residuals, empirical constants,
timings) into the output directory next to CSV and ``.plf`` field
containers.  Manifests are bit-identical across reruns, ``--threads``
values and ``OPENBLAS_NUM_THREADS`` settings, except for the
``execution`` block (thread counts, timestamp, timings).  The solve is
serial: ``--threads`` (default 1) is validated as >= 1 and recorded in
``execution`` only.  The subcommand runs with the OpenBLAS numpy loaded
set to one thread, recorded as ``execution.blas_threads``; when no such
OpenBLAS is found it is null and the last bits of the batched mode solves
follow the BLAS thread setting.  Importing this module into a process that
has not loaded numpy yet (``python -m plateflow.cli``, the ``plateflow``
script) first sets ``OPENBLAS_NUM_THREADS=1`` in that process's
environment, so numpy loads OpenBLAS with one thread and starts no
second one; in a process that loaded numpy before, ``main`` sets the count
to one around the subcommand and restores the caller's count afterwards.
Each subcommand imports only the modules it runs.
Manifests and ``validation.json`` are strict JSON: a number in them that
is not finite exits with code 1 and names its key path (such as
``norms.y_norm_data``); that file is then not written, while ``.plf`` and
CSV outputs written before it stay on disk.  An output path taken by a file
or a directory, such as an ``--out`` that names a file, exits with code 1
and names the path.  A solve-linear solution, or a solve-nonlinear first
sweep, with a coefficient that is not finite (a mu_f so small that the
mode solves overflow) exits with code 1 and names mu_f before any output
is written.

Config files are plain ``key = value`` text, ``#`` starts a comment; every
number must be finite.  solve-linear and solve-nonlinear refuse T, L,
mu_f and mu_s for which the plate symbol or mu_f |xi'|^2 of the lattice
mode with the largest |k| and |xi'| is not finite, lift-div an L for
which |xi'|^2 of that mode is not, and multiplier-scan and
resonance-report T, L and mu_s for which the coupled symbol or the weight
1 + k^2 + |xi'|^4 at the window corner (k_max, (xi_max, xi_max)) is not.
Keys (defaults in parentheses):

    T, L            periods of the time circle and the lateral torus (2*pi)
    mu_f            fluid viscosity, > 0 (1.0)
    mu_s            plate damping; 0 is allowed only for multiplier-scan
                    and resonance-report (1.0)
    n_t, n_x, n_z   truncations: odd 3..129, odd 3..129, 4..192 (5, 5, 16)
    forcing_f       momentum forcing: one expression (vertical force) or
                    three separated by ';', or file:<container> ("0")
    forcing_g       divergence datum, scalar expression or file ("0");
                    solve-nonlinear refuses data that are not identically 0
    forcing_h       plate forcing, scalar expression or file ("0")
    eps             data amplitude; scales parsed data and sets the Picard
                    ball radius sqrt(eps) (1.0)
    eps0            smallness-gate threshold for the plate norm, > 0 (0.1)
    q               exponent of the reported norms and of the Picard step,
                    ball and smallness gate, in (1, Q_MAX], Q_MAX = 100 (2.0)
    route           solve-linear route, "direct" or "lift" ("direct"); lift
                    runs the oracles' cross-check route, oracles.solve_by_lift
    tol_eq, tol_bc  linear residual tolerances, > 0, recorded in the
                    manifest's tolerance set for downstream checks (1e-9)
    compat_tol      xi' = 0 compatibility tolerance for g, > 0 (1e-9)
    picard_tol      Picard stop, > 0: the loop stops when a step, or from
                    sweep 3 on the a-posteriori error bound q / (1 - q) *
                    step (q the largest step ratio), falls below it (1e-11)
    tol_nl          nonlinear residual tolerance, > 0, recorded like tol_eq
                    (1e-9)
    max_iter        Picard iteration cap (25)
    k_max, xi_max   scan ranges (100, 30 for scans; 4, 2 for the
                    resonance table; multiplier-scan needs k_max >= 2); a
                    window whose estimated memory exceeds
                    WINDOW_BUDGET_BYTES (1 GiB) is refused
    near_factor     near-resonance classification factor, > 0 (10.0)
    seed            base seed for the validation suite (0)
    out             output directory ("out"); --out overrides

Forcing expressions use the variables t, x1, x2 (and x3 in the slab), the
functions sin, cos, exp, the constant pi, numeric literals, and + - * / **.
Arguments of sin and cos must be affine with integer harmonics n of 2*pi/T
and 2*pi/L in the periodic variables, within the lattice band
|n| <= (N - 1)/2 (N = n_t for t, n_x for x1 and x2), so each single term is
exactly representable on the lattice; products are formed pointwise on the
lattice, so their harmonics above the band alias.  exp accepts x3 only.
t, x1, x2 may appear only inside sin/cos, divisors must be constant, and
exponents must be nonnegative integer constants.  An expression may be as
long and as deeply nested as Python's parser admits; a longer one, one
that cannot be evaluated (a zero divisor, an overflowing power, a constant
that folds to a complex number), forcing data that are not finite once
scaled by eps and a ``file:`` path that cannot be read exit with code 1; a
``file:`` container that ``io.read_field`` refuses (a header its payload
does not match, a non-finite coefficient, a real flag over coefficients
that are not conjugate-symmetric) exits with code 2.
"""

from __future__ import annotations

import argparse
import ast
import csv
import ctypes
import hashlib
import itertools
import json
import math
import operator
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

if "numpy" not in sys.modules:
    # OpenBLAS reads its thread count once, when numpy loads it; with one
    # thread it starts no worker that _one_blas_thread would only idle
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from .fields import (PlateField, SpectralField, _symmetrize, divergence,
                     forward_transform, physical_samples)
from .grid import TorusGrid, _distinct, _phys
from .halfspace import (
    _coupled_symbol,
    boundedness_scan,
    lattice_multipliers,
    report_window_bytes,
    resonance_report,
    resonance_rows_to_csv,
    scan_window_bytes,
)
from .io import read_field, write_field
from .modes import (IncompatibleDataError, SolverParams, linear_residuals,
                    solve_linear_full)

EXIT_CONFIG = 1
EXIT_INCOMPATIBLE = 2
EXIT_DIVERGENCE = 3
EXIT_VALIDATION = 4

SUBCOMMANDS = ("solve-linear", "solve-nonlinear", "multiplier-scan",
               "resonance-report", "lift-div", "validate")
ZERO_DAMPING_OK = ("multiplier-scan", "resonance-report")
# Memory a scan window may claim.  A multiplier-scan or resonance-report
# config whose estimate (halfspace.scan_window_bytes, report_window_bytes)
# exceeds it is refused before anything is allocated.
WINDOW_BUDGET_BYTES = 1 << 30
# Largest admitted norm exponent: at q = 100 the L^q norm of cos(t) cos(x1)
# is already within 5% of its sup norm.
Q_MAX = 100.0
# default (k_max, xi_max) and memory estimate of each windowed subcommand
_WINDOWS = {
    "multiplier-scan": ((100, 30), scan_window_bytes),
    "resonance-report": ((4, 2), report_window_bytes),
}


class CliError(Exception):
    """Error with a CLI exit code and a machine-readable kind."""

    def __init__(self, code: int, kind: str, message: str):
        super().__init__(message)
        self.code = code
        self.kind = kind


# ---- forcing expression parser ------------------------------------------------------

_FUNCTIONS = ("sin", "cos", "exp")
_PERIODIC_VARS = ("t", "x1", "x2")
_NOT_AFFINE = "function arguments must be affine in the variables"
# what a refused node outside calls reports, by node type
_REFUSALS = {ast.Constant: "only numeric literals are allowed",
             ast.UnaryOp: "unsupported unary operator",
             ast.BinOp: "unsupported operator"}
# what a divisor or an exponent outside calls must be
_CONSTANT_OPERANDS = {ast.Div: "divisor must be constant",
                      ast.Pow: "exponent must be a nonnegative integer constant"}
# Contexts of the expression walk: _TOP outside calls, _INNER inside a call's
# argument or a constant operand, and (message, anchor node) for a divisor or
# exponent, which must fold to a constant or is refused at the anchor.
_TOP, _INNER = "top", "inner"


def _expr_error(msg: str, node: ast.AST | None = None) -> CliError:
    loc = f" (column {node.col_offset})" if node is not None else ""
    return CliError(EXIT_CONFIG, "config", f"forcing expression error{loc}: {msg}")


# the arithmetic of the grammar, shared by constant folding and evaluation
_OPERATORS = {
    ast.UAdd: operator.pos, ast.USub: operator.neg,
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: operator.pow,
}


def _check_harmonics(parts: dict, grid: TorusGrid, node: ast.AST):
    """Reject non-integer harmonics of the lattice base frequencies, and
    integer ones outside the lattice's band, which would alias."""
    base = {"t": (2.0 * math.pi / grid.t_period, grid.n_t),
            "x1": (2.0 * math.pi / grid.l_period, grid.n_x),
            "x2": (2.0 * math.pi / grid.l_period, grid.n_x)}
    for var, (freq, n) in base.items():
        coeff = parts.get(var, 0.0)
        harmonic = coeff / freq
        if abs(harmonic - round(harmonic)) > 1e-9:
            raise _expr_error(
                f"harmonic {coeff:g} in '{var}' is not an integer multiple "
                f"of the lattice frequency {freq:g}, so the term is not "
                "periodic on the configured domain", node)
        if abs(round(harmonic)) > (n - 1) // 2:
            raise _expr_error(
                f"harmonic {round(harmonic)} in '{var}' lies outside the "
                f"lattice band |n| <= {(n - 1) // 2}, where it would alias", node)


def _operands(node, ctx) -> list:
    """The operands the walk visits below `node`, in visiting order, each
    with its context; an operation off the grammar visits none."""
    sub = _TOP if ctx == _TOP else _INNER
    if isinstance(node, ast.UnaryOp) and type(node.op) in _OPERATORS:
        return [(node.operand, sub)]
    if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
        if sub == _TOP and type(node.op) in _CONSTANT_OPERANDS:
            # a divisor or exponent is checked before the operand it applies to
            return [(node.right, (_CONSTANT_OPERANDS[type(node.op)], node)),
                    (node.left, sub)]
        return [(node.left, sub), (node.right, sub)]
    if sub == _TOP and isinstance(node, ast.Call):
        return [(arg, _INNER) for arg in node.args[:1]]
    return []


def _affine(node, forms):
    """Affine form {var: coeff, "": const} of an operation inside a call
    from its operands' forms, None when all are constant (the caller
    folds), or the refusal, a CliError, that it defers to its parent."""
    const = [isinstance(f, dict) and f.keys() == {""} for f in forms]
    if all(const):
        return None
    op, first = type(node.op), forms[0]
    refused = [f for f in forms if isinstance(f, CliError)]
    if op is ast.Mult and any(const):
        c, form = (first[""], forms[1]) if const[0] else (forms[1][""], first)
        return form if form in refused else {k: c * v for k, v in form.items()}
    if op is ast.Div and const[1]:
        return first if refused else {k: v / forms[1][""] for k, v in first.items()}
    if op in (ast.Mult, ast.Div, ast.Pow):
        return _expr_error(_CONSTANT_OPERANDS[op] if op is ast.Div else _NOT_AFFINE,
                           node)
    if refused:
        return refused[0]
    # a sum, a difference, or a sign: 0 + operand and 0 - operand
    left, right = forms if len(forms) == 2 else ({}, first)
    sign, out = (-1.0 if op in (ast.Sub, ast.USub) else 1.0), dict(left)
    for k, v in right.items():
        out[k] = out.get(k, 0.0) + sign * v
    return out


def _finish(node, ctx, ops, grid, variables, env):
    """(affine form, samples) of `node` from its operands' pairs, the form a
    CliError where the grammar refuses the node; samples follow the tree's
    own operations, and outside calls only leaves keep a form."""
    top = ctx == _TOP
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return {"": float(node.value)}, float(node.value)
    if isinstance(node, ast.Name) and node.id in ("pi", "π"):
        return {"": math.pi}, math.pi
    if isinstance(node, ast.Name):
        if node.id not in variables:
            return _expr_error(f"unknown name '{node.id}'", node), None
        if top and node.id in _PERIODIC_VARS:
            return _expr_error(f"'{node.id}' may appear only inside sin/cos, "
                               "where its periodicity can be checked", node), None
        return {node.id: 1.0, "": 0.0}, env[node.id]
    if top and isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            return _expr_error("only sin, cos and exp may be called", node), None
        if len(node.args) != 1 or node.keywords:
            return _expr_error(f"{node.func.id} takes one argument", node), None
        form, arg = ops[0]
        if isinstance(form, CliError):
            return form, None
        for var in _PERIODIC_VARS if node.func.id == "exp" else ():
            if abs(form.get(var, 0.0)) > 0.0:
                return _expr_error(f"exp of '{var}' is never periodic; exp "
                                   "accepts x3 and constants only", node), None
        if node.func.id != "exp":
            _check_harmonics(form, grid, node)
        return None, getattr(np, node.func.id)(arg)
    if not ops:
        return _expr_error(_REFUSALS.get(type(node), f"'{type(node).__name__}' is "
                                         "not allowed") if top else _NOT_AFFINE,
                           node), None
    form = None if top else _affine(node, [f for f, _ in ops])
    if isinstance(form, CliError):
        return form, None
    value = _OPERATORS[type(node.op)](*(v for _, v in ops))
    if isinstance(value, complex):
        raise _expr_error(f"constant folds to the complex number {value}", node)
    return ({"": value} if form is None and not top else form), value


def _walk(root, grid, variables, env):
    """Check, fold and evaluate the expression below `root` in one
    post-order pass that keeps its own stack, so depth costs no frames.
    Outside calls a refusal raises once its node is finished; inside, the
    parent raises it or reports its own, as the grammar's checks order."""
    todo, done = [(root, _TOP, False)], {}
    while todo:
        node, ctx, walked = todo.pop()
        if not walked:
            todo.append((node, ctx, True))
            todo += [(kid, kid_ctx, False)
                     for kid, kid_ctx in reversed(_operands(node, ctx))]
            continue
        # the operands' pairs in source order, whatever order they were walked in
        ops = [done.pop(kid) for kid in ast.iter_child_nodes(node) if kid in done]
        form, value = done[node] = _finish(node, ctx, ops, grid, variables, env)
        if ctx == _TOP and isinstance(form, CliError):
            raise form
        constant = isinstance(form, dict) and form.keys() == {""}
        if isinstance(ctx, tuple) and (not constant or (
                isinstance(ctx[1].op, ast.Pow) and (value < 0 or value != int(value)))):
            raise _expr_error(*ctx)
    return done[root][1]


def _expression_values(text: str, grid: TorusGrid, plate: bool) -> np.ndarray:
    """Values of an expression on the lattice, in a shape that broadcasts to
    the samples': node-major, (node, t, x1, x2) on the slab, (t, x1, x2) on
    the plate."""
    variables = _PERIODIC_VARS if plate else _PERIODIC_VARS + ("x3",)
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise CliError(EXIT_CONFIG, "config",
                       f"forcing expression error (column {exc.offset}): "
                       f"{exc.msg}") from None
    except (RecursionError, MemoryError):
        raise _expr_error("too long or too deep for Python's parser") from None
    env = {"t": grid.t_samples[:, None, None], "x1": grid.x_samples[:, None],
           "x2": grid.x_samples}
    if not plate:
        env["x3"] = grid.nodes[:, None, None, None]
    try:
        values = _walk(tree.body, grid, variables, env)
    except (ArithmeticError, ValueError) as exc:  # zero divisor, overflow, nan
        raise _expr_error(f"cannot be evaluated: {exc.args[-1]}") from None
    return np.asarray(values, float)


def _parse_expression(text: str, grid: TorusGrid, plate: bool) -> np.ndarray:
    shape = (grid.n_t, grid.n_x, grid.n_x)
    if not plate:
        shape = (grid.n_z + 1,) + shape
    return np.broadcast_to(_expression_values(text, grid, plate), shape).copy()


def parse_forcing(spec: str, grid: TorusGrid, kind: str,
                  base_dir: Path | None = None):
    """Build a data field from an expression string or a container path.

    kind selects the target: "f" (three slab components; a single
    expression means a vertical force), "g" (scalar slab), "h" (plate).
    """
    spec = spec.strip()
    if spec.startswith("file:"):
        path = Path(spec[5:])
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        try:
            field = read_field(path, grid=grid)
        except FileNotFoundError:
            raise CliError(EXIT_CONFIG, "config",
                           f"forcing container not found: {path}") from None
        except OSError as exc:
            raise CliError(EXIT_CONFIG, "config", f"cannot read forcing "
                           f"container {path}: {exc.strerror}") from None
        except ValueError as exc:
            raise CliError(EXIT_INCOMPATIBLE, "incompatible",
                           f"forcing container {path}: {exc}") from None
        want_plate = kind == "h"
        if want_plate != isinstance(field, PlateField):
            raise CliError(EXIT_INCOMPATIBLE, "incompatible",
                           f"forcing container {path} stores the wrong domain")
        if kind == "f" and field.components != 3:
            raise CliError(EXIT_INCOMPATIBLE, "incompatible",
                           f"momentum forcing needs 3 components, "
                           f"{path} has {field.components}")
        if kind == "g" and field.components != 1:
            raise CliError(EXIT_INCOMPATIBLE, "incompatible",
                           f"divergence datum must be scalar, "
                           f"{path} has {field.components}")
        return field

    if kind in ("g", "h"):
        return forward_transform(grid, _parse_expression(spec, grid, kind == "h"))
    exprs = [part.strip() for part in spec.split(";")]
    if len(exprs) == 1:
        exprs = ["0", "0", exprs[0]]
    if len(exprs) != 3:
        raise CliError(EXIT_CONFIG, "config",
                       "momentum forcing takes one expression or three "
                       "';'-separated ones")
    comps = [_parse_expression(e, grid, False) for e in exprs]
    return forward_transform(grid, np.stack(comps), components=3)


# ---- configuration -----------------------------------------------------------------

@dataclass
class ScenarioConfig:
    """Typed view of a config file; see the module docstring for the schema."""

    T: float = 2.0 * math.pi
    L: float = 2.0 * math.pi
    mu_f: float = 1.0
    mu_s: float = 1.0
    n_t: int = 5
    n_x: int = 5
    n_z: int = 16
    forcing_f: str = "0"
    forcing_g: str = "0"
    forcing_h: str = "0"
    eps: float = 1.0
    eps0: float = 0.1
    q: float = 2.0
    route: str = "direct"
    tol_eq: float = 1e-9
    tol_bc: float = 1e-9
    compat_tol: float = 1e-9
    picard_tol: float = 1e-11
    tol_nl: float = 1e-9
    max_iter: int = 25
    k_max: int = 0  # 0 means the per-subcommand default
    xi_max: int = 0
    near_factor: float = 10.0
    seed: int = 0
    out: str = "out"

    def solver_params(self) -> SolverParams:
        return SolverParams(self.mu_f, self.mu_s, compat_tol=self.compat_tol)

    def grid(self) -> TorusGrid:
        return TorusGrid(self.n_t, self.n_x, self.n_z, self.T, self.L)

    def tolerance_set(self) -> dict:
        return {k: getattr(self, k) for k in
                ("tol_eq", "tol_bc", "compat_tol", "picard_tol", "tol_nl",
                 "eps0")}


# the type of each config key, from its default
_KEY_TYPES = {f.name: type(f.default) for f in fields(ScenarioConfig)}


def _config_error(msg: str) -> CliError:
    return CliError(EXIT_CONFIG, "config", msg)


def load_config(path, command: str | None = None) -> tuple[ScenarioConfig, str]:
    """Parse a key=value file; returns the config and the raw text.

    With a subcommand, the limits of that subcommand are checked too.
    """
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise _config_error(f"cannot read config {path}: {exc}") from None
    values: dict = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise _config_error(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = stripped.partition("=")
        key, val = key.strip(), val.strip()
        if key in values:
            raise _config_error(f"{path}:{lineno}: duplicate key '{key}'")
        kind = _KEY_TYPES.get(key)
        if kind is None:
            raise _config_error(f"{path}:{lineno}: unknown key '{key}'")
        try:
            values[key] = kind(val)
        except ValueError:
            need = "an integer" if kind is int else "a number"
            raise _config_error(f"{path}:{lineno}: '{key}' needs {need}") from None
        if kind is float and not math.isfinite(values[key]):
            raise _config_error(f"{path}:{lineno}: '{key}' must be finite")
    cfg = ScenarioConfig(**values)
    _validate_config(cfg, command)
    return cfg, raw


def _window(cfg: ScenarioConfig, command: str) -> tuple[int, int]:
    (k_default, xi_default), _ = _WINDOWS[command]
    return cfg.k_max or k_default, cfg.xi_max or xi_default


def _validate_config(cfg: ScenarioConfig, command: str | None = None):
    if cfg.T <= 0 or cfg.L <= 0:
        raise _config_error("periods T and L must be positive")
    if cfg.mu_f <= 0:
        raise _config_error("mu_f must be positive")
    if cfg.mu_s < 0:
        raise _config_error("mu_s must be nonnegative")
    if cfg.mu_s == 0.0 and command not in (None, *ZERO_DAMPING_OK):
        raise _config_error(
            "mu_s = 0 is reserved for multiplier-variant studies "
            "(multiplier-scan, resonance-report); the solver needs "
            "positive plate damping")
    for name, val in (("n_t", cfg.n_t), ("n_x", cfg.n_x)):
        if val < 3 or val > 129 or val % 2 == 0:
            raise _config_error(f"{name} must be odd and within 3..129")
    if cfg.n_z < 4 or cfg.n_z > 192:
        raise _config_error("n_z must be within 4..192")
    for name in ("eps", "eps0", "picard_tol", "tol_eq", "tol_bc", "compat_tol",
                 "tol_nl", "near_factor"):
        if getattr(cfg, name) <= 0:
            raise _config_error(f"{name} must be positive")
    if not 1 < cfg.q <= Q_MAX:
        raise _config_error(f"q must lie in (1, {Q_MAX:g}]")
    if cfg.route not in ("lift", "direct"):
        raise _config_error("route must be 'lift' or 'direct'")
    if cfg.max_iter < 1:
        raise _config_error("max_iter must be at least 1")
    if cfg.k_max < 0 or cfg.xi_max < 0:
        raise _config_error("scan ranges must be nonnegative")
    if command in ("solve-linear", "solve-nonlinear", "lift-div", *_WINDOWS):
        # the largest |k| and |xi'| a subcommand reaches give its largest terms
        k, m = (_window(cfg, command) if command in _WINDOWS
                else ((cfg.n_t - 1) // 2, (cfg.n_x - 1) // 2))
        kp, x1, x2 = _phys(k, (m, m), cfg.T, cfg.L)
        with np.errstate(all="ignore"):
            a2 = x1 * x1 + x2 * x2
            if command == "lift-div":
                what, extreme = "L makes |xi'|^2", [a2]
            elif command in _WINDOWS:
                what = ("T, L and mu_s make the coupled symbol or the weight "
                        "1 + k^2 + |xi'|^4")
                extreme = [_coupled_symbol(kp, a2, cfg.mu_s), 1.0 + kp * kp + a2 * a2]
            else:
                what = "T, L, mu_f and mu_s make the plate symbol or mu_f |xi'|^2"
                extreme = [_coupled_symbol(kp, a2, cfg.mu_s), cfg.mu_f * a2]
        if not np.isfinite(extreme).all():
            raise _config_error(f"{what} of mode k = {k}, xi' = ({m}, {m}) not finite")
    if command in _WINDOWS:
        k_max, xi_max = _window(cfg, command)
        if command == "multiplier-scan" and k_max < 2:
            raise _config_error(
                "multiplier-scan needs k_max >= 2 for its k-ray decay fit")
        need = _WINDOWS[command][1](k_max, xi_max)
        if need > WINDOW_BUDGET_BYTES:
            raise _config_error(
                f"{command} window k_max = {k_max}, xi_max = {xi_max} needs "
                f"an estimated {need / 2**30:.3g} GiB, over the "
                f"{WINDOW_BUDGET_BYTES / 2**30:g} GiB budget")


# ---- manifest plumbing ---------------------------------------------------------------


def _jsonable(obj):
    """A copy of `obj` that strict JSON holds, numpy scalars and arrays and
    complex numbers converted; a number that is not finite exits 1 and
    names its key path, such as norms.y_norm_data."""
    root = [obj]
    todo = [(root, 0, "")]
    while todo:
        parent, key, path = todo.pop()
        value = parent[key]
        if isinstance(value, (np.floating, np.integer, np.ndarray)):
            value = value.tolist()
        elif isinstance(value, complex):
            value = {"re": value.real, "im": value.imag}
        if isinstance(value, dict):
            value = {str(k): v for k, v in value.items()}
            todo += [(value, k, f"{path}.{k}" if path else k) for k in reversed(value)]
        elif isinstance(value, (list, tuple)):
            value = list(value)
            todo += [(value, i, f"{path}[{i}]") for i in reversed(range(len(value)))]
        elif isinstance(value, float) and not math.isfinite(value):
            raise _config_error(f"output value {path} is {value}, which JSON "
                                "does not admit")
        parent[key] = value
    return root[0]


def _write_json(path: Path, doc: dict):
    """Write `doc` as strict JSON; a refused value leaves no file behind."""
    text = json.dumps(_jsonable(doc), sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n")


def _write_manifest(out_dir: Path, doc: dict):
    _write_json(out_dir / "manifest.json", doc)


def _base_manifest(command: str, cfg: ScenarioConfig, raw: str,
                   seed: int) -> dict:
    return {
        "command": command,
        "config": asdict(cfg),
        "config_sha256": hashlib.sha256(raw.encode()).hexdigest(),
        "tolerances": cfg.tolerance_set(),
        "seed": seed,
        "grid": {"n_t": cfg.n_t, "n_x": cfg.n_x, "n_z": cfg.n_z,
                 "T": cfg.T, "L": cfg.L},
    }


def _write_csv(path: Path, header: list[str], rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _plate_samples_csv(path: Path, eta: PlateField):
    grid = eta.grid
    vals = physical_samples(eta).reshape(-1).tolist()
    # each axis label is formatted once; rows run in the samples' C order
    ts = [f"{v:.16e}" for v in grid.t_samples]
    xs = [f"{v:.16e}" for v in grid.x_samples]
    rows = [(tv, xv, yv, f"{v:.16e}")
            for (tv, xv, yv), v in zip(itertools.product(ts, xs, xs), vals)]
    _write_csv(path, ["t", "x1", "x2", "eta"], rows)


# ---- subcommand runners --------------------------------------------------------------


def _scaled_forcing(cfg: ScenarioConfig, grid: TorusGrid, kind: str,
                    base_dir: Path):
    """eps times the config's forcing of `kind` (see parse_forcing); data
    that are not finite, from an overflowing expression or eps, exit 1."""
    with np.errstate(all="ignore"):  # what overflows is refused below
        field = cfg.eps * parse_forcing(getattr(cfg, f"forcing_{kind}"), grid,
                                        kind, base_dir)
    if not np.isfinite(field.coeffs).all():
        raise _config_error(f"forcing_{kind} is not finite once scaled by "
                            f"eps = {cfg.eps:g}")
    return field


def _finite_solve(command: str, cfg: ScenarioConfig, solve, *args, **kwargs):
    """solve(*args, **kwargs) with numpy's floating-point warnings off.  A
    solution whose u, p or eta is not finite (a mu_f so small that the mode
    solves overflow) exits 1 and names mu_f, before any output is written."""
    with np.errstate(all="ignore"):  # what overflows is refused below
        sol = solve(*args, **kwargs)
    if not all(np.isfinite(x.coeffs).all() for x in (sol.u, sol.p, sol.eta)):
        raise _config_error(f"{command}: the linear solve is not finite at "
                            f"mu_f = {cfg.mu_f!r}")
    return sol


def _run_solve_linear(cfg: ScenarioConfig, out_dir: Path, seed: int,
                      base_dir: Path) -> dict:
    from .norms import s_norm, x_norm, y_norm

    grid = cfg.grid()
    f, g, h = (_scaled_forcing(cfg, grid, kind, base_dir) for kind in "fgh")
    g_arg = g if g.coeffs.any() else None
    params = cfg.solver_params()
    solve = solve_linear_full
    if cfg.route == "lift":
        from .oracles import solve_by_lift as solve
    sol = _finite_solve("solve-linear", cfg, solve, f, g_arg, h, grid=grid,
                        params=params)
    write_field(out_dir / "u.plf", sol.u)
    write_field(out_dir / "p.plf", sol.p)
    write_field(out_dir / "eta.plf", sol.eta)
    _plate_samples_csv(out_dir / "eta_samples.csv", sol.eta)
    # the bound constant is measured at q = 2 whatever the reported q
    y_2, x_2 = y_norm(f, g_arg, h, 2.0), x_norm(sol.u, sol.p, sol.eta, 2.0)
    q2 = cfg.q == 2.0
    return {
        "norms": {
            "y_norm_data": y_2 if q2 else y_norm(f, g_arg, h, cfg.q),
            "x_norm_solution": x_2 if q2 else x_norm(sol.u, sol.p, sol.eta, cfg.q),
            "s_norm_eta": s_norm(sol.eta, cfg.q),
        },
        "residuals": linear_residuals(sol.u, sol.p, sol.eta, f, g_arg, h,
                                      params),
        "empirical_constants": {"x_over_y_ratio": x_2 / y_2 if y_2 > 0.0 else None},
        "outputs": ["u.plf", "p.plf", "eta.plf", "eta_samples.csv"],
    }


def _run_solve_nonlinear(cfg: ScenarioConfig, out_dir: Path, seed: int,
                         base_dir: Path) -> dict:
    from .nonlinear import (DegenerateDeformationError, PicardConfig,
                            PicardDivergenceError, picard_solve)

    grid = cfg.grid()
    spec = cfg.forcing_g.strip()
    # an expression is checked before it is broadcast and transformed: those
    # transient full-size arrays raised the peak RSS of a (17, 17, 24) solve
    # by 5-7 MB
    datum = (parse_forcing(spec, grid, "g", base_dir).coeffs
             if spec.startswith("file:") else _expression_values(spec, grid, False))
    if datum.any():
        raise _config_error("solve-nonlinear takes no divergence datum; "
                            "forcing_g must be 0")
    f, h = (_scaled_forcing(cfg, grid, kind, base_dir) for kind in "fh")
    pc = PicardConfig(eps=cfg.eps, max_iter=cfg.max_iter,
                      picard_tol=cfg.picard_tol, eps0=cfg.eps0, q=cfg.q,
                      params=cfg.solver_params())
    try:
        result = _finite_solve("solve-nonlinear", cfg, picard_solve, f, h,
                               config=pc)
    except (PicardDivergenceError, DegenerateDeformationError) as exc:
        if not math.isfinite(exc.trace[0]["x_norm"]):
            # the first sweep solves the data alone; a solve of them that
            # is not finite is refused as solve-linear refuses it
            _finite_solve("solve-nonlinear", cfg, solve_linear_full, f, None, h,
                          grid=grid, params=pc.params)
        raise CliError(EXIT_DIVERGENCE, "divergence", str(exc)) from None
    if not result.converged:
        bound = result.error_bound
        bound = "none" if bound is None else f"{bound:.3e}"
        raise CliError(
            EXIT_DIVERGENCE, "divergence",
            f"no convergence within {cfg.max_iter} iterations "
            f"(last step {result.trace[-1]['step']:.3e}, error bound {bound})")
    write_field(out_dir / "u.plf", result.u)
    write_field(out_dir / "p.plf", result.p)
    write_field(out_dir / "eta.plf", result.eta)
    _plate_samples_csv(out_dir / "eta_samples.csv", result.eta)
    trace_rows = [(step["iteration"], f"{step['x_norm']:.16e}",
                   f"{step['step']:.16e}",
                   "" if step["ratio"] is None else f"{step['ratio']:.16e}",
                   f"{step['plate_norm']:.16e}", f"{step['sup_eta']:.16e}")
                  for step in result.trace]
    _write_csv(out_dir / "picard_trace.csv",
               ["iteration", "x_norm", "step", "ratio", "plate_norm", "sup_eta"],
               trace_rows)
    ratios = [step["ratio"] for step in result.trace
              if step["ratio"] is not None]
    return {
        "converged": result.converged,
        "iterations": result.iterations,
        "ball_radius": result.radius,
        "in_ball": result.in_ball,
        "contraction_ratios": ratios,
        "max_contraction_ratio": max(ratios) if ratios else 0.0,
        "picard_error_bound": result.error_bound,
        "residuals": result.residuals,
        "norms": {"x_norm_solution": result.trace[-1]["x_norm"]},
        "smallness_gate": asdict(result.gate),
        "outputs": ["u.plf", "p.plf", "eta.plf", "eta_samples.csv",
                    "picard_trace.csv"],
    }


def _run_multiplier_scan(cfg: ScenarioConfig, out_dir: Path, seed: int,
                         base_dir: Path) -> dict:
    k_max, xi_max = _window(cfg, "multiplier-scan")
    report = boundedness_scan(k_max, xi_max, cfg.mu_s, t_period=cfg.T,
                              l_period=cfg.L)
    ks = _distinct(np.geomspace(1, k_max, 64).astype(int))
    ns = _distinct(np.geomspace(1, xi_max, 64).astype(int))
    rows = []
    for ray, index, (m, w) in (
            ("k", ks, lattice_multipliers(ks, (1, 0), cfg.mu_s, cfg.T, cfg.L)),
            ("xi", ns, lattice_multipliers(1, (ns, 0), cfg.mu_s, cfg.T, cfg.L))):
        rows += [(ray, i, f"{a:.16e}", f"{b:.16e}") for i, a, b in
                 zip(index.tolist(), np.abs(m).tolist(), np.abs(w).tolist())]
    _write_csv(out_dir / "multiplier_rays.csv",
               ["ray", "index", "abs_m", "abs_weighted"], rows)
    return {
        "scan": report.as_json_dict(),
        "empirical_constants": {
            "sup_weighted_multiplier": report.sup_weighted,
            "decay_exponent_k": report.decay_exponent_k,
            "decay_exponent_xi": report.decay_exponent_xi,
        },
        "outputs": ["multiplier_rays.csv"],
    }


def _run_resonance_report(cfg: ScenarioConfig, out_dir: Path, seed: int,
                          base_dir: Path) -> dict:
    k_max, xi_max = _window(cfg, "resonance-report")
    rows = resonance_report(k_max, xi_max, cfg.mu_s, cfg.near_factor,
                            cfg.T, cfg.L)
    (out_dir / "resonance.csv").write_text(resonance_rows_to_csv(rows))
    counts: dict[str, int] = {}
    for row in rows:
        counts[row.label] = counts.get(row.label, 0) + 1
    resonant = [{"k": r.k, "xi": list(r.xi)} for r in rows
                if r.label == "resonant"]
    return {
        "counts": counts,
        "resonant_points": resonant,
        "outputs": ["resonance.csv"],
    }


def _run_lift_div(cfg: ScenarioConfig, out_dir: Path, seed: int,
                  base_dir: Path) -> dict:
    from .lift import lift_divergence, lift_estimate_check, lift_norms

    grid = cfg.grid()
    g = _scaled_forcing(cfg, grid, "g", base_dir)
    w = lift_divergence(g, compat_tol=cfg.compat_tol)
    write_field(out_dir / "w.plf", w)
    norms = lift_norms(g, w, cfg.q)
    return {
        "residuals": {
            "divergence": float(np.max(np.abs(divergence(w).coeffs - g.coeffs))),
            "faces": float(np.max(np.abs(w.coeffs[:, (0, grid.n_z)]))),
        },
        "norms": {key: norms[key] for key in ("g_w1q", "g_dual", "w_l_q", "w_w2q")},
        "empirical_constants": lift_estimate_check(g, w, cfg.q, norms),
        "outputs": ["w.plf"],
    }


def _run_validate(cfg: ScenarioConfig, out_dir: Path, seed: int,
                  base_dir: Path) -> dict:
    from . import oracles

    checks = []

    def record(name, passed, values, threshold):
        checks.append({"name": name, "passed": bool(passed),
                       "values": values, "threshold": threshold})

    for idx in range(3):
        case = oracles.make_manufactured(seed + idx)
        res = case.constraint_residuals()
        record(f"manufactured_constraints_seed{seed + idx}",
               max(res.values()) < 1e-13, res, "max < 1e-13")

    case = oracles.make_manufactured(seed, n_z=16)
    rep = oracles.cross_validate_linear(case, q=cfg.q)
    record("cross_validation_paths", rep["path_discrepancy"] < 1e-9,
           {"path_discrepancy": rep["path_discrepancy"]}, "< 1e-9")
    record("cross_validation_truth",
           rep["lift_truth_rel"] < 1e-8 and rep["direct_truth_rel"] < 1e-8,
           {"lift_truth_rel": rep["lift_truth_rel"],
            "direct_truth_rel": rep["direct_truth_rel"]}, "< 1e-8")

    flat = oracles.make_manufactured(seed + 10, flat_plate=True)
    rep0 = oracles.cross_validate_linear(flat, q=cfg.q)
    record("cross_validation_flat_identity",
           rep0["path_discrepancy"] < 1e-12,
           {"path_discrepancy": rep0["path_discrepancy"]}, "< 1e-12")

    err8 = oracles.cross_validate_linear(
        oracles.make_manufactured(seed, n_z=8))["lift_truth_error"]
    err16 = rep["lift_truth_error"]
    drop = err8 / max(err16, 1e-300)
    record("refinement_drop", drop >= 100.0,
           {"err_nz8": err8, "err_nz16": err16, "drop": drop}, ">= 2 orders")

    grid = TorusGrid(5, 5, 8, cfg.T, cfg.L)
    dc = np.zeros((9, 5, 5, 5), complex)
    dc[:, 2, 2, 2] = 1.0
    const = SpectralField(grid, dc, components=1, real=True)
    tt = grid.t_samples[:, None, None]
    x1 = grid.x_samples[:, None]
    zz = grid.nodes[:, None, None, None]
    shape = (9, 5, 5, 5)
    single = forward_transform(
        grid, np.broadcast_to(np.cos(tt + x1), shape).copy())
    chebf = forward_transform(
        grid, np.broadcast_to(np.sin(np.pi * zz), shape).copy())
    fd_values = {
        "const_t": oracles.fd_check(const, "t"),
        "const_x1": oracles.fd_check(const, "x1"),
        "single_mode_t": oracles.fd_check(single, "t"),
        "single_mode_x1": oracles.fd_check(single, "x1"),
        "cheb_sin": oracles.fd_check(chebf, "x3"),
    }
    record("fd_check",
           fd_values["const_t"] == 0.0 and fd_values["const_x1"] == 0.0
           and all(v < 1e-8 for v in fd_values.values()),
           fd_values, "constants exact, others < 1e-8")

    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(5):
        c = np.zeros((5, 5, 5), complex)
        c[1:4, 1:4, 1:4] = rng.normal(size=(3, 3, 3)) \
            + 1j * rng.normal(size=(3, 3, 3))
        c = _symmetrize(c)
        c[2, 2, 2] = 0.0
        eta = PlateField(grid, c, real=True)
        ratios.append(oracles.embedding_ratio(
            eta, m=2, m_x=0, M_t=0, alpha=2.0, r=np.inf, p=np.inf, q=cfg.q))
    record("embedding_supnorm_case", all(0 < v < 10 for v in ratios),
           {"ratios": ratios}, "bounded by 10")

    suite = {"passed": all(c["passed"] for c in checks), "checks": checks}
    _write_json(out_dir / "validation.json", suite)
    _write_csv(out_dir / "validation_summary.csv",
               ["check", "passed", "threshold"],
               [(c["name"], c["passed"], c["threshold"]) for c in checks])
    if not suite["passed"]:
        failed = [c["name"] for c in checks if not c["passed"]]
        raise CliError(EXIT_VALIDATION, "validation",
                       f"validation failed: {', '.join(failed)}")
    return {"validation": suite,
            "outputs": ["validation.json", "validation_summary.csv"]}


_RUNNERS = {
    "solve-linear": _run_solve_linear,
    "solve-nonlinear": _run_solve_nonlinear,
    "multiplier-scan": _run_multiplier_scan,
    "resonance-report": _run_resonance_report,
    "lift-div": _run_lift_div,
    "validate": _run_validate,
}


# ---- entry point ---------------------------------------------------------------------


# (set, get) thread-count entry points of the OpenBLAS builds numpy ships
# with or links against, in the order they are tried
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _openblas_libraries() -> list[str]:
    """Paths of the OpenBLAS numpy loaded: its bundled copy, else any mapped one."""
    bundled = sorted(Path(np.__file__).parent.parent.joinpath("numpy.libs")
                     .glob("*openblas*"))
    if bundled:
        return [str(path) for path in bundled]
    try:
        with open("/proc/self/maps") as fh:
            mapped = {line.split(maxsplit=5)[5].strip() for line in fh
                      if "openblas" in line}
    except OSError:
        return []
    return sorted(mapped)


def _openblas_thread_calls():
    """The first (set, get) thread-count pair OpenBLAS exports, or None."""
    for path in _openblas_libraries():
        lib = ctypes.CDLL(path)
        for set_name, get_name in _OPENBLAS_THREAD_CALLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


@contextmanager
def _one_blas_thread():
    """Run OpenBLAS on one thread inside the block, then restore the caller's
    count.  Yields the count in effect, or None when no OpenBLAS is found.

    A second BLAS thread bought no wall time on the dense mode solves it was
    measured on, costs CPU, and changes the last bits of batched LAPACK
    calls; one thread makes the outputs independent of OPENBLAS_NUM_THREADS.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield None
        return
    setter, getter = calls
    before = getter()
    setter(1)
    try:
        yield getter()
    finally:
        setter(before)


def _emit_error(code: int, kind: str, message: str):
    doc = {"error": {"code": code, "kind": kind, "message": message}}
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """A malformed command line is a config error: exit 1, one JSON line."""

    def error(self, message):
        raise _config_error(f"{self.prog}: {message}")


def main(argv=None) -> int:
    parser = _Parser(
        prog="plateflow",
        description="Spectral solver for a periodically forced fluid layer "
                    "coupled to a damped elastic plate.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--seed", type=int, default=None)

    t0 = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        cfg, raw = load_config(args.config, args.command)
        if args.threads < 1:
            raise _config_error("threads must be at least 1")
        seed = args.seed if args.seed is not None else cfg.seed
        out_dir = Path(args.out if args.out is not None else cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        base_dir = Path(args.config).resolve().parent

        doc = _base_manifest(args.command, cfg, raw, seed)
        t1 = time.perf_counter()
        with _one_blas_thread() as blas_threads:
            doc.update(_RUNNERS[args.command](cfg, out_dir, seed, base_dir))
        t2 = time.perf_counter()
        # the one run-dependent block; everything else is bit-reproducible
        doc["execution"] = {
            "threads": args.threads,
            "blas_threads": blas_threads,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "seconds": {"setup": t1 - t0, "run": t2 - t1},
        }
        _write_manifest(out_dir, doc)
        return 0
    except CliError as exc:
        _emit_error(exc.code, exc.kind, str(exc))
        return exc.code
    except IncompatibleDataError as exc:
        _emit_error(EXIT_INCOMPATIBLE, "incompatible", str(exc))
        return EXIT_INCOMPATIBLE
    except ValueError as exc:
        _emit_error(EXIT_CONFIG, "config", str(exc))
        return EXIT_CONFIG
    except OSError as exc:
        # an output path taken by a file or a directory
        _emit_error(EXIT_CONFIG, "config", f"output path {exc.filename}: "
                    f"{exc.strerror}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
