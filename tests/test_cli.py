"""End-to-end tests of the command-line harness.

Everything runs in-process through ``main(argv)`` so exit codes, the
stderr error JSON, and the written artifacts can all be checked without
spawning an interpreter; only the BLAS thread and start-up tests start
fresh ones, because ``OPENBLAS_NUM_THREADS`` is read when numpy loads
OpenBLAS and a process imports each module once.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from plateflow import cli
from plateflow.cli import CliError, load_config, main, parse_forcing
from plateflow.fields import PlateField, divergence, physical_samples
from plateflow.grid import TorusGrid
from plateflow.io import read_field, write_field
from plateflow.modes import solve_linear_full
from plateflow.norms import negative_norm, x_norm, y_norm
from plateflow.oracles import solve_by_lift

from conftest import bubble_field, count_calls, poly_field, poly_plate

GRID = TorusGrid(5, 5, 8)


def run_cli(tmp_path, cfg_text, command, extra=(), out_name="out"):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / out_name
    code = main([command, "--config", str(cfg), "--out", str(out)]
                + list(extra))
    return code, out


def _not_json(name):
    raise ValueError(f"manifest holds {name}, which JSON does not admit")


def manifest_of(out_dir):
    # strict: NaN and Infinity are a Python extension other JSON readers refuse
    return json.loads((out_dir / "manifest.json").read_text(),
                      parse_constant=_not_json)


def error_payload(capsys):
    return error_payload_of(capsys.readouterr().err)


def error_payload_of(stderr):
    doc = json.loads(stderr.strip().splitlines()[-1])
    assert set(doc) == {"error"}
    assert set(doc["error"]) == {"code", "kind", "message"}
    return doc["error"]


# ---- forcing expressions ---------------------------------------------------------


def test_zero_expression_gives_zero_momentum_field():
    f = parse_forcing("0", GRID, "f")
    assert f.components == 3
    assert not f.coeffs.any()


def test_single_expression_is_a_vertical_force():
    f = parse_forcing("0.001*cos(t)*sin(x1)", GRID, "f")
    vals = physical_samples(f)
    tt = GRID.t_samples[:, None, None]
    x1 = GRID.x_samples[:, None]
    want = 0.001 * np.cos(tt) * np.sin(x1)
    assert np.max(np.abs(vals[0])) == 0.0
    assert np.max(np.abs(vals[1])) == 0.0
    assert np.max(np.abs(vals[2] - want)) < 1e-15
    # four lattice corners (k = +-1, xi1 = +-1); the layer axis is nodal,
    # so the z profile is the constant 1 at every node
    mode_mag = np.max(np.abs(f.coeffs[2]), axis=0)
    support = set(map(tuple, np.argwhere(mode_mag > 1e-12)))
    assert support == {(it, i1, 2) for it in (1, 3) for i1 in (1, 3)}
    assert np.allclose(np.abs(f.coeffs[2, :, 1, 1, 2]), 0.00025)


def test_three_part_momentum_forcing():
    f = parse_forcing("sin(x1); 0; cos(2*x2)", GRID, "f")
    vals = physical_samples(f)
    x1 = GRID.x_samples[:, None]
    x2 = GRID.x_samples
    assert np.max(np.abs(vals[0] - np.sin(x1) * np.ones_like(vals[0]))) < 1e-14
    assert np.max(np.abs(vals[1])) == 0.0
    assert np.max(np.abs(vals[2] - np.cos(2 * x2) * np.ones_like(vals[2]))) < 1e-14


def test_plate_forcing_coefficients():
    h = parse_forcing("cos(t)*cos(x1)", GRID, "h")
    assert isinstance(h, PlateField)
    for it in (1, 3):
        for i1 in (1, 3):
            assert abs(h.coeffs[it, i1, 2] - 0.25) < 1e-15
    assert abs(h.coeffs[2, 2, 2]) < 1e-15


def test_scalar_datum_with_layer_profile():
    g = parse_forcing("exp(x3)*sin(x1)", GRID, "g")
    vals = physical_samples(g)
    x1 = GRID.x_samples[:, None]
    zz = GRID.nodes[:, None, None, None]
    assert np.max(np.abs(vals - np.exp(zz) * np.sin(x1))) < 1e-12


@pytest.mark.parametrize("expr,fragment", [
    ("cos(0.5*t)", "not an integer multiple"),
    ("cos(3*t)", "harmonic 3 in 't' lies outside the lattice band |n| <= 2"),
    ("sin(3*x2)", "harmonic 3 in 'x2' lies outside the lattice band |n| <= 2"),
    ("exp(x1)", "never periodic"),
    ("t", "only inside sin/cos"),
    ("x1**2", "only inside sin/cos"),
    ("sin(x1*x1)", "must be affine"),
    ("1/x1", "divisor must be constant"),
    ("2**-1", "nonnegative integer"),
    ("cos(t", "forcing expression error"),
    ("tan(x1)", "only sin, cos and exp"),
    ("sin(x1); 0", "one expression or three"),
    ("1/0", "cannot be evaluated"),
    ("sin(x1/0)", "cannot be evaluated"),
    ("10.0**400", "cannot be evaluated"),
    ("sin((-8)**(1/3)*x1)", "complex number"),
    ("sin(x1*(-1)**0.5)", "complex number"),
    ("sin(x1/(-1)**0.5)", "complex number"),
    ("exp((-1)**0.5*x3)", "complex number"),
    # past Python's parser: a long sum, a deep chain of signs
    pytest.param(" + ".join(["cos(x1)"] * 3000), "too long or too deep",
                 id="sum-of-3000-terms"),
    pytest.param("-" * 3000 + "x3", "too long or too deep", id="3000-minus-signs"),
])
def test_rejected_expressions(expr, fragment):
    with pytest.raises(CliError) as exc:
        parse_forcing(expr, GRID, "f")
    assert exc.value.code == 1
    assert fragment in str(exc.value)


def test_plate_kind_rejects_layer_coordinate():
    with pytest.raises(CliError, match="unknown name 'x3'"):
        parse_forcing("x3", GRID, "h")


def test_harmonic_check_uses_grid_periods():
    fast = TorusGrid(5, 5, 8, t_period=math.pi)
    parse_forcing("cos(2*t)", fast, "h")  # base frequency 2. fine
    with pytest.raises(CliError, match="not an integer multiple"):
        parse_forcing("cos(t)", fast, "h")


def test_long_expressions_parse_without_recursion():
    # the walk keeps its own stack: a sum Python's parser still admits and a
    # long affine argument parse at the default recursion limit, with the
    # samples of the tree's own operation order
    x1 = GRID.x_samples[:, None]
    terms, arg = np.cos(x1), x1 / 490
    want = terms
    for _ in range(1999):
        want = want + terms
    for _ in range(489):
        arg = arg + x1 / 490
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        long_sum = cli._parse_expression(" + ".join(["cos(x1)"] * 2000), GRID, True)
        long_arg = cli._parse_expression(
            "sin(" + " + ".join(["x1/490"] * 490) + ")", GRID, False)
    finally:
        sys.setrecursionlimit(limit)
    assert np.array_equal(long_sum, np.broadcast_to(want, long_sum.shape))
    assert np.array_equal(long_arg, np.broadcast_to(np.sin(arg), long_arg.shape))


# sha256 of the float64 samples of every expression this module has the
# parser accept, and of a power and a quotient, taken before checking,
# folding and evaluation became one walk; (expression, plate) -> digest
PINNED_SAMPLES = {
    ("0", False):
        "1631d7a5072e5527ca677bb4035bb86ab97976a30514b268e9b0bd91ac7100ee",
    ("0", True):
        "541b3e9daa09b20bf85fa273e5cbd3e80185aa4ec298e765db87742b70138a53",
    ("1", False):
        "b4f8b3f1a4aec10ba38aa406d5fdb1ff8b04d21ed859eeb570f3b5c2cd6ec538",
    ("1", True):
        "aac95d8dd2274a83066506a19d9cba55226253b89c929f657f7959dc35b446ba",
    ("0.001*cos(t)*sin(x1)", False):
        "9f4a8bff69d10ca1acd8016d6bffdce62f665826347dd1a3aa631d84cf0576af",
    ("0.001*cos(t)*sin(x1)", True):
        "963d7a3187a98d36eb5141942131b231aa8fb8cb6d4db7681b889ed744fb8b1d",
    ("sin(x1)", False):
        "157e7264cbd8f8b22f67324903b20f2e08db28ac16742a43560099971e1165b6",
    ("sin(x1)", True):
        "624b7e8b1245ea95d6c86d4f000adc34134d5990edb7cb5da73d7d7cc7e43a76",
    ("cos(2*x2)", False):
        "b9e8e3fcd67158e0c71e72ece8f6ba343c23774351a033a3bd2f3b26a97686c6",
    ("cos(2*x2)", True):
        "a1c460f63b07421e3faf4d9a4233562d286f20c46cef1bff7a31676e2239bafd",
    ("cos(t)*cos(x1)", False):
        "a968e350ce73ff17369b11c86fcb8bf45ad8a8b44cc9df610966c7f29a1a0248",
    ("cos(t)*cos(x1)", True):
        "c82367e434ea25663bb408136978c77f4195dab23039e1af1e37e1c7d99514fd",
    ("exp(x3)*sin(x1)", False):
        "9b2cd7aae3a5d6dc91078f888b9ee37594f6b228b9eb21475821ae15032eb782",
    ("0.001*cos(t)*cos(x1)", False):
        "192fe8da07db7c21e1834dd74572fd71280cd1a96cc0e201621a4d3af39fa74b",
    ("0.001*cos(t)*cos(x1)", True):
        "5356417a8e949551fef09f9a3a3c41cd035eb7832fc47f7cf8ffdd70f6c9a5af",
    ("exp(1000*x3)", False):
        "910ba526ed9ec21641d9b588cbe0c0ef511ca014e1af4462de20496605f2fa05",
    ("1e308*10", False):
        "111838c3300fb11fdc416244b703e2f3dd6da60cc28e36590feb7b8926204c26",
    ("1e308*10", True):
        "877a7324e2f24b7b08351f68c8d6727675b7f558da93328ad4d2cbc0b8389ee9",
    ("1e300*cos(t)", False):
        "28d226ac70da03a0cbd108d223cd9b73b1b6632ef2e852ef542833d0c798ea69",
    ("1e300*cos(t)", True):
        "9be1655e597ad41c37bde40095e15ab83e1b4681faa847dad52fc3a70ae8a809",
    ("0.01*cos(t)*cos(x1)", False):
        "775de12bdc9355e1a87690529e7108d2136c3056a2cc7762a85deac88353c17f",
    ("0.01*cos(t)*cos(x1)", True):
        "66f3a1029eff2e19da88ff05599c63dc06047173100464c4e57f27adf0aa307d",
    ("cos(t)*cos(x1) + sin(2*t)*cos(x1+x2)", False):
        "fd8e5761bf085a9660135552c706a38a4012fd98b3c236aed380766351897f40",
    ("cos(t)*cos(x1) + sin(2*t)*cos(x1+x2)", True):
        "4004a45590a0c13d8bc776b5fdd6456e5ee49f90ca242fe8cc1411f1dab4c601",
    ("exp(x3)*cos(t)*sin(x2)", False):
        "280414f0588147364f88780153125f63bc45d529855c5dae42c7bc265b5f6057",
    ("40*cos(t)*cos(x1)", False):
        "7c5cd7f00ce2a27ef7b0b1dcd8a31312d040e0939c052fd82d7f91397938da91",
    ("40*cos(t)*cos(x1)", True):
        "4a960ec29263e2aa2d9af1bc1692582288dbf7b12143c36c3752da3eedfdf634",
    ("0.01*sin(x1)", False):
        "401063751a11cbdf6ee8b0926fe85b643a7ce107c23d6017433a3412d347b6a6",
    ("0.01*sin(x1)", True):
        "a20912b4fb8e623e5982ec90db86badd2b4b867a6e895cbf6826a7ff15f3aaa1",
    ("1 + x3*0.5", False):
        "0d8d13fc3c28b7480cb722d469671c66965749cda1db2c9d10a9ba6fe5358bb4",
    ("cos(t)**2/3", False):
        "4e2ffdc22bb847ea4ae43dbe2ddada93f00481647154b5fcb7e70c952843d771",
    ("cos(t)**2/3", True):
        "1b331056984ae94bdee83f68ebc6864ae5fc6d9bbbc2c1ee2d19b47be18b0bb1",
}
# the same digest of numpy's own sin, cos and exp on the lattice samples;
# where numpy picks other kernels the pins above do not apply
PINNED_KERNELS = "66978f9444b766b9246257bac508a25e604d5fff0b72ec4479618b9a95ffb2a3"


def _digest(values):
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def test_accepted_expressions_keep_their_sample_bits():
    t, x, z = GRID.t_samples, GRID.x_samples, GRID.nodes
    kernels = [f(a) for f in (np.sin, np.cos)
               for a in (t, 2 * t, x, 2 * x, x[:, None] + x)]
    with np.errstate(over="ignore"):
        kernels += [np.exp(z), np.exp(1000 * z)]
    if _digest(np.concatenate(kernels, axis=None)) != PINNED_KERNELS:
        pytest.skip("numpy's sin, cos or exp round differently on this machine")
    with np.errstate(over="ignore"):
        for (expr, plate), digest in PINNED_SAMPLES.items():
            assert _digest(cli._parse_expression(expr, GRID, plate)) == digest, expr


def test_file_forcing_round_trip(tmp_path):
    g = poly_field(GRID, seed=5, components=1, scale=0.1)
    write_field(tmp_path / "g.plf", g)
    back = parse_forcing("file:g.plf", GRID, "g", base_dir=tmp_path)
    assert np.array_equal(back.coeffs, g.coeffs)


def test_file_forcing_wrong_domain(tmp_path):
    g = poly_field(GRID, seed=5, components=1)
    write_field(tmp_path / "g.plf", g)
    with pytest.raises(CliError) as exc:
        parse_forcing("file:g.plf", GRID, "h", base_dir=tmp_path)
    assert exc.value.code == 2
    assert exc.value.kind == "incompatible"


def test_file_forcing_wrong_component_count(tmp_path):
    g = poly_field(GRID, seed=5, components=1)
    write_field(tmp_path / "g.plf", g)
    with pytest.raises(CliError, match="3 components"):
        parse_forcing("file:g.plf", GRID, "f", base_dir=tmp_path)
    write_field(tmp_path / "f.plf", poly_field(GRID, seed=5))
    with pytest.raises(CliError, match="must be scalar") as exc:
        parse_forcing("file:f.plf", GRID, "g", base_dir=tmp_path)
    assert exc.value.code == 2


def test_file_forcing_missing(tmp_path):
    with pytest.raises(CliError) as exc:
        parse_forcing("file:nowhere.plf", GRID, "g", base_dir=tmp_path)
    assert exc.value.code == 1


# ---- config files ----------------------------------------------------------------


def test_config_defaults_and_hash(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("# comment only\nmu_f = 2.0\n")
    cfg, raw = load_config(path)
    assert cfg.mu_f == 2.0
    assert cfg.n_t == 5 and cfg.route == "direct"
    assert raw == path.read_text()


@pytest.mark.parametrize("text,fragment", [
    ("bogus = 1\n", "unknown key"),
    ("mu_f = 1\nmu_f = 2\n", "duplicate key"),
    ("n_t = 4\n", "odd"),
    ("n_t = abc\n", "needs an integer"),
    ("mu_f = fast\n", "needs a number"),
    ("just words\n", "expected 'key = value'"),
    ("route = sideways\n", "route must be"),
    ("T = 0\n", "periods T and L must be positive"),
    ("mu_f = 0\n", "mu_f must be positive"),
    ("mu_s = -1\n", "mu_s must be nonnegative"),
    ("max_iter = 0\n", "max_iter must be at least 1"),
    ("k_max = -1\n", "scan ranges must be nonnegative"),
    ("n_z = 2\n", "n_z"),
    ("eps = 0\n", "eps must be positive"),
    ("threads = 0\n", "threads"),
])
def test_config_rejections(tmp_path, text, fragment):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(CliError) as exc:
        load_config(path)
    assert exc.value.code == 1
    assert fragment in str(exc.value)


@pytest.mark.parametrize("command,text,fragment", [
    ("solve-linear", "mu_s = nan\n", "'mu_s' must be finite"),
    ("solve-linear", "T = nan\n", "'T' must be finite"),
    ("solve-linear", "L = -inf\n", "'L' must be finite"),
    ("solve-nonlinear", "eps0 = nan\n", "'eps0' must be finite"),
    ("solve-nonlinear", "eps0 = 0\n", "eps0 must be positive"),
    ("solve-nonlinear", "picard_tol = -1\n", "picard_tol must be positive"),
    ("solve-linear", "tol_eq = -1\n", "tol_eq must be positive"),
    ("solve-linear", "tol_bc = 0\n", "tol_bc must be positive"),
    ("solve-linear", "compat_tol = -1\n", "compat_tol must be positive"),
    ("solve-nonlinear", "tol_nl = 0\n", "tol_nl must be positive"),
    ("resonance-report", "near_factor = -1\n", "near_factor must be positive"),
    ("solve-linear", "q = 1e308\n", "q must lie in (1, 100]"),
    ("solve-linear", "q = 1\n", "q must lie in (1, 100]"),
    ("solve-linear", "forcing_h = 1/0\n", "cannot be evaluated"),
    ("lift-div", "forcing_g = sin(x1/0)\n", "cannot be evaluated"),
    ("solve-linear", "forcing_h = 10.0**400\n", "cannot be evaluated"),
    ("solve-nonlinear", "forcing_f = exp(1000*x3)\n", "forcing_f is not finite"),
    ("solve-linear", "forcing_h = 1e308*10\n", "forcing_h is not finite"),
    ("solve-linear", "forcing_h = 1e300*cos(t)\neps = 1e10\n",
     "forcing_h is not finite"),
    pytest.param("solve-linear",
                 "forcing_h = " + " + ".join(["cos(x1)"] * 3000) + "\n",
                 "too long or too deep", id="solve-linear-sum-of-3000-terms"),
    pytest.param("lift-div", "forcing_g = " + "-" * 3000 + "x3\n",
                 "too long or too deep", id="lift-div-3000-minus-signs"),
    # finite configs whose results are not: refused up front by the extreme
    # lattice mode, or by the strict manifest
    ("solve-linear", "T = 1e-300\nforcing_h = sin(2*pi/1e-300*t)\n",
     "plate symbol or mu_f |xi'|^2 of mode k = 2, xi' = (2, 2) not finite"),
    ("solve-nonlinear", "L = 1e-200\n", "of mode k = 2, xi' = (2, 2) not finite"),
    ("solve-linear", "mu_s = 1e308\nn_z = 8\n", "not finite"),
    ("solve-linear", "eps = 1e300\nforcing_h = cos(x1)\nn_z = 8\n",
     "output value norms.y_norm_data is inf"),
    pytest.param("multiplier-scan", "T = 1e-300\nk_max = 20\nxi_max = 10\n",
                 "coupled symbol or the weight 1 + k^2 + |xi'|^4 of mode k = 20, "
                 "xi' = (10, 10) not finite",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    pytest.param("multiplier-scan", "k_max = 1\nxi_max = 10\n",
                 "needs k_max >= 2 for its k-ray decay fit",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    pytest.param("lift-div", "L = 1e-200\n",
                 "L makes |xi'|^2 of mode k = 2, xi' = (2, 2) not finite",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    *(pytest.param("resonance-report", text,
                   "coupled symbol or the weight 1 + k^2 + |xi'|^4 of mode k = 4, "
                   "xi' = (2, 2) not finite",
                   marks=pytest.mark.filterwarnings("error::RuntimeWarning"))
      for text in ("T = 1e-300\n", "L = 1e-200\n")),
])
def test_bad_config_floats_exit_1(tmp_path, capsys, command, text, fragment):
    code, out = run_cli(tmp_path, text, command)
    assert code == 1
    err = error_payload(capsys)
    assert err["kind"] == "config" and fragment in err["message"]
    assert "\n" not in err["message"]
    assert not (out / "manifest.json").exists()


def test_largest_q_runs_without_numpy_warnings(tmp_path):
    text = f"n_z = 8\nq = {cli.Q_MAX:g}\nforcing_h = cos(t)*cos(x1)\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_cli(tmp_path, text, "solve-linear")
    assert code == 0
    norms = manifest_of(out)["norms"]
    assert all(math.isfinite(v) and v > 0.0 for v in norms.values())


@pytest.mark.parametrize("command,text", [
    ("resonance-report", "k_max = 10000\nxi_max = 100\n"),   # ~4e8 rows
    ("multiplier-scan", "xi_max = 100000\n"),                # ~5e9 square-sum pairs
])
def test_oversized_window_refused(tmp_path, capsys, monkeypatch, command, text):
    def never(*args):
        raise AssertionError("a refused window must not run")
    monkeypatch.setitem(cli._RUNNERS, command, never)
    code, out = run_cli(tmp_path, text, command)
    assert code == 1
    err = error_payload(capsys)
    assert err["kind"] == "config"
    assert "needs an estimated" in err["message"] and "GiB budget" in err["message"]
    assert "\n" not in err["message"]
    assert not (out / "manifest.json").exists()
    # the same window is no concern of the solver subcommands
    cfg, _ = load_config(tmp_path / "run.cfg", "solve-linear")
    assert cfg.xi_max > 0


def test_window_estimates_admit_the_benchmark_windows():
    assert cli.scan_window_bytes(20_000, 200) < cli.WINDOW_BUDGET_BYTES
    assert cli.report_window_bytes(4, 2) < cli.WINDOW_BUDGET_BYTES
    assert cli.report_window_bytes(10_000, 100) > 400e9


def test_missing_config_file(tmp_path, capsys):
    code = main(["validate", "--config", str(tmp_path / "none.cfg")])
    assert code == 1
    err = error_payload(capsys)
    assert err["kind"] == "config"
    assert "cannot read config" in err["message"]


def test_zero_damping_reserved_for_scans(tmp_path, capsys):
    code, out = run_cli(tmp_path, "mu_s = 0\n", "solve-linear")
    assert code == 1
    assert error_payload(capsys)["kind"] == "config"
    assert not (out / "manifest.json").exists()

    code, out = run_cli(tmp_path, "mu_s = 0\nk_max = 8\nxi_max = 4\n",
                        "multiplier-scan", out_name="scan0")
    assert code == 0
    assert math.isfinite(manifest_of(out)["scan"]["sup_weighted"])

    code, out = run_cli(tmp_path, "mu_s = 0\n", "resonance-report",
                        out_name="table0")
    assert code == 0
    assert manifest_of(out)["counts"]["resonant"] == 12


def test_zero_damping_refused_by_load_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu_s = 0\n")
    with pytest.raises(CliError, match="mu_s = 0 is reserved") as info:
        load_config(cfg, "solve-linear")
    assert info.value.code == 1
    for command in (None, "multiplier-scan", "resonance-report"):
        assert load_config(cfg, command)[0].mu_s == 0.0


@pytest.mark.parametrize("argv, message", [
    (["solve-linear", "--config", "{cfg}", "--threads", "x"], "invalid int value"),
    (["solve-linear", "--out", "{out}"], "required: --config"),
    (["no-such-command", "--config", "{cfg}"], "invalid choice"),
    (["solve-linear", "--config", "{cfg}", "--out", "{out}", "--threads", "0"],
     "threads must be at least 1"),
])
def test_malformed_command_line_exits_1(tmp_path, capsys, argv, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_z = 8\n")
    out = tmp_path / "out"
    code = main([a.format(cfg=cfg, out=out) for a in argv])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    err = error_payload_of(captured.err)
    assert err["code"] == 1 and err["kind"] == "config"
    assert message in err["message"]
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("case", ["out_is_file", "out_under_file",
                                  "forcing_is_dir", "output_is_dir"])
def test_unusable_paths_exit_1(tmp_path, capsys, case):
    # each case names the path the error message must name
    cfg_text, out_name, named = "n_z = 8\n", "out", "out"
    if case == "out_is_file":
        (tmp_path / "out").write_text("")
    elif case == "out_under_file":
        (tmp_path / "file").write_text("")
        out_name = named = "file/out"
    elif case == "forcing_is_dir":
        (tmp_path / "h.plf").mkdir()
        cfg_text += "forcing_h = file:h.plf\n"
        named = "h.plf"
    else:
        (tmp_path / "out" / "u.plf").mkdir(parents=True)
        named = "out/u.plf"
    code, _ = run_cli(tmp_path, cfg_text, "solve-linear", out_name=out_name)
    assert code == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and len(captured.err.splitlines()) == 1
    err = error_payload_of(captured.err)
    assert err["code"] == 1 and err["kind"] == "config"
    assert str(tmp_path / named) in err["message"]


# ---- solve-linear ----------------------------------------------------------------


def test_solve_linear_zero_data(tmp_path):
    code, out = run_cli(tmp_path, "n_z = 8\n", "solve-linear")
    assert code == 0
    doc = manifest_of(out)
    assert doc["command"] == "solve-linear"
    assert doc["empirical_constants"]["x_over_y_ratio"] is None
    assert doc["norms"]["x_norm_solution"] == 0.0
    assert max(doc["residuals"].values()) == 0.0
    u = read_field(out / "u.plf")
    assert not u.coeffs.any()
    lines = (out / "eta_samples.csv").read_text().splitlines()
    assert lines[0] == "t,x1,x2,eta"
    assert len(lines) == 1 + 5 * 5 * 5


def test_solve_linear_plate_forcing(tmp_path):
    cfg = "forcing_h = 0.001*cos(t)*cos(x1)\nn_z = 12\n"
    code, out = run_cli(tmp_path, cfg, "solve-linear")
    assert code == 0
    doc = manifest_of(out)
    assert max(doc["residuals"].values()) < 1e-9
    assert doc["norms"]["y_norm_data"] > 0
    ratio = doc["empirical_constants"]["x_over_y_ratio"]
    assert 0 < ratio < 10
    raw = (tmp_path / "run.cfg").read_text()
    assert doc["config_sha256"] == hashlib.sha256(raw.encode()).hexdigest()
    eta = read_field(out / "eta.plf")
    assert isinstance(eta, PlateField) and eta.coeffs.any()
    # the ratio is x_norm / y_norm at q = 2; the norms are reported at q
    f, h = (parse_forcing(expr, eta.grid, kind)
            for expr, kind in (("0", "f"), ("0.001*cos(t)*cos(x1)", "h")))
    for q, name in ((2.0, "out"), (3.0, "q3")):
        if q != 2.0:
            _, out = run_cli(tmp_path, cfg + f"q = {q}\n", "solve-linear",
                             out_name=name)
        doc = manifest_of(out)
        u, p, eta = (read_field(out / f"{n}.plf") for n in ("u", "p", "eta"))
        assert doc["empirical_constants"]["x_over_y_ratio"] == (
            x_norm(u, p, eta, 2.0) / y_norm(f, None, h, 2.0))
        assert doc["norms"]["x_norm_solution"] == x_norm(u, p, eta, q)
        assert doc["norms"]["y_norm_data"] == y_norm(f, None, h, q)
    assert doc["empirical_constants"]["x_over_y_ratio"] == ratio
    assert doc["norms"]["x_norm_solution"] != x_norm(u, p, eta, 2.0)


def test_solve_linear_eps_scales_data(tmp_path):
    base = "forcing_h = cos(t)*cos(x1)\nn_z = 8\n"
    _, out1 = run_cli(tmp_path, base + "eps = 1.0\n", "solve-linear",
                      out_name="o1")
    _, out2 = run_cli(tmp_path, base + "eps = 2.0\n", "solve-linear",
                      out_name="o2")
    y1 = manifest_of(out1)["norms"]["y_norm_data"]
    y2 = manifest_of(out2)["norms"]["y_norm_data"]
    assert abs(y2 - 2.0 * y1) < 1e-12 * y1


def test_solve_linear_incompatible_datum(tmp_path, capsys):
    cfg = "forcing_g = 1\nroute = direct\nn_z = 8\n"
    code, out = run_cli(tmp_path, cfg, "solve-linear")
    assert code == 2
    err = error_payload(capsys)
    assert err["kind"] == "incompatible"
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("mu_f", ["1e-310", "1e-320"])
def test_solve_linear_refuses_a_solution_that_is_not_finite(tmp_path, capsys, mu_f):
    # a viscosity this small overflows the mode solves; the run stops before
    # writing containers that read_field would refuse, with no numpy warning
    cfg = f"mu_f = {mu_f}\nforcing_h = cos(t)*cos(x1)\nn_z = 8\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_cli(tmp_path, cfg, "solve-linear")
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = error_payload_of(lines[0])
    assert err["kind"] == "config"
    assert "solve-linear" in err["message"] and f"mu_f = {mu_f}" in err["message"]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("route_line,solve", [("route = lift\n", solve_by_lift),
                                               ("", solve_linear_full)],
                         ids=["lift", "default"])
def test_solve_linear_route_runs_the_library_solve(tmp_path, capsys,
                                                   route_line, solve):
    f = poly_field(GRID, 61, components=3)
    g = divergence(bubble_field(GRID, 62))
    h = poly_plate(GRID, 63)
    for name, field in zip("fgh", (f, g, h)):
        write_field(tmp_path / f"{name}.plf", field)
    cfg = ("n_z = 8\nforcing_f = file:f.plf\nforcing_g = file:g.plf\n"
           "forcing_h = file:h.plf\n" + route_line)
    code, out = run_cli(tmp_path, cfg, "solve-linear")
    assert code == 0
    sol = solve(f, g, h, grid=GRID)
    for name in ("u", "p", "eta"):
        write_field(tmp_path / "ref.plf", getattr(sol, name))
        assert ((out / f"{name}.plf").read_bytes()
                == (tmp_path / "ref.plf").read_bytes()), name
    # both routes refuse a datum with a layer mean on xi' = 0
    code, _ = run_cli(tmp_path, "forcing_g = 1\nn_z = 8\n" + route_line,
                      "solve-linear", out_name="bad")
    assert code == 2
    assert error_payload(capsys)["kind"] == "incompatible"


def test_forged_container_header_is_a_one_line_error(tmp_path, capsys):
    # header sizes far beyond the configured grid and the 64 payload bytes;
    # then a well-formed container that holds a NaN coefficient, and a plate
    # flagged real over coefficients that are not conjugate-symmetric
    header = np.array([129, 129, 192, 3, 1], dtype="<u4").tobytes()
    (tmp_path / "x.plf").write_bytes(b"PLFSPEC1" + header + b"\x00" * 64)
    bad = poly_field(GRID, seed=6, components=3)
    bad.coeffs[0, 4, 1, 2, 3] = np.nan
    write_field(tmp_path / "nan.plf", bad)
    noise = 1e-3 * np.random.default_rng(6).standard_normal((5, 5, 5))
    write_field(tmp_path / "asym.plf", PlateField(GRID, noise + 0j, True))
    for key, name, fragment in (("f", "x.plf", "header"),
                                ("f", "nan.plf", "non-finite"),
                                ("h", "asym.plf", "conjugate-symmetric")):
        code, out = run_cli(tmp_path, f"forcing_{key} = file:{name}\nn_z = 8\n",
                            "solve-linear")
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["kind"] == "incompatible" and fragment in err["message"]
        assert not (out / "manifest.json").exists()


def test_manifests_reproducible_across_threads(tmp_path):
    cfg = "forcing_h = 0.01*cos(t)*cos(x1)\nforcing_f = sin(x1)\nn_z = 10\n"
    _, out1 = run_cli(tmp_path, cfg, "solve-linear", ("--threads", "1"),
                      out_name="t1")
    _, out2 = run_cli(tmp_path, cfg, "solve-linear", ("--threads", "2"),
                      out_name="t2")
    doc1, doc2 = manifest_of(out1), manifest_of(out2)
    ex1, ex2 = doc1.pop("execution"), doc2.pop("execution")
    assert ex1["threads"] == 1 and ex2["threads"] == 2
    assert "threads" not in doc1["config"]
    assert doc1 == doc2
    assert (out1 / "u.plf").read_bytes() == (out2 / "u.plf").read_bytes()
    assert (out1 / "eta_samples.csv").read_text() \
        == (out2 / "eta_samples.csv").read_text()


# ---- BLAS thread pin ---------------------------------------------------------------


PIN_CFG = ("n_t = 5\nn_x = 5\nn_z = 24\n"
           "forcing_h = cos(t)*cos(x1) + sin(2*t)*cos(x1+x2)\n"
           "forcing_f = 0; 0; exp(x3)*cos(t)*sin(x2)\n")


def test_outputs_independent_of_openblas_threads(tmp_path):
    # two OpenBLAS threads change the last bits of the batched mode solves
    # unless the CLI pins one; this config shows it in every output file
    (tmp_path / "run.cfg").write_text(PIN_CFG)
    path = [str(Path(cli.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    outs = []
    for n in ("1", "2"):
        out = tmp_path / f"blas{n}"
        subprocess.run([sys.executable, "-m", "plateflow.cli", "solve-linear",
                        "--config", str(tmp_path / "run.cfg"), "--out", str(out)],
                       env=dict(os.environ, OPENBLAS_NUM_THREADS=n,
                                PYTHONPATH=os.pathsep.join(path)),
                       check=True, timeout=120)
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        if name != "manifest.json":
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    docs = [manifest_of(out) for out in outs]
    blas = [doc.pop("execution")["blas_threads"] for doc in docs]
    assert docs[0] == docs[1]
    assert blas in ([1, 1], [None, None])


def test_solve_linear_does_not_import_numpy_ma(tmp_path):
    # numpy's unique() imports numpy.ma on its first call, a start-up cost
    (tmp_path / "run.cfg").write_text(PIN_CFG)
    path = [str(Path(cli.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    script = ("import sys; from plateflow.cli import main; "
              "code = main(sys.argv[1:]); "
              "sys.exit(code or 3 * ('numpy.ma' in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", script, "solve-linear",
                           "--config", str(tmp_path / "run.cfg"),
                           "--out", str(tmp_path / "out")],
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                          timeout=120)
    assert proc.returncode == 0


def _fresh_python(script, *args, **env):
    # a new interpreter with this tree's plateflow importable; returns the
    # JSON document the script prints last
    path = [str(Path(cli.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path),
                                   **env),
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_package_root_loads_no_module():
    loaded = _fresh_python("import json, sys; import plateflow; "
                           "print(json.dumps(sorted(sys.modules)))")
    assert "numpy" not in loaded
    assert [name for name in loaded if name.startswith("plateflow")] == ["plateflow"]


def test_cli_process_loads_one_blas_thread_and_only_the_scan_path(tmp_path):
    # OPENBLAS_NUM_THREADS is read once, when numpy loads OpenBLAS: a fresh
    # process that imports the CLI first keeps one thread after main returns
    (tmp_path / "scan.cfg").write_text("k_max = 10\nxi_max = 3\n")
    script = ("import json, sys; from plateflow.cli import main, "
              "_openblas_thread_calls; code = main(sys.argv[1:]); "
              "calls = _openblas_thread_calls(); "
              "print(json.dumps({'code': code, 'modules': sorted(sys.modules), "
              "'threads': None if calls is None else calls[1]()}))")
    doc = _fresh_python(script, "multiplier-scan", "--config",
                        str(tmp_path / "scan.cfg"), "--out", str(tmp_path / "out"),
                        OPENBLAS_NUM_THREADS="2")
    assert doc["code"] == 0
    loaded = {name for name in doc["modules"] if name.startswith("plateflow.")}
    assert loaded == {f"plateflow.{m}" for m in
                      ("cli", "grid", "fields", "modes", "halfspace", "io")}
    if doc["threads"] is None:
        pytest.skip("no OpenBLAS thread control in this numpy")
    assert doc["threads"] == 1


def test_blas_pin_restores_the_callers_count(tmp_path):
    calls = cli._openblas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS thread control in this numpy")
    setter, getter = calls
    caller = getter()
    setter(2)
    try:
        code, out = run_cli(tmp_path, PIN_CFG, "solve-linear")
        assert code == 0
        assert getter() == 2
    finally:
        setter(caller)
    assert manifest_of(out)["execution"]["blas_threads"] == 1


def test_blas_pin_is_a_no_op_without_openblas(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_OPENBLAS_THREAD_CALLS",
                        (("no_such_set_threads", "no_such_get_threads"),))
    code, out = run_cli(tmp_path, PIN_CFG, "solve-linear")
    assert code == 0
    assert manifest_of(out)["execution"]["blas_threads"] is None


# ---- solve-nonlinear -------------------------------------------------------------


def test_solve_nonlinear_small_forcing(tmp_path):
    cfg = ("forcing_h = cos(t)*cos(x1)\n"
           "eps = 0.001\nn_z = 12\n")
    code, out = run_cli(tmp_path, cfg, "solve-nonlinear")
    assert code == 0
    doc = manifest_of(out)
    assert doc["converged"] is True
    assert doc["iterations"] <= 10
    assert doc["in_ball"] is True
    assert doc["ball_radius"] == pytest.approx(math.sqrt(0.001))
    assert all(r < 0.5 for r in doc["contraction_ratios"])
    assert max(doc["residuals"].values()) < 1e-9
    assert doc["smallness_gate"]["passed"] is True
    lines = (out / "picard_trace.csv").read_text().splitlines()
    assert lines[0] == "iteration,x_norm,step,ratio,plate_norm,sup_eta"
    assert len(lines) == 1 + doc["iterations"]


def test_solve_nonlinear_reports_the_error_bound(tmp_path, capsys):
    cfg = "forcing_h = cos(t)*cos(x1)\neps = 0.001\nn_z = 12\n"
    code, out = run_cli(tmp_path, cfg, "solve-nonlinear")
    assert code == 0
    bound = manifest_of(out)["picard_error_bound"]
    assert bound is None or (isinstance(bound, float) and math.isfinite(bound))
    code, _ = run_cli(tmp_path, cfg + "max_iter = 2\n", "solve-nonlinear",
                      out_name="capped")
    assert code == 3
    message = error_payload(capsys)["message"]
    assert message.startswith("no convergence within 2 iterations")
    assert "error bound " in message


@pytest.mark.parametrize("datum", ["sin(x1)*sin(3.14159*x3)", "file:g.plf"])
def test_solve_nonlinear_refuses_a_divergence_datum(tmp_path, capsys, datum):
    write_field(tmp_path / "g.plf", poly_field(GRID, seed=5, components=1))
    base = "forcing_h = cos(t)*cos(x1)\neps = 0.001\nn_z = 8\n"
    code, out = run_cli(tmp_path, base + f"forcing_g = {datum}\n",
                        "solve-nonlinear")
    assert code == 1
    err = error_payload(capsys)
    assert err["kind"] == "config" and "forcing_g" in err["message"]
    assert "\n" not in err["message"]
    assert not (out / "manifest.json").exists() and not (out / "u.plf").exists()


def test_solve_nonlinear_runs_a_zero_divergence_datum(tmp_path):
    base = "forcing_h = cos(t)*cos(x1)\neps = 0.001\nn_z = 8\n"
    plf = []
    for name, text in (("none", base), ("zero", base + "forcing_g = 0.0\n")):
        code, out = run_cli(tmp_path, text, "solve-nonlinear", out_name=name)
        assert code == 0
        plf.append((out / "u.plf").read_bytes())
    assert plf[0] == plf[1]


def test_solve_nonlinear_refuses_a_first_sweep_that_is_not_finite(tmp_path, capsys):
    # the mode solves of the first sweep overflow as solve-linear's do: the
    # run names mu_f, not the smallness gate's NaN, and warns of nothing
    cfg = "mu_f = 1e-310\nforcing_h = cos(t)*cos(x1)\nn_z = 8\neps = 0.001\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_cli(tmp_path, cfg, "solve-nonlinear")
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = error_payload_of(lines[0])
    assert err["kind"] == "config"
    assert "solve-nonlinear" in err["message"] and "mu_f = 1e-310" in err["message"]
    assert list(out.iterdir()) == []


def test_solve_nonlinear_huge_finite_data_still_diverge(tmp_path, capsys):
    # a first iterate of norm inf whose coefficients are finite is a gate
    # failure, not a mu_f refusal
    code, out = run_cli(tmp_path, "eps = 1e300\nforcing_h = cos(x1)\nn_z = 8\n",
                        "solve-nonlinear")
    assert code == 3
    err = error_payload(capsys)
    assert err["kind"] == "divergence" and "smallness gate" in err["message"]


def test_solve_nonlinear_divergence(tmp_path, capsys):
    cfg = ("forcing_h = 40*cos(t)*cos(x1)\n"
           "eps = 1.0\nmax_iter = 8\nn_z = 8\n")
    code, out = run_cli(tmp_path, cfg, "solve-nonlinear")
    assert code == 3
    err = error_payload(capsys)
    assert err["kind"] == "divergence"
    assert not (out / "manifest.json").exists()


# ---- scan and table --------------------------------------------------------------


def test_multiplier_scan_outputs(tmp_path):
    cfg = "k_max = 50\nxi_max = 10\n"
    code, out = run_cli(tmp_path, cfg, "multiplier-scan")
    assert code == 0
    doc = manifest_of(out)
    scan = doc["scan"]
    assert math.isfinite(scan["sup_weighted"]) and scan["sup_weighted"] > 0
    assert scan["decay_exponent_k"] < -1.5
    assert scan["decay_exponent_xi"] < -1.5
    assert doc["empirical_constants"]["sup_weighted_multiplier"] \
        == scan["sup_weighted"]
    lines = (out / "multiplier_rays.csv").read_text().splitlines()
    assert lines[0] == "ray,index,abs_m,abs_weighted"
    assert len(lines) > 20
    assert all(line.startswith(("k,", "xi,")) for line in lines[1:])


def test_multiplier_scan_uses_config_periods(tmp_path):
    # at 2*pi periods this window peaks at xi = (5, 1) instead
    code, out = run_cli(tmp_path, "k_max = 20\nxi_max = 5\nT = 3\nL = 5\n",
                        "multiplier-scan")
    assert code == 0
    scan = manifest_of(out)["scan"]
    assert scan["argmax"] == {"k": 20, "xi": [4, 4]}
    assert scan["sup_weighted"] == pytest.approx(1.5565332706378683, rel=1e-12)


def test_resonance_report_defaults(tmp_path):
    code, out = run_cli(tmp_path, "", "resonance-report")
    assert code == 0
    doc = manifest_of(out)
    assert doc["counts"]["resonant"] == 12
    assert len(doc["resonant_points"]) == 12
    assert {"k": 1, "xi": [1, 0]} in doc["resonant_points"]
    text = (out / "resonance.csv").read_text()
    row = [ln for ln in text.splitlines() if ln.startswith("1,1,0,")]
    assert len(row) == 1 and row[0].endswith(",inf,resonant")


# ---- lift-div and validate -------------------------------------------------------


def test_lift_div_run(tmp_path):
    cfg = "forcing_g = 0.01*sin(x1)\nn_z = 12\n"
    code, out = run_cli(tmp_path, cfg, "lift-div")
    assert code == 0
    doc = manifest_of(out)
    assert doc["residuals"]["divergence"] < 1e-10
    assert doc["residuals"]["faces"] < 1e-12
    for key in ("gradient_ratio_l0", "gradient_ratio_l1", "dual_ratio"):
        assert doc["empirical_constants"][key] > 0
    w = read_field(out / "w.plf")
    assert w.components == 3 and w.coeffs.any()


def test_lift_div_takes_the_dual_norm_once(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, negative_norm)
    code, _ = run_cli(tmp_path, "forcing_g = 0.01*sin(x1)\nn_z = 12\n", "lift-div")
    assert code == 0 and len(calls) == 1


def test_lift_div_incompatible(tmp_path, capsys):
    code, out = run_cli(tmp_path, "forcing_g = 1\n", "lift-div")
    assert code == 2
    assert error_payload(capsys)["kind"] == "incompatible"


def test_validate_suite(tmp_path):
    code, out = run_cli(tmp_path, "", "validate")
    assert code == 0
    suite = json.loads((out / "validation.json").read_text())
    assert suite["passed"] is True
    assert len(suite["checks"]) == 9
    assert all(c["passed"] for c in suite["checks"])
    names = {c["name"] for c in suite["checks"]}
    assert {"cross_validation_paths", "cross_validation_truth",
            "refinement_drop", "fd_check",
            "embedding_supnorm_case"} <= names
    lines = (out / "validation_summary.csv").read_text().splitlines()
    assert lines[0] == "check,passed,threshold"
    assert len(lines) == 10
    assert manifest_of(out)["validation"]["passed"] is True


# ---- seed plumbing ---------------------------------------------------------------


def test_seed_flag_recorded(tmp_path):
    code, out = run_cli(tmp_path, "", "resonance-report", ("--seed", "42"))
    assert code == 0
    assert manifest_of(out)["seed"] == 42
