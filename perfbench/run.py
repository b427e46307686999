"""plateflow benchmark: one workload per call, each invocation a fresh CLI process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload linear-fullband --seed 0 --seconds 30 --trace 0

The benchmark writes the workload's config and input containers from
--seed, runs one small warm-up invocation, then runs the ``plateflow`` CLI
in a child process, one invocation after another (a closed loop with one
client, default ``--threads 1``), until --seconds have passed.  Each
invocation's outputs are checked; a failed check or a nonzero exit code
counts as a failed operation.

End-to-end metrics (--trace 0), medians over the invocations of the run:

    wall_s       wall time of one invocation, timed by the parent process
    setup_s      wall_s minus the manifest's execution.seconds.run: interpreter
                 start, imports, config load and manifest write
    cpu_s        the child's user + system time (os.wait4)
    peak_rss_mb  the child's peak resident set size (os.wait4)

With --trace 1 the run makes one traced invocation (spans, see tracer.py),
one memory-traced invocation, and untraced invocations for the rest of the
time, and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every invocation
was correct, 1 when one failed, 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
INVOCATION_TIMEOUT_S = 150.0

UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Invocation:
    """Measurements and verdict of one CLI child process."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    run_s: float | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems

    @property
    def setup_s(self) -> float:
        return self.wall_s - self.run_s


def child_env() -> dict:
    """The caller's environment with src/ importable; BLAS settings untouched."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv: list[str], cwd: Path, log: Path) -> tuple[int, float, float, float]:
    """Run argv to completion; (exit code, wall s, cpu s, peak RSS MB).

    os.wait4 gives the rusage of this child alone, unlike RUSAGE_CHILDREN,
    which keeps a running maximum over every child of the process.
    """
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return (code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def cli_args(prepared, out_dir: Path) -> list[str]:
    return [prepared.workload.command, "--config", str(prepared.config),
            "--out", str(out_dir), "--threads", "1"]


def invoke(prepared, work: Path, prefix: list[str]) -> Invocation:
    """One CLI invocation with the given interpreter prefix, then its check."""
    from workloads import check

    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    code, wall, cpu, rss = spawn(prefix + cli_args(prepared, out_dir), work,
                                 work / "stderr.log")
    inv = Invocation(wall, cpu, rss, code)
    if code != 0:
        tail = (work / "stderr.log").read_text(errors="replace").strip()
        inv.problems.append(f"exit code {code}: {tail[-300:]}")
        return inv
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
        inv.run_s = manifest["execution"]["seconds"]["run"]
        inv.problems.extend(check(prepared, out_dir, manifest))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        inv.problems.append(f"unreadable outputs: {exc!r}")
    return inv


def warm_up(prepared, work: Path) -> None:
    """One tiny invocation of the same subcommand, not measured."""
    from workloads import WARMUP_SETTINGS, write_config

    command = prepared.workload.command
    config = write_config(work / "warmup.cfg", WARMUP_SETTINGS[command])
    spawn([sys.executable, "-m", "plateflow.cli", command, "--config",
           str(config), "--out", str(work / "warmup"), "--threads", "1"],
          work, work / "warmup.log")


def measure_until(prepared, work: Path, deadline: float) -> list[Invocation]:
    """Untraced invocations back to back until the deadline; at least one."""
    runs = []
    while True:
        runs.append(invoke(prepared, work, [sys.executable, "-m", "plateflow.cli"]))
        if time.perf_counter() >= deadline:
            return runs


def end_to_end(runs: list[Invocation]) -> dict[str, float]:
    good = [r for r in runs if r.ok]
    if not good:
        return {}
    return {name: statistics.median(getattr(r, name) for r in good)
            for name in UNITS}


def traced_metrics(prepared, work: Path, deadline: float, run_id: str):
    from tracer import layer_metrics

    script = str(BENCH_DIR / "tracer.py")
    docs = {}
    runs = []
    for mode in ("time", "memory"):
        spans = WORK_ROOT / f"{run_id}-spans-{mode}.json"
        prefix = [sys.executable, script, "--spans", str(spans),
                  "--run-id", f"{run_id}-{mode}"]
        if mode == "memory":
            prefix.append("--memory")
        runs.append(invoke(prepared, work, prefix + ["--"]))
        if runs[-1].ok:
            docs[mode] = json.loads(spans.read_text())
    traced_wall = runs[0].wall_s
    untraced = measure_until(prepared, work, deadline)
    runs += untraced
    if len(docs) < 2 or not any(r.ok for r in untraced):
        return runs, {}
    median_wall = statistics.median(r.wall_s for r in untraced if r.ok)
    return runs, layer_metrics(docs["time"], docs["memory"], traced_wall,
                               median_wall)


# ---- machine description -----------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, int]:
    # glibc sysconf codes _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE,
    # _SC_LEVEL3_CACHE_SIZE; Python's name table lacks them
    sizes = {}
    for name, code in (("L1d", 188), ("L2", 191), ("L3", 194)):
        try:
            sizes[name] = os.sysconf(code)
        except (OSError, ValueError):
            sizes[name] = -1
    return sizes


def _blas_threads() -> int | None:
    """Thread count OpenBLAS runs with here, as the child processes inherit it."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cpu": _cpu_model(),
        "caches_bytes": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


# ---- report ------------------------------------------------------------------------


def report_lines(workload, seed, trace, info, sizes, runs, metrics) -> list[str]:
    lines = [
        f"plateflow benchmark: workload={workload.name} seed={seed} trace={trace}",
        "machine: " + json.dumps(info, sort_keys=True),
        "working set (computed): " + json.dumps(sizes, sort_keys=True),
    ]
    good = [r for r in runs if r.ok]
    if not trace:
        for name, unit in UNITS.items():
            values = sorted(getattr(r, name) for r in good)
            if values:
                lines.append(
                    f"{name:<12} median {metrics[name]:.4f} {unit}  "
                    f"min {values[0]:.4f}  max {values[-1]:.4f}  n={len(values)}")
    else:
        lines += [f"{name:<28} {value:.6g}" for name, value in metrics.items()]
    lines.append(f"failed {len(runs) - len(good)} of {len(runs)} invocations")
    lines += [f"  invocation {i}: {'; '.join(r.problems)}"
              for i, r in enumerate(runs) if r.problems]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "plateflow" / "__init__.py").is_file():
        print(f"error: plateflow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    return run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)


def run(workload, seed: int, seconds: float, trace: int) -> int:
    """Prepare, warm up, measure and print; returns the exit code."""
    from tracer import LAYER_METRICS
    from workloads import prepare, working_set

    run_id = f"{workload.name}-s{seed}-t{trace}-p{os.getpid()}"
    work = WORK_ROOT / run_id
    try:
        prepared = prepare(workload, seed, work)
        warm_up(prepared, work)
        start = time.perf_counter()
        if trace:
            runs, metrics = traced_metrics(prepared, work, start + seconds, run_id)
        else:
            runs = measure_until(prepared, work, start + seconds)
            metrics = end_to_end(runs)
        lines = report_lines(workload, seed, trace, machine(),
                             working_set(workload), runs, metrics)
        (work.parent / f"{run_id}.txt").write_text("\n".join(lines) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not r.ok for r in runs)
    units = UNITS if not trace else {n: u for n, (u, _) in LAYER_METRICS.items()}
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
