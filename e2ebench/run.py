"""End-to-end benchmark for distcost.

    python3 e2ebench/run.py [--workload sweep|stabilize|horizons|all]
                            [--seed N] [--seconds S] [--trace 0|1]
                            [--report PATH]

Run from the repository root; the program is imported from ``src/``.

``--trace 0``: the real CLI (``python -m distcost <cmd> --config ...``)
runs in a fresh process, again and again for ``--seconds``. Reported:
``run_s`` (median wall of one run), ``setup_s`` (median wall of
``python -m distcost model`` on the workload's model: interpreter start,
import and model load) and ``peak_rss_mb`` (median peak RSS from
``os.wait4``). Both times are scaled to a reference machine speed by a
calibration loop timed around every run (see ``Calibrated``); the
uncalibrated medians are printed and kept in the report.
``--trace 1``: the same command runs in this process,
alternately traced and untraced, for ``--seconds``; reported are the
per-layer counts and times of ``tracer.LAYERS`` plus the tracing overhead.
Without ``--trace`` both are run; ``--workload all`` (the default) runs
every workload.

Every run's outputs are checked (see ``workloads.py``). A run fails on a
non-zero exit or a failed check; ``fail_frac`` is failed over attempted.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the full
report (provenance, input sizes, every sample), which ``--report``
also appends to a file. The exit code is 1 if any check failed, 2 if the
program is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import runpy
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import numpy as np

from tracer import ROOT as ROOT_LAYER, Tracer
from workloads import REFERENCE_SEEDS, WORKLOADS, compare, input_digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"

# setup_s is the median of this many fresh `model` runs per invocation
SETUP_RUNS = 7
# calibration loop length, and its wall time on the reference machine: the
# median measured on a shared 2-CPU x86_64 host (Python 3.11, numpy 2.4),
# where it ranged from 0.05 to 0.10 s
CAL_ITERS = 35000
CAL_REF_S = 0.075
# warn when the wrapped layers (root excluded) cover less of the traced wall
COVERAGE_WARN = 0.9


def quartiles(values):
    if len(values) < 2:
        return [median(values)] * 2
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def _env(pycache: Path) -> dict:
    env = dict(os.environ)
    # runs import cached bytecode, as an installed package would, whatever
    # the caller's environment says; the cache lives in the benchmark's
    # temporary directory, so nothing is written outside the checkout
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def cli_process(args, log: Path, pycache: Path):
    """Run ``python -m distcost *args``; (exit code, wall s, peak RSS MB)."""
    argv = [sys.executable, "-m", "distcost", *args]
    env = _env(pycache)
    with open(log, "w") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def cli_inprocess(args) -> int:
    """Run the CLI's ``__main__`` in this process; returns the exit code."""
    saved = sys.argv
    sys.argv = ["distcost", *args]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_module("distcost", run_name="__main__")
        return 0
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.argv = saved


class Checker:
    """Output checks for one invocation: the workload's own invariants,
    the recorded reference, and byte-identical CSVs across its runs."""

    def __init__(self, wl, inputs: dict, input_seed: int):
        self.wl = wl
        self.csv_hashes = None
        refs = json.loads(REFERENCE.read_text())
        self.ref = refs["workloads"].get(wl.name, {}).get(str(input_seed))
        if self.ref is not None and self.ref["inputs"] != input_digest(inputs):
            self.ref = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, code: int, outdir: Path | None) -> bool:
        self.attempted += 1
        problems = [f"exit code {code}"] if code != 0 else []
        if outdir is not None and not problems:
            try:
                found, digest = self.wl.check(outdir)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                found, digest = [f"unreadable output: {exc!r}"], None
            problems += found
            if self.ref is None:
                problems.append("no reference output recorded for these inputs")
            elif digest is not None:
                problems += compare(digest, self.ref["digest"])[:5]
            hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted(outdir.glob("*.csv"))}
            if self.csv_hashes is None:
                self.csv_hashes = hashes
            elif hashes != self.csv_hashes:
                problems.append("CSV outputs differ from the first run of this invocation")
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])
        return not problems


def calibration_s() -> float:
    """Wall time of a fixed loop of small numpy ops and Python arithmetic,
    the same mix of work as the program's hot loops."""
    t0 = time.perf_counter()
    M = np.full((12, 12), 0.01)
    v = np.ones(12)
    acc = 0
    for i in range(CAL_ITERS):
        v = M @ v + 1.0
        acc += i ^ (i >> 3)
    return time.perf_counter() - t0


class Calibrated:
    """Times a run and scales it to the reference machine speed.

    The speed of a shared host drifts by up to 2x over minutes, which put
    the quartile spread of raw run medians across invocations at 0.17 to
    0.36; scaled, it was about 0.06. The calibration loop runs before and
    after every timed run and the wall time is scaled by CAL_REF_S over
    their mean. Raw wall times are kept in the report."""

    def __init__(self):
        self.last = calibration_s()
        self.cal = []

    def run(self, fn):
        before = self.last
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        self.last = calibration_s()
        self.cal.append(0.5 * (before + self.last))
        return result, wall, wall * CAL_REF_S / self.cal[-1]


def run_untraced(wl, inputs, checker, seconds, work: Path) -> dict:
    pycache = work.parent / "pycache"
    model = inputs["model"]
    n = inputs["sizes"]["n"]
    args = [wl.command, "--config", inputs["config"]]

    def setup_run(k):
        log = work / f"setup{k}.log"
        code, _, _ = cli_process(["model", "--model", model], log, pycache)
        if code == 0:
            try:
                ok = json.loads(log.read_text())["n"] == n
            except (ValueError, KeyError):
                ok = False
            if not ok:
                code = -1
        return checker.record(code, None)

    def workload_run(k):
        outdir = work / f"out{k}"
        code, _, peak = cli_process([*args, "--out", str(outdir)],
                                    work / f"run{k}.log", pycache)
        ok = checker.record(code, outdir)
        shutil.rmtree(outdir, ignore_errors=True)
        return ok, peak

    # fill the bytecode and OS file caches; the first run of a command
    # compiles what `model` did not import
    setup_run("warm")
    workload_run("warm")
    clock = Calibrated()
    setup = [clock.run(lambda: setup_run(k)) for k in range(SETUP_RUNS)]
    runs = []
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        (ok, peak), wall, scaled = clock.run(lambda: workload_run(k))
        runs.append((ok, wall, scaled, peak))
        k += 1
        if time.perf_counter() >= deadline:
            break

    setup = _passed(setup)
    runs = _passed(runs)
    samples = {"run_s": [r[2] for r in runs], "setup_s": [r[2] for r in setup],
               "peak_rss_mb": [r[3] for r in runs],
               "run_wall_s": [r[1] for r in runs], "setup_wall_s": [r[1] for r in setup],
               "calibration_s": clock.cal}
    metrics = {"run_s": (median(samples["run_s"]), "s"),
               "setup_s": (median(samples["setup_s"]), "s"),
               "peak_rss_mb": (median(samples["peak_rss_mb"]), "MB")}
    raw = {"run_wall_s": median(samples["run_wall_s"]),
           "setup_wall_s": median(samples["setup_wall_s"]),
           "calibration_s": median(clock.cal)}
    return {"metrics": metrics, "samples": samples, "raw": raw}


def _passed(runs):
    """Runs whose checks passed; all runs if none did (the result is then
    marked incorrect, but still reports what was measured)."""
    return [r for r in runs if r[0]] or runs


def _unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith(".draws"):
        return "count"
    if name == "cli.out_bytes":
        return "bytes"
    if name == "trace.coverage":
        return "ratio"
    return "s"


def run_traced(wl, inputs, checker, seconds, work: Path) -> dict:
    args = [wl.command, "--config", inputs["config"]]

    def one(k, tracer):
        outdir = work / f"trace{k}"
        t0 = time.perf_counter()
        if tracer is None:
            code = cli_inprocess([*args, "--out", str(outdir)])
        else:
            with tracer.installed():
                code = cli_inprocess([*args, "--out", str(outdir)])
        wall = time.perf_counter() - t0
        out_bytes = sum(p.stat().st_size for p in outdir.glob("*") if p.is_file())
        ok = checker.record(code, outdir)
        shutil.rmtree(outdir, ignore_errors=True)
        return ok, wall, out_bytes

    one("warm", None)
    traced, untraced = [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        tracer = Tracer()
        ok, wall, out_bytes = one(k, tracer)
        values = tracer.metrics(wall)
        values["cli.out_bytes"] = out_bytes
        traced.append((ok, values))
        untraced.append(one(f"{k}u", None)[:2])
        k += 1
        if time.perf_counter() >= deadline:
            break

    traced = [values for _, values in _passed(traced)]
    untraced = [wall for _, wall in _passed(untraced)]
    metrics = {name: (median([t[name] for t in traced]), _unit(name)) for name in traced[0]}
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - median(untraced), "s")
    warnings = []
    coverage = metrics["trace.coverage"][0]
    if coverage < COVERAGE_WARN:
        warnings.append(f"{wl.name}: wrapped layers cover {coverage:.1%} of the traced "
                        f"wall (root {ROOT_LAYER} self time and unattributed time "
                        f"are the rest)")
    samples = {"trace.wall_s": [t["trace.wall_s"] for t in traced],
               "untraced_wall_s": untraced}
    return {"metrics": metrics, "samples": samples, "warnings": warnings}


def kernel_build() -> str:
    from distcost import _kernels
    return "numba" if getattr(_kernels, "USING_NUMBA", False) is True else "numpy"


def git_revision() -> str:
    # read .git directly: the checkout may not be a repository, and git
    # itself would search parent directories
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def provenance() -> dict:
    return {"kernel_build": kernel_build(), "numpy": np.__version__,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "git_revision": git_revision()}


def run_one(name: str, seed: int, seconds: int, trace: int, tmp_root: Path) -> dict:
    wl = WORKLOADS[name]
    input_seed = seed % REFERENCE_SEEDS
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root))
    t0 = time.perf_counter()
    inputs = wl.make_inputs(input_seed, work)
    checker = Checker(wl, inputs, input_seed)
    runner = run_traced if trace else run_untraced
    result = runner(wl, inputs, checker, seconds, work)
    return {"workload": name, "trace": trace, "seed": seed, "input_seed": input_seed,
            "command": wl.command, "sizes": inputs["sizes"],
            "attempted": checker.attempted, "failed": checker.failed,
            "fail_frac": checker.failed / checker.attempted,
            "problems": checker.problems[:20],
            "elapsed_s": time.perf_counter() - t0, **result}


def print_human(res: dict) -> None:
    name = res["workload"]
    for metric, (value, unit) in res["metrics"].items():
        extra = ""
        if metric in res["samples"]:
            s = res["samples"][metric]
            q1, q3 = quartiles(s)
            extra = f"  median of {len(s)} (q1 {q1:.6g}, q3 {q3:.6g})"
        print(f"{name:<10} {metric:<46} {value:>14.6g} {unit}{extra}")
    for metric, value in res.get("raw", {}).items():
        print(f"{name:<10} {metric:<46} {value:>14.6g} s  (uncalibrated)")
    print(f"{name:<10} {'fail_frac':<46} {res['fail_frac']:>14.6g} ratio"
          f"  ({res['failed']} of {res['attempted']} runs failed)")
    for w in res.get("warnings", []):
        print(f"warning: {w}", file=sys.stderr)
    for p in res["problems"]:
        print(f"check failed: {name}: {p}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--report", help="append the full report as one JSON line")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: stop the running child and remove the temporary directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "distcost" / "__init__.py").is_file():
        print(f"error: distcost sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import distcost
    if Path(distcost.__file__).resolve().parent != (SRC / "distcost").resolve():
        print(f"error: imported distcost from {distcost.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    phases = [args.trace] if args.trace is not None else [0, 1]
    tmp_root = Path(tempfile.mkdtemp(prefix=".e2ebench-", dir=ROOT))
    try:
        results = [run_one(n, args.seed, args.seconds, t, tmp_root)
                   for n in names for t in phases]
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    for res in results:
        print_human(res)
    report = {"provenance": provenance(), "argv": sys.argv[1:], "results": [
        {**r, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in r["metrics"].items()}}
        for r in results]}
    line = json.dumps({"report": report}, sort_keys=True)
    print(line)
    if args.report:
        with open(args.report, "a") as fh:
            fh.write(line + "\n")

    single = len(results) == 1
    metrics = {}
    for r in results:
        for k, (v, u) in r["metrics"].items():
            metrics[k if single else f"{r['workload']}.{k}"] = {"value": v, "unit": u}
    correct = all(r["failed"] == 0 for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
