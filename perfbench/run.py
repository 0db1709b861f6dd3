#!/usr/bin/env python3
"""ambc benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload point --seed 0 --trace 0

Run from the root of an ambc checkout; the package is imported from
``src/``. ``--trace 0`` times untraced passes of the workload and prints the
end-to-end metrics; ``--trace 1`` times untraced passes, then alternates
untraced and traced serial passes and prints the per-layer metrics. Either
way the outputs are checked, human-readable lines come first, and the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md for the workloads
and metrics.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, so that two pool workers never
# oversubscribe two cores. Set before numpy is imported, here and in every
# child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SNR_DB = 6.0                # the paper's default point: L=32, M=100, P=4,
                            # alpha^2=0.2 are the SimParams defaults
# The EM receivers (slowest part: CAMF) and the EM-free baselines (fastest
# part: a GENIE scheme), so that an EM-only change moves one and not the
# other.
POINT = (("CAMF", 5), ("CUIF", 10), ("GENIE_CAMF", 50), ("GENIE_CUIF", 50),
         ("ENERGY", 50))
REPRODUCE = ("snr", "niter", "alpha", "length", "paths")
REPRODUCE_SLOTS = 10
REPRODUCE_WORKERS = 2

MIN_PASSES = 3
SETUP_RUNS = 5
# GENIE_CUIF check point: -8 dB puts the closed-form BER near 0.04, so a
# detector that makes no errors fails the interval instead of passing it.
PROBE_SNR_DB = -8.0
PROBE_SLOTS = 1000
WILSON_Z = 4.0

SETUP_CODE = """\
import json, time
t0 = time.perf_counter()
import ambc
t1 = time.perf_counter()
ambc.sweep(ambc.SimParams(slots=1), "snr_db", [6.0])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1}))
"""

HARNESS_LAYERS = ("montecarlo.sweep", "montecarlo.run_slot", "cli.execute")
# Layers that call other traced layers; only these report self time, which
# for every other layer equals its busy time.
COMPOSITE_LAYERS = HARNESS_LAYERS + ("receiver.em_run", "receiver.em_e_step",
                                     "analysis.ber_unknown_symbols")


def _em_result(tracer, args, result):
    tracer.count("em_iterations", getattr(result, "iterations_used", 0))
    tracer.count("em_converged", int(bool(getattr(result, "converged", 0))))


def _grid_bytes(tracer, args, result):
    """Bytes the kernel must read and write: array arguments + result."""
    tracer.count("detect_grid_bytes", sum(
        a.nbytes for a in (*args, result) if hasattr(a, "nbytes")))


# Every traced layer, named <defining module>.<function>, with its hook.
LAYERS = {
    "montecarlo.sweep": None,
    "montecarlo.run_slot": None,
    "montecarlo.slot_rng": None,
    "channel.sample_realization": None,
    "ofdm.gen_frame": None,
    "bd.sample_bits": None,
    "bd.backscatter_frame": None,
    "receiver.receive": None,
    "receiver.em_run": _em_result,
    "receiver.em_e_step": None,
    "ofdm.detect_grid": _grid_bytes,
    "receiver.em_m_step_unconstrained": None,
    "receiver.project_common_phase": None,
    "receiver.genie_detect": None,
    "receiver.threshold_sweep": None,
    "analysis.ber_cuif_closed": None,
    "analysis.ber_unknown_symbols": None,
    "cli.execute": None,
    "cli.write_results": None,
}


class Checks:
    """Operations and checks, counted toward attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


# -- workloads ---------------------------------------------------------------

class PointWorkload:
    """Single-point sweeps through montecarlo.sweep, one worker."""

    workers = 1

    def __init__(self, ambc, parts, seed, checks):
        self.ambc, self.parts, self.seed = ambc, parts, seed
        self.checks = checks
        self.slots = dict(parts)

    def run_pass(self, tracer=None, serial=False):
        """Returns ({part: {piece: seconds}}, [(scheme, errors, bits)])."""
        times, points = {}, []
        for scheme, slots in self.parts:
            params = self.ambc.SimParams(scheme=self.ambc.Scheme[scheme],
                                         slots=slots, seed=self.seed)
            if tracer is not None:
                tracer.context = scheme
            start = perf_counter()
            curve = self.ambc.montecarlo.sweep(params, "snr_db", [SNR_DB])
            times[scheme] = _pieces(perf_counter() - start, [curve])
            points += [(scheme, p.bit_errors, p.total_bits)
                       for p in curve.points]
        return times, points

    def check(self, points):
        for scheme, errors, bits in points:
            self.checks(f"{scheme} counts", 0 <= errors <= bits and bits > 0)

    def extra_checks(self):
        """GENIE_CUIF BER inside a Wilson interval around the closed form.

        Errors cluster within a slot (one channel per slot), so the
        interval uses the slot count as its sample size: the per-slot
        error fraction has variance at most p(1-p), which keeps the
        interval conservative.
        """
        ambc = self.ambc
        params = ambc.SimParams(scheme=ambc.Scheme.GENIE_CUIF,
                                slots=PROBE_SLOTS, seed=self.seed)
        point = ambc.montecarlo.sweep(params, "snr_db",
                                      [PROBE_SNR_DB]).points[0]
        budget = ambc.LinkBudget.from_sim(params.with_(snr_db=PROBE_SNR_DB))
        expected = ambc.analysis.ber_cuif_closed(budget)
        lo, hi = _wilson(point.bit_errors / point.total_bits, PROBE_SLOTS,
                         WILSON_Z)
        self.checks(f"GENIE_CUIF closed form at {PROBE_SNR_DB} dB",
                    lo <= expected <= hi)


class ReproduceWorkload:
    """``ambc reproduce --only <name>`` per experiment through cli.main."""

    workers = REPRODUCE_WORKERS

    def __init__(self, ambc, seed, checks, out_dir: Path):
        self.ambc, self.seed, self.checks = ambc, seed, checks
        self.out_dir = out_dir
        self.slots = {}

    def run_pass(self, tracer=None, serial=False):
        """Returns ({experiment: {piece: seconds}},
        {experiment: [CSV bytes]})."""
        workers = 1 if serial else self.workers
        times, files = {}, {}
        cli = self.ambc.cli
        execute, curves = cli.execute, []

        def keep_curves(spec):
            results = execute(spec)
            curves.extend(results)
            return results

        for name in REPRODUCE:
            out = self.out_dir / f"w{workers}" / name
            argv = ["reproduce", "--only", name, "--workers", str(workers),
                    "--slots", str(REPRODUCE_SLOTS), "--seed", str(self.seed),
                    "--out", str(out)]
            if tracer is not None:
                tracer.context = name
            curves.clear()
            cli.execute = keep_curves
            start = perf_counter()
            try:
                with redirect_stdout(io.StringIO()):
                    rc = cli.main(argv)
            finally:
                elapsed = perf_counter() - start
                cli.execute = execute
            times[name] = _pieces(elapsed, [c for _, c in curves])
            if rc != 0:
                raise RuntimeError(f"ambc {' '.join(argv)} exited with {rc}")
            files[name] = [p.read_bytes() for p in sorted(out.glob("*.csv"))]
        return times, files

    def check(self, files):
        """Check every BER point; counts each experiment's slots."""
        for name, data in files.items():
            self.slots[name] = 0
            for row in csv.DictReader(
                    ln for d in data for ln in d.decode().splitlines()
                    if not ln.startswith("#")):
                errors, bits = int(row["bit_errors"]), int(row["total_bits"])
                if row["scheme"].startswith("ANALYTIC"):
                    ok = bits == 0 and 0.0 <= float(row["ber"]) <= 0.5
                else:
                    ok = 0 <= errors <= bits and bits > 0
                    self.slots[name] += int(row["slots"])
                self.checks(f"{name} {row['scheme']} {row['value']} counts",
                            ok)

    def extra_checks(self):
        pass


# -- measurement -------------------------------------------------------------

def _pieces(elapsed, curves):
    """A part's time split into pieces: each BER point as sweep times it
    (``BerPoint.runtime_ms``, pool start-up included; 0 for analytic
    overlays), keyed by curve and point index, and the rest of the part
    (overlays, CSV writing, harness)."""
    pieces = {(c, i): getattr(point, "runtime_ms", 0.0) / 1e3
              for c, curve in enumerate(curves)
              for i, point in enumerate(curve.points)}
    pieces["rest"] = max(elapsed - sum(pieces.values()), 0.0)
    return pieces


def best_parts(passes):
    """{part: seconds}, each the sum over the part's pieces of the piece's
    fastest time in any pass."""
    parts = passes[0][1]
    return {part: sum(min(p[part][piece] for _, p, _ in passes)
                      for piece in parts[part])
            for part in parts}


def best_wall(passes):
    """The fastest pass the pieces allow: the sum of every best piece."""
    return sum(best_parts(passes).values())


def run_once(workload, tracer=None, serial=False):
    """One pass; returns (pass wall, {part: {piece: seconds}}, outputs)."""
    start = perf_counter()
    times, outputs = workload.run_pass(tracer=tracer, serial=serial)
    return perf_counter() - start, times, outputs


def timed_passes(workload, seconds, setup):
    """Untraced passes until ``seconds`` elapse (at least MIN_PASSES), with
    setup samples between them when due."""
    passes = []
    deadline = perf_counter() + seconds
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        passes.append(run_once(workload))
        setup.sample()
    return passes


def traced_passes(workload, seconds, tracer):
    """Pairs of serial passes, one untraced and one traced, so that both
    see the same machine conditions; at least one pair, and no pair that
    would end after ``seconds`` judging by the last one."""
    serial, traced = [], []
    deadline = perf_counter() + seconds
    pair_s = 0.0
    while not traced or perf_counter() + pair_s < deadline:
        start = perf_counter()
        serial.append(run_once(workload, serial=True))
        with tracer.installed("ambc", LAYERS):
            traced.append(run_once(workload, tracer=tracer, serial=True))
        pair_s = perf_counter() - start
    return serial, traced


class SetupSampler:
    """Fresh interpreters importing ambc and running one warm-up slot.

    Samples are spread over the timed passes, so that they see the same
    machine conditions as the passes. The first run compiles bytecode and
    is discarded.
    """

    def __init__(self, runs, seconds):
        self.runs = runs
        self.gap = seconds / (runs + 1)
        self.walls, self.parts = [], []
        self.due = perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), self.env.get("PYTHONPATH")) if p)
        self._run()

    def _run(self):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE],
                              env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        return perf_counter() - start, json.loads(proc.stdout.splitlines()[-1])

    def sample(self, force=False):
        """Take one sample if one is due (or ``force``) and runs remain."""
        if len(self.walls) >= self.runs or not (
                force or perf_counter() >= self.due):
            return
        wall, parts = self._run()
        self.walls.append(wall)
        self.parts.append(parts)
        self.due = perf_counter() + self.gap

    def medians(self):
        """Median wall time, import time and warm-up slot time."""
        while len(self.walls) < self.runs:
            self.sample(force=True)
        return (statistics.median(self.walls),
                statistics.median(p["import_s"] for p in self.parts),
                statistics.median(p["warmup_s"] for p in self.parts))


def part_ms_per_slot(passes, slots):
    """{part: [ms per slot of each pass]}."""
    return {part: [sum(t[part].values()) / n * 1e3 for _, t, _ in passes]
            for part, n in slots.items()}


def end_to_end_metrics(passes, slots, setup_s, peak_mb):
    """Timings are sums of best pieces: contention from other tenants only
    adds time, and it comes and goes within a pass, so the fastest time
    of each short piece varies far less between runs than a median does,
    or than the fastest time of a whole pass."""
    best = best_parts(passes)
    per_slot = {part: best[part] / n * 1e3 for part, n in slots.items()}
    return {
        "wall_s": (sum(best.values()), "s"),
        "ms_per_slot.slowest_part": (max(per_slot.values()), "ms"),
        "ms_per_slot.fastest_part": (min(per_slot.values()), "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def em_ratios(tracer, context=None):
    """EM effort per slot over one context or all of them."""
    em_calls = tracer.layer("receiver.em_run", context).calls
    e_calls = tracer.layer("receiver.em_e_step", context).calls
    iterations = tracer.counter("em_iterations", context)
    return {
        "receiver.em_e_step.calls_per_slot": (_ratio(e_calls, em_calls),
                                              "count"),
        "receiver.em_run.iterations_mean": (_ratio(iterations, em_calls),
                                            "count"),
        "receiver.em_run.converged_frac":
            (_ratio(tracer.counter("em_converged", context), em_calls),
             "ratio"),
        "receiver.restart_yield": (_ratio(iterations, e_calls), "ratio"),
    }


def per_layer_metrics(tracer, traced, timed_wall, serial_wall, workers,
                      import_s, warmup_s):
    n = len(traced)
    traced_wall = best_wall(traced)
    total_wall = sum(w for w, _, _ in traced)
    metrics = {}
    for layer in LAYERS:
        stat = tracer.layer(layer)
        metrics[f"{layer}.busy_s"] = (stat.busy_s / n, "s")
        if layer in COMPOSITE_LAYERS:
            metrics[f"{layer}.self_s"] = (stat.self_s / n, "s")
        metrics[f"{layer}.calls"] = (stat.calls / n, "count")

    attributed = sum(tracer.layer(layer).self_s for layer in LAYERS
                     if layer not in HARNESS_LAYERS)
    run_slot_share = _ratio(tracer.layer("montecarlo.run_slot").busy_s,
                           total_wall)
    metrics.update({
        "ofdm.detect_grid.bytes_computed":
            (tracer.counter("detect_grid_bytes") / n, "bytes"),
        **em_ratios(tracer),
        "montecarlo.parallel_efficiency":
            (run_slot_share * serial_wall / (workers * timed_wall), "ratio"),
        "trace.overhead_ratio": (traced_wall / serial_wall, "ratio"),
        "trace.unattributed_frac":
            (1.0 - _ratio(tracer.covered_s, total_wall), "ratio"),
        "trace.attributed_frac": (_ratio(attributed, total_wall), "ratio"),
        "trace.layers_absent": (len(tracer.absent), "count"),
        "setup.import_s": (import_s, "s"),
        "setup.warmup_s": (warmup_s, "s"),
    })
    return metrics


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MB."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


# -- reporting ---------------------------------------------------------------

def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _wilson(p_hat, n, z):
    centre = (p_hat + z * z / (2 * n)) / (1 + z * z / n)
    half = (z * math.sqrt(p_hat * (1 - p_hat) / n + z * z / (4 * n * n))
            / (1 + z * z / n))
    return centre - half, centre + half


def _summary(values) -> str:
    """Best, median, quartiles and the highest percentile with at least ten
    samples above it (shown from twenty samples, where it reaches p50)."""
    values = sorted(values)
    n = len(values)
    text = f"min {values[0]:.4g} median {statistics.median(values):.4g}"
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f" q1 {q1:.4g} q3 {q3:.4g}"
    if n >= 20:
        text += f" p{100 * (n - 10) // n} {values[n - 11]:.4g}"
    return text + f" (n={n})"


def print_context(ambc):
    import numpy
    import scipy
    print(f"context host={platform.node()} nproc={os.cpu_count()} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"scipy={scipy.__version__} "
          f"ambc={getattr(ambc, '__version__', '?')}")


def print_parts(label, passes, slots):
    print(f"{label} wall_s {_summary([w for w, _, _ in passes])}")
    for part, values in part_ms_per_slot(passes, slots).items():
        walls = [sum(t[part].values()) for _, t, _ in passes]
        print(f"{label} ms_per_slot.{part} {_summary(values)}; "
              f"wall_s.{part} {_summary(walls)}")


def print_trace(tracer, n_passes):
    for context in dict.fromkeys(ctx for ctx, _ in tracer.stats):
        wall = sum(s.self_s for (ctx, _), s in tracer.stats.items()
                   if ctx == context)
        print(f"trace [{context}] per pass: layer calls busy_s self_s "
              f"(share of traced time)")
        rows = [(layer, tracer.layer(layer, context)) for layer in LAYERS]
        for layer, stat in sorted(rows, key=lambda r: -r[1].busy_s):
            if stat.calls:
                print(f"  {layer:34s} {stat.calls / n_passes:9.0f} "
                      f"{stat.busy_s / n_passes:9.4f} "
                      f"{stat.self_s / n_passes:9.4f} "
                      f"({stat.busy_s / wall:6.1%} busy, "
                      f"{stat.self_s / wall:6.1%} self)")
        if tracer.layer("receiver.em_run", context).calls:
            print("  " + " ".join(f"{name.rsplit('.', 1)[1]} {value:.4g}"
                                  for name, (value, _)
                                  in em_ratios(tracer, context).items()))
    if tracer.absent:
        print(f"trace absent layers: {', '.join(sorted(tracer.absent))}")


# -- main --------------------------------------------------------------------

WORKLOADS = ("point", "reproduce_w2")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ambc" / "__init__.py").is_file():
        print(f"perfbench: no ambc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ambc
    import ambc.cli

    from spans import Tracer

    checks = Checks()
    out_dir = Path(tempfile.mkdtemp(prefix=".run-", dir=HERE))
    try:
        if args.workload == "reproduce_w2":
            workload = ReproduceWorkload(ambc, args.seed, checks, out_dir)
        else:
            workload = PointWorkload(ambc, POINT, args.seed, checks)
        print_context(ambc)
        print(f"workload {args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")

        budget = args.seconds / 2 if args.trace else args.seconds
        setup = SetupSampler(SETUP_RUNS, budget)
        timed = timed_passes(workload, budget, setup=setup)
        setup_s, import_s, warmup_s = setup.medians()
        serial, traced = [], []
        if args.trace:
            tracer = Tracer()
            serial, traced = traced_passes(workload, args.seconds - budget,
                                           tracer)
        elif workload.workers > 1:
            serial = [run_once(workload, serial=True)]
        workload.extra_checks()
        runs = timed + serial + traced
        for _, _, outputs in runs:
            workload.check(outputs)
        digests = {_digest(repr(outputs).encode()) for _, _, outputs in runs}
        checks("every pass and run gives the same points", len(digests) == 1)

        print_parts("timed", timed, workload.slots)
        if args.trace:
            print_parts("serial", serial, workload.slots)
            print_parts("traced", traced, workload.slots)
            print_trace(tracer, len(traced))
            # With one worker the timed passes are serial passes too; the
            # ones alternating with the traced passes ran under the same
            # conditions, so they stand for both.
            parallel = timed if workload.workers > 1 else serial
            metrics = per_layer_metrics(
                tracer, traced, timed_wall=best_wall(parallel),
                serial_wall=best_wall(serial),
                workers=workload.workers, import_s=import_s,
                warmup_s=warmup_s)
        else:
            metrics = end_to_end_metrics(timed, workload.slots, setup_s,
                                         peak_rss_mb())
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failed = len(checks.failures)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"ops_failed_frac {failed / checks.attempted:.6g} "
          f"({failed} of {checks.attempted})")
    for name in checks.failures:
        print(f"FAILED {name}")
    print(f"result_digest {sorted(digests)[0]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
