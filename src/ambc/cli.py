"""Batch entry point: parse a run spec, execute sweeps, write results.

Output schema (ambc-results-v1): one row per (scheme, axis value) with the
effective per-point parameters, so files are self-describing overlays.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import analysis, montecarlo
from .config import SWEEP_AXES, Scheme, SimParams

SCHEMA_VERSION = "ambc-results-v1"

# Each operating-point field of SimParams: its flag, and its CSV column
# (None: not written). The flags take their type and default from SimParams().
_FIELDS = {"L": ("--L", "L"), "M": ("--M", "M"), "P": ("--P", "P"),
           "alpha_sq": ("--alpha2", "alpha2"),
           "snr_db": ("--snr-db", "snr_db"), "n_iter": ("--niter", "niter"),
           "slots": ("--slots", "slots"), "seed": ("--seed", None)}

CSV_COLUMNS = ["scheme", "axis", "value",
               *(column for _, column in _FIELDS.values() if column),
               "bit_errors", "total_bits", "ber", "stderr", "runtime_ms"]

ANALYTIC_CUIF = "ANALYTIC_CUIF"
ANALYTIC_MIX = "ANALYTIC_MIX"
# Each analytic overlay and its closed form, looked up in analysis at each
# call so that a wrapper put on the module's function (perfbench's) sees it.
OVERLAYS = {ANALYTIC_CUIF: lambda budget: analysis.ber_cuif_closed(budget),
            ANALYTIC_MIX: lambda budget: analysis.ber_unknown_symbols(budget)}

DEFAULT_SNR_VALUES = tuple(float(v) for v in range(9))


@dataclass(frozen=True)
class RunSpec:
    schemes: tuple               # Scheme names and OVERLAYS names
    axis: str
    values: tuple
    params: SimParams            # each Scheme's sweep sets its own scheme
    out: Path
    fmt: str = "csv"
    emit_plot_script: bool = False
    workers: int = 1
    include_timing: bool = False


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ambc",
        description="Ambient backscatter over OFDM: BER sweeps and analysis",
    )
    parser.add_argument("--scheme", action="append", default=None,
                        help="detector scheme (repeatable); default CAMF and CUIF")
    parser.add_argument("--axis", default="snr_db",
                        choices=SWEEP_AXES)
    parser.add_argument("--values", default=None,
                        help="comma-separated axis values, default 0..8 dB"
                             "; write --values=-4,0 if the first is negative")
    defaults = SimParams()
    for field, (flag, _) in _FIELDS.items():
        default = getattr(defaults, field)
        parser.add_argument(flag, dest=field, type=type(default),
                            default=default,
                            metavar=flag[2:].upper().replace("-", "_"))
    parser.add_argument("--out", default="ambc_results.csv")
    parser.add_argument("--format", dest="fmt", default="csv",
                        choices=("csv", "json"))
    parser.add_argument("--emit-plot-script", action="store_true")
    parser.add_argument("--analytic", action="store_true",
                        help=f"emit {' and '.join(OVERLAYS)} overlays")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--timing", action="store_true",
                        help="record wall time per point (breaks byte-level "
                             "reproducibility of outputs)")
    return parser


def parse_args(argv) -> RunSpec:
    parser = _build_parser()
    args = parser.parse_args(argv)

    schemes = args.scheme or ["CAMF", "CUIF"]
    try:
        scheme_objs = list(dict.fromkeys(Scheme(s.upper()) for s in schemes))
    except ValueError:
        parser.error(f"--scheme: unknown scheme in {schemes}")
    if args.values is None:
        values = DEFAULT_SNR_VALUES if args.axis == "snr_db" else None
        if values is None:
            parser.error("--values is required for axis " + args.axis)
    else:
        try:
            values = tuple(dict.fromkeys(map(float, args.values.split(","))))
        except ValueError:
            parser.error(f"--values: cannot parse {args.values!r}")
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    try:
        params = SimParams(scheme=scheme_objs[0],
                           **{field: getattr(args, field) for field in _FIELDS})
        for scheme in scheme_objs:
            for value in values:
                params.with_(scheme=scheme).at(args.axis, value)
    except ValueError as exc:
        parser.error(f"invalid run parameters: {exc}")
    names = [scheme.value for scheme in scheme_objs]
    if args.analytic:
        names += OVERLAYS
    return RunSpec(schemes=tuple(names), axis=args.axis, values=values,
                   params=params, out=Path(args.out), fmt=args.fmt,
                   emit_plot_script=args.emit_plot_script,
                   workers=args.workers, include_timing=args.timing)


def _analytic_points(spec: RunSpec, closed_form):
    points = tuple(montecarlo.BerPoint(
        swept_value=float(value), bit_errors=0, total_bits=0,
        ber=closed_form(analysis.LinkBudget.from_sim(
            spec.params.at(spec.axis, value))),
        stderr=0.0, runtime_ms=0.0) for value in sorted(set(spec.values)))
    return montecarlo.BerCurve(axis_name=spec.axis, points=points,
                               params_snapshot=spec.params)


def execute(spec: RunSpec):
    """Run every scheme's sweep; returns [(scheme name, BerCurve)]."""
    results = []
    for scheme in spec.schemes:
        if scheme in OVERLAYS:
            curve = _analytic_points(spec, OVERLAYS[scheme])
        else:
            curve = montecarlo.sweep(spec.params.with_(scheme=Scheme(scheme)),
                                     spec.axis, spec.values,
                                     n_workers=spec.workers)
        results.append((scheme, curve))
    return results


def _rows(results, spec: RunSpec):
    for scheme, curve in results:
        for point in curve.points:
            params = spec.params.at(spec.axis, point.swept_value)
            yield {
                "scheme": scheme,
                "axis": spec.axis,
                "value": point.swept_value,
                **{column: 0 if field == "slots" and scheme in OVERLAYS
                   else getattr(params, field)
                   for field, (_, column) in _FIELDS.items() if column},
                "bit_errors": point.bit_errors,
                "total_bits": point.total_bits,
                "ber": point.ber,
                "stderr": point.stderr,
                "runtime_ms": point.runtime_ms if spec.include_timing else 0.0,
            }


def _check_writable(out: Path) -> None:
    """Raise OSError if ``out`` is a directory or has an ancestor that is
    not one, so that it cannot be written as a file; creates nothing."""
    if out.is_dir():
        raise IsADirectoryError(f"{out} is a directory")
    for parent in out.parents:
        if parent.exists() and not parent.is_dir():
            raise NotADirectoryError(f"{parent} is not a directory")


def write_results(results, spec: RunSpec) -> list[Path]:
    """Write CSV or JSON (plus the optional plot script); returns paths."""
    if not results:
        raise ValueError("no curves to write")
    out = spec.out
    out.parent.mkdir(parents=True, exist_ok=True)
    written = []
    rows = list(_rows(results, spec))
    if spec.fmt == "csv":
        with open(out, "w", newline="") as fh:
            fh.write(f"# {SCHEMA_VERSION}\n")
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    else:
        with open(out, "w") as fh:
            json.dump({"schema": SCHEMA_VERSION, "rows": rows}, fh, indent=1)
            fh.write("\n")
    written.append(out)
    if spec.emit_plot_script:
        script = out.with_suffix(".plot.py")
        script.write_text(_plot_script(out, spec.fmt))
        written.append(script)
    return written


def _plot_script(data_path: Path, fmt: str) -> str:
    data = f"here / {data_path.name!r}"
    loader = (
        f"rows = list(csv.DictReader(ln for ln in open({data})\n"
        "            if not ln.startswith('#')))"
        if fmt == "csv" else
        f"rows = json.load(open({data}))['rows']"
    )
    imports = "import csv" if fmt == "csv" else "import json"
    return f"""#!/usr/bin/env python3
# Plots log-scale BER versus the sweep axis from {data_path.name!r} to
# {data_path.stem + '.png'!r}, both beside this script, from any working directory.
{imports}
from collections import defaultdict
from pathlib import Path
import matplotlib.pyplot as plt

here = Path(__file__).resolve().parent
{loader}
by_scheme = defaultdict(list)
for r in rows:
    by_scheme[r['scheme']].append((float(r['value']), float(r['ber'])))
for scheme, pts in by_scheme.items():
    pts.sort()
    style = '--' if scheme in {tuple(OVERLAYS)!r} else '-o'
    plt.semilogy([v for v, _ in pts], [b for _, b in pts], style, label=scheme)
plt.xlabel(rows[0]['axis'])
plt.ylabel('BER')
plt.grid(True, which='both')
plt.legend()
plt.savefig(here / {data_path.stem + '.png'!r}, dpi=150)
"""


# The paper's five sweeps of CAMF against CUIF, as `ambc run` arguments.
REPRODUCE_EXPERIMENTS = {
    "snr": ["--analytic"],
    "niter": ["--axis", "n_iter", "--values", "1,2,3,5,10,20"],
    "alpha": ["--axis", "alpha_sq", "--values", "0.05,0.1,0.2,0.3,0.4"],
    "length": ["--axis", "L", "--values", "16,32,64,128"],
    "paths": ["--axis", "P", "--values", "1,2,4,8"],
}


def parse_reproduce_args(argv) -> list[RunSpec]:
    parser = argparse.ArgumentParser(
        prog="ambc reproduce",
        description="Run the bundled experiment presets",
    )
    parser.add_argument("--out", default="ambc_reproduce")
    parser.add_argument("--slots", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=SimParams().seed)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--emit-plot-script", action="store_true")
    parser.add_argument("--only", action="append", default=None,
                        choices=sorted(REPRODUCE_EXPERIMENTS),
                        help="run a subset of the experiments (repeatable)")
    args = parser.parse_args(argv)
    common = ["--slots", str(args.slots), "--seed", str(args.seed),
              "--workers", str(args.workers)]
    if args.emit_plot_script:
        common.append("--emit-plot-script")
    # "--out=" keeps an --out value that starts with "-" a value
    return [parse_args(common + REPRODUCE_EXPERIMENTS[name]
                       + [f"--out={Path(args.out) / f'sweep_{name}.csv'}"])
            for name in dict.fromkeys(args.only or REPRODUCE_EXPERIMENTS)]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] == "reproduce":
            specs = parse_reproduce_args(argv[1:])
        else:
            if argv and argv[0] == "run":
                argv = argv[1:]
            specs = [parse_args(argv)]
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # before any sweep, so that a bad path costs no compute
        for spec in specs:
            _check_writable(spec.out)
            if spec.emit_plot_script:
                _check_writable(spec.out.with_suffix(".plot.py"))
    except OSError as exc:
        print(f"ambc: cannot write results: {exc}", file=sys.stderr)
        return 1
    for spec in specs:
        try:
            results = execute(spec)
        except ValueError as exc:
            print(f"ambc: sweep failed: {exc}", file=sys.stderr)
            return 1
        try:
            paths = write_results(results, spec)
        except OSError as exc:
            print(f"ambc: cannot write results: {exc}", file=sys.stderr)
            return 1
        for path in paths:
            print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
