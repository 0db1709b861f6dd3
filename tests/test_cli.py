import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ambc
from ambc import analysis, cli
from ambc.config import Scheme


def test_parse_defaults():
    spec = cli.parse_args([])
    assert spec.schemes == ("CAMF", "CUIF")
    assert spec.axis == "snr_db"
    assert spec.values == tuple(float(v) for v in range(9))
    p = spec.params
    assert (p.L, p.M, p.P, p.alpha_sq, p.snr_db) == (32, 100, 4, 0.2, 6.0)
    assert p.n_iter == 5
    assert spec.fmt == "csv"
    assert not spec.include_timing


def test_parse_negative_values_with_equals():
    # "--values -4,-2,0" is a usage error, since argparse reads -4,-2,0 as
    # an option; the = form passes it as the value
    assert cli.parse_args(["--values=-4,-2,0"]).values == (-4.0, -2.0, 0.0)


def test_parse_scheme_and_values():
    spec = cli.parse_args(["--scheme", "GENIE_CUIF", "--axis", "alpha_sq",
                           "--values", "0.1,0.2"])
    assert spec.schemes == ("GENIE_CUIF",)
    assert spec.axis == "alpha_sq"
    assert spec.values == (0.1, 0.2)
    assert spec.params.scheme is Scheme.GENIE_CUIF
    # a repeated scheme, compared after upper-casing, runs once, where it
    # first appears
    spec = cli.parse_args(["--scheme", "CAMF", "--scheme", "genie_cuif",
                           "--scheme", "camf", "--scheme", "GENIE_CUIF"])
    assert spec.schemes == ("CAMF", "GENIE_CUIF")


def test_parse_analytic_overlays():
    spec = cli.parse_args(["--analytic"])
    assert spec.schemes == ("CAMF", "CUIF", cli.ANALYTIC_CUIF,
                            cli.ANALYTIC_MIX)


def test_parse_rejects_incompatible_geometry():
    with pytest.raises(SystemExit):
        cli.parse_args(["--L", "4", "--P", "8"])
    with pytest.raises(SystemExit):
        # an EM scheme spends its only bit on the pilot
        cli.parse_args(["--scheme", "CAMF", "--M", "1", "--values", "6"])


def test_parse_rejects_unknown_scheme_and_bad_values():
    with pytest.raises(SystemExit):
        cli.parse_args(["--scheme", "NOPE"])
    with pytest.raises(SystemExit):
        cli.parse_args(["--values", "1,two"])
    with pytest.raises(SystemExit):
        cli.parse_args(["--axis", "L"])  # non-SNR axis needs --values
    for argv in (["--niter", "0"], ["--workers", "0"],
                 ["--axis", "L", "--values", "16.5"],
                 ["reproduce", "--slots", "0"], ["reproduce", "--workers", "0"],
                 ["--values", "nan"], ["--values", "0,inf"],
                 ["--snr-db", "nan", "--axis", "L", "--values", "16"],
                 # N0 overflows, underflows or leaves the E-step in overflow
                 ["--scheme", "GENIE_CUIF", "--values", "4000",
                  "--slots", "1"],
                 ["--values=-4000"], ["--values=-3100"],
                 ["--values", "1000.5"],
                 ["--snr-db", "-1001", "--axis", "L", "--values", "16"],
                 ["--seed", "-1"], ["reproduce", "--seed", "-1"],
                 ["--scheme", "CUIF", "--scheme", "CAMF", "--M", "1"],
                 # every scheme is checked, not just the first
                 ["--scheme", "GENIE_CUIF", "--scheme", "CAMF", "--M", "1"]):
        # usage errors: exit status 2 through argparse, no traceback
        assert cli.main(argv) == 2, argv


def test_epsilon_is_not_an_option(capsys):
    # the EM stopping tolerance is fixed in the receiver
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["--epsilon", "1e-12"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --epsilon" in capsys.readouterr().err


def run_main(tmp_path, extra, name="out.csv"):
    out = tmp_path / name
    rc = cli.main(["--scheme", "GENIE_CUIF", "--values", "0,4",
                   "--slots", "10", "--out", str(out)] + extra)
    assert rc == 0
    return out


def test_csv_output_schema(tmp_path):
    out = run_main(tmp_path, [])
    lines = out.read_text().splitlines()
    assert lines[0] == f"# {cli.SCHEMA_VERSION}"
    rows = list(csv.DictReader(lines[1:]))
    assert list(rows[0]) == cli.CSV_COLUMNS
    assert [r["value"] for r in rows] == ["0.0", "4.0"]
    for r in rows:
        assert int(r["total_bits"]) == 10 * 100
        assert float(r["runtime_ms"]) == 0.0


def test_csv_byte_identical_across_runs(tmp_path):
    a = run_main(tmp_path, ["--seed", "7"], "a.csv")
    b = run_main(tmp_path, ["--seed", "7"], "b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_repeated_values_run_once(tmp_path):
    a = run_main(tmp_path, ["--values", "0,0,4", "--analytic"], "a.csv")
    b = run_main(tmp_path, ["--values", "0,4", "--analytic"], "b.csv")
    assert a.read_bytes() == b.read_bytes()
    spec = cli.parse_args(["--axis", "L", "--values", "16,16.0,32"])
    assert spec.values == (16.0, 32.0)
    # a spec built without the parser: the analytic overlay, like sweep,
    # runs each value once
    spec = cli.parse_args(["--scheme", "GENIE_CUIF", "--analytic", "--slots",
                           "2", "--values", "0,4"])
    for _, curve in cli.execute(dataclasses.replace(spec, values=(4, 0, 4))):
        assert [p.swept_value for p in curve.points] == [0.0, 4.0]


def test_csv_identical_across_worker_counts(tmp_path):
    a = run_main(tmp_path, ["--seed", "7", "--workers", "1"], "w1.csv")
    b = run_main(tmp_path, ["--seed", "7", "--workers", "3"], "w3.csv")
    assert a.read_bytes() == b.read_bytes()


def test_json_round_trip_bit_exact(tmp_path):
    out_j = run_main(tmp_path, ["--seed", "3", "--format", "json"], "r.json")
    out_c = run_main(tmp_path, ["--seed", "3"], "r.csv")
    data = json.loads(out_j.read_text())
    assert data["schema"] == cli.SCHEMA_VERSION
    lines = out_c.read_text().splitlines()
    csv_rows = list(csv.DictReader(lines[1:]))
    for jr, cr in zip(data["rows"], csv_rows):
        # repr round trip keeps the CSV floats bit-exact with the JSON ones
        assert float(cr["ber"]) == jr["ber"]
        assert float(cr["stderr"]) == jr["stderr"]
        assert int(cr["bit_errors"]) == jr["bit_errors"]


def test_analytic_rows_have_no_counts(tmp_path):
    out = run_main(tmp_path, ["--analytic"])
    lines = out.read_text().splitlines()
    rows = [r for r in csv.DictReader(lines[1:])
            if r["scheme"].startswith("ANALYTIC")]
    assert len(rows) == 4
    for r in rows:
        assert r["total_bits"] == "0" and r["slots"] == "0"
        assert 0.0 < float(r["ber"]) < 0.5


def test_overlay_rows_carry_their_own_closed_form(tmp_path):
    closed_forms = {cli.ANALYTIC_CUIF: analysis.ber_cuif_closed,
                    cli.ANALYTIC_MIX: analysis.ber_unknown_symbols}
    assert list(cli.OVERLAYS) == list(closed_forms)
    for axis, values in (("snr_db", "-4,0,4"), ("L", "16,64")):
        out = run_main(tmp_path, ["--analytic", "--axis", axis,
                                  f"--values={values}"], f"{axis}.csv")
        rows = [r for r in csv.DictReader(out.read_text().splitlines()[1:])
                if r["scheme"] in cli.OVERLAYS]
        assert len(rows) == 2 * len(values.split(","))
        for r in rows:
            budget = analysis.LinkBudget.from_sim(
                ambc.SimParams().at(axis, float(r["value"])))
            assert float(r["ber"]) == closed_forms[r["scheme"]](budget)


def test_plot_script_emitted(tmp_path):
    out = run_main(tmp_path, ["--emit-plot-script"])
    script = out.with_suffix(".plot.py")
    assert script.exists()
    text = script.read_text()
    assert "semilogy" in text and out.name in text
    compile(text, str(script), "exec")


def test_plot_script_compiles_for_any_data_file_name(tmp_path):
    # the names in the header comment are quoted, so that a newline in
    # them cannot start a line of code
    out = run_main(tmp_path, ["--emit-plot-script"], "a\nb.csv")
    text = out.with_suffix(".plot.py").read_text()
    compile(text, "a\nb.plot.py", "exec")
    assert "'a\\nb.csv'" in text.splitlines()[1]


# a matplotlib.pyplot stand-in that prints the path savefig is given
PYPLOT_STUB = """\
def savefig(path, **kwargs):
    print(path)


def __getattr__(name):
    return lambda *args, **kwargs: None
"""


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_plot_script_runs_from_any_directory(tmp_path, fmt):
    stub = tmp_path / "stub" / "matplotlib"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("")
    (stub / "pyplot.py").write_text(PYPLOT_STUB)
    out = tmp_path / "out" / f"r.{fmt}"
    assert cli.main(["--scheme", "GENIE_CUIF", "--values", "0,4", "--slots",
                     "2", "--format", fmt, "--emit-plot-script",
                     "--out", str(out)]) == 0
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    proc = subprocess.run(
        [sys.executable, str(Path("..", "out", "r.plot.py"))], cwd=elsewhere,
        env=dict(os.environ, PYTHONPATH=str(stub.parent)),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()) == out.with_suffix(".png").resolve()


def test_reproduce_parser_builds_all_experiments(tmp_path):
    specs = cli.parse_reproduce_args(["--out", str(tmp_path), "--slots", "5"])
    names = [spec.out.name for spec in specs]
    assert names == ["sweep_snr.csv", "sweep_niter.csv", "sweep_alpha.csv",
                     "sweep_length.csv", "sweep_paths.csv"]
    expected = [
        ("snr_db", (0, 1, 2, 3, 4, 5, 6, 7, 8)),
        ("n_iter", (1, 2, 3, 5, 10, 20)),
        ("alpha_sq", (0.05, 0.1, 0.2, 0.3, 0.4)),
        ("L", (16, 32, 64, 128)),
        ("P", (1, 2, 4, 8)),
    ]
    for spec, (axis, values) in zip(specs, expected):
        overlays = ((cli.ANALYTIC_CUIF, cli.ANALYTIC_MIX)
                    if axis == "snr_db" else ())
        assert spec.schemes == ("CAMF", "CUIF") + overlays
        assert spec.axis == axis
        assert spec.values == tuple(float(v) for v in values)
        assert spec.out.parent == tmp_path
        p = spec.params
        assert (p.L, p.M, p.P, p.alpha_sq, p.snr_db) == (32, 100, 4, 0.2, 6.0)
        assert (p.slots, p.seed, spec.workers) == (5, 0, 1)
    [dashed] = cli.parse_reproduce_args(["--out=-x", "--only", "paths"])
    assert dashed.out == Path("-x") / "sweep_paths.csv"
    # a repeated --only runs once, where it first appears
    specs = cli.parse_reproduce_args(["--only", "paths", "--only", "snr",
                                      "--only", "paths"])
    assert [spec.out.name for spec in specs] == ["sweep_paths.csv",
                                                 "sweep_snr.csv"]


# sha256 of the count-and-parameter columns of `reproduce --slots 2 --seed 7`
REPRODUCE_PINNED_COLUMNS = ["scheme", "axis", "value", "L", "M", "P", "alpha2",
                            "snr_db", "niter", "slots", "total_bits"]
REPRODUCE_PINNED_SHA256 = (
    "b14d886b4b1d3c794f1fc82caff312c31b0d779bffa57f42b9abb51a5eb260c4")


def test_reproduce_rows_pinned(tmp_path):
    # BER columns are left out so a libm difference cannot fail this
    assert cli.main(["reproduce", "--out", str(tmp_path), "--slots", "2",
                     "--seed", "7"]) == 0
    digest = hashlib.sha256()
    for name in ("snr", "niter", "alpha", "length", "paths"):
        lines = (tmp_path / f"sweep_{name}.csv").read_text().splitlines()
        for row in csv.DictReader(lines[1:]):
            line = ",".join(row[c] for c in REPRODUCE_PINNED_COLUMNS)
            digest.update((line + "\n").encode())
    assert digest.hexdigest() == REPRODUCE_PINNED_SHA256


# bit_errors per swept value of the Monte Carlo rows of `reproduce --slots 10
# --seed 7`, recorded before em_e_step made its own 4-QAM decisions; every
# point scores 10 slots of 99 data bits. Covers caps of 10 and 20 with early
# stops, one-slot blocks at L = 64 and 128, P = 8 and alpha^2 = 0.05.
PINNED_REPRODUCE_ERRORS = {
    ("snr", "CAMF"): (2, 11, 1, 0, 0, 0, 0, 0, 0),
    ("snr", "CUIF"): (39, 115, 69, 4, 0, 0, 0, 0, 0),
    ("niter", "CAMF"): (0, 2, 0, 0, 0, 0),
    ("niter", "CUIF"): (237, 119, 2, 0, 0, 0),
    ("alpha", "CAMF"): (0, 0, 0, 0, 0),
    ("alpha", "CUIF"): (0, 51, 0, 0, 0),
    ("length", "CAMF"): (0, 0, 0, 0),
    ("length", "CUIF"): (0, 50, 0, 45),
    ("paths", "CAMF"): (1, 13, 0, 0),
    ("paths", "CUIF"): (16, 45, 0, 0),
}


def test_reproduce_counts_pinned(tmp_path):
    errors, bits = {}, set()
    for spec in cli.parse_reproduce_args(["--out", str(tmp_path), "--slots",
                                          "10", "--seed", "7"]):
        name = spec.out.stem.removeprefix("sweep_")
        for scheme, curve in cli.execute(spec):
            if not scheme.startswith("ANALYTIC"):
                errors[(name, scheme)] = tuple(p.bit_errors
                                               for p in curve.points)
                bits.update(p.total_bits for p in curve.points)
    assert errors == PINNED_REPRODUCE_ERRORS
    assert bits == {990}


def test_reproduce_only_subset_runs(tmp_path, capsys):
    rc = cli.main(["reproduce", "--out", str(tmp_path), "--slots", "2",
                   "--only", "paths", "--only", "paths"])
    assert rc == 0
    out = tmp_path / "sweep_paths.csv"
    assert capsys.readouterr().out.splitlines() == [str(out)]
    lines = out.read_text().splitlines()
    rows = list(csv.DictReader(lines[1:]))
    assert sorted({r["scheme"] for r in rows}) == ["CAMF", "CUIF"]
    assert [r["value"] for r in rows if r["scheme"] == "CAMF"] == [
        "1.0", "2.0", "4.0", "8.0"]
    assert {r["P"] for r in rows} == {"1", "2", "4", "8"}


def fresh_env():
    """The environment for a fresh interpreter that imports this ambc."""
    env = dict(os.environ)
    src = str(Path(ambc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_unwritable_out_is_one_line_error(tmp_path):
    # a directory as the CSV path, and an existing file as reproduce's
    # directory: status 1 and one line on stderr, no traceback
    existing = tmp_path / "taken"
    existing.write_text("")
    for argv in (["--scheme", "GENIE_CUIF", "--values", "0", "--slots", "2",
                  "--out", str(tmp_path)],
                 ["reproduce", "--only", "paths", "--slots", "1",
                  "--out", str(existing)]):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from ambc import cli; sys.exit(cli.main())", *argv],
            capture_output=True, text=True, env=fresh_env(), cwd=tmp_path,
            timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("ambc: cannot write results: "), lines
    assert existing.read_text() == ""


def test_unwritable_out_fails_before_any_sweep(tmp_path, monkeypatch,
                                              capsys):
    # every --out is checked before the first sweep, and nothing is
    # created or truncated
    def no_sweep(spec):
        raise AssertionError("swept before checking --out")

    monkeypatch.setattr(cli, "execute", no_sweep)
    existing = tmp_path / "taken"
    existing.write_text("kept")
    for argv in (["--scheme", "GENIE_CUIF", "--values", "0",
                  "--out", str(tmp_path)],
                 ["reproduce", "--out", str(existing)]):
        assert cli.main(argv) == 1, argv
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("ambc: cannot write results: "), lines
    assert existing.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_unwritable_plot_script_fails_before_any_sweep(tmp_path, monkeypatch,
                                                      capsys):
    # the plot script beside --out is checked with it
    def no_sweep(spec):
        raise AssertionError("swept before checking the plot script path")

    monkeypatch.setattr(cli, "execute", no_sweep)
    (tmp_path / "pp" / "r.plot.py").mkdir(parents=True)
    argv = ["--scheme", "GENIE_CUIF", "--values", "0", "--slots", "2",
            "--emit-plot-script", "--out", str(tmp_path / "pp" / "r.csv")]
    assert cli.main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "r.plot.py" in lines[0], lines
    assert not (tmp_path / "pp" / "r.csv").exists()
    assert sorted(p.name for p in (tmp_path / "pp").iterdir()) == [
        "r.plot.py"]


# Run in a fresh interpreter: import ambc, run the CLI on argv, and print
# the exit status and the scipy modules loaded after each step.
SCIPY_PROBE = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import ambc
from ambc import cli
after_import = scipy_modules()
rc = cli.main(json.loads(sys.argv[1]))
print(json.dumps([after_import, rc, scipy_modules()]))
"""


def run_fresh(tmp_path, argv):
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, json.dumps(argv)],
        capture_output=True, text=True, env=fresh_env(), cwd=tmp_path,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_monte_carlo_run_does_not_import_scipy(tmp_path):
    # scipy is only the tests' oracle: no run loads it, closed forms included
    argv = ["--scheme", "GENIE_CUIF", "--values", "0", "--slots", "2",
            "--out", str(tmp_path / "g.csv")]
    assert run_fresh(tmp_path, argv) == [[], 0, []]
    assert run_fresh(tmp_path, argv + ["--analytic"]) == [[], 0, []]


# Run in a fresh interpreter: import ambc, serial sweeps and a serial CLI
# run, then one 2-worker sweep; print the pool modules loaded before and
# after it, and whether its counts match the serial ones.
POOL_PROBE = """
import json, sys
def pool_modules():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("concurrent", "multiprocessing"))
import ambc
from ambc import cli
params = ambc.SimParams(slots=3, seed=4)
curves = [ambc.sweep(params.with_(scheme=scheme), "snr_db", [0.0, 4.0])
          for scheme in (ambc.Scheme.GENIE_CUIF, ambc.Scheme.CAMF)]
rc = cli.main(json.loads(sys.argv[1]))
serial = pool_modules()
parallel = ambc.sweep(params.with_(scheme=ambc.Scheme.CAMF), "snr_db",
                      [0.0, 4.0], n_workers=2)
same = [p.bit_errors for p in parallel.points] == [
    p.bit_errors for p in curves[1].points]
print(json.dumps([rc, serial, same, pool_modules()]))
"""


def test_serial_runs_load_no_process_pool(tmp_path):
    # the pool's modules load with the first parallel sweep, and the
    # cached pool lets the interpreter exit cleanly
    argv = ["--scheme", "GENIE_CUIF", "--values", "0", "--slots", "2",
            "--format", "json", "--out", str(tmp_path / "g.json")]
    proc = subprocess.run(
        [sys.executable, "-c", POOL_PROBE, json.dumps(argv)],
        capture_output=True, text=True, env=fresh_env(), cwd=tmp_path,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    rc, serial, same, parallel = json.loads(proc.stdout.splitlines()[-1])
    assert (rc, serial, same) == (0, [], True)
    assert {"concurrent.futures.process", "multiprocessing"} <= set(parallel)


# Run the CLI in a fresh interpreter where importing scipy fails.
NO_SCIPY = """
import sys
sys.modules["scipy"] = None
from ambc import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def analytic_rows(out_dir):
    lines = (out_dir / "sweep_snr.csv").read_text().splitlines()
    return [line for line in lines if line.startswith("ANALYTIC")]


def test_reproduce_runs_without_scipy(tmp_path):
    argv = ["reproduce", "--only", "snr", "--slots", "2"]
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, *argv, "--out", str(tmp_path / "a")],
        capture_output=True, text=True, env=fresh_env(), cwd=tmp_path,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert cli.main(argv + ["--out", str(tmp_path / "b")]) == 0
    rows = analytic_rows(tmp_path / "b")
    assert len(rows) == 18
    assert analytic_rows(tmp_path / "a") == rows
