import csv
import json

import pytest

from ambc import cli
from ambc.config import Scheme


def test_parse_defaults():
    spec = cli.parse_args([])
    assert [sw.scheme for sw in spec.sweeps] == ["CAMF", "CUIF"]
    assert spec.sweeps[0].axis == "snr_db"
    assert spec.sweeps[0].values == tuple(float(v) for v in range(9))
    p = spec.sweeps[0].params
    assert (p.L, p.M, p.P, p.alpha_sq, p.snr_db) == (32, 100, 4, 0.2, 6.0)
    assert p.em.n_iter_max == 5
    assert spec.fmt == "csv"
    assert not spec.include_timing


def test_parse_scheme_and_values():
    spec = cli.parse_args(["--scheme", "GENIE_CUIF", "--axis", "alpha_sq",
                           "--values", "0.1,0.2"])
    assert [sw.scheme for sw in spec.sweeps] == ["GENIE_CUIF"]
    assert spec.sweeps[0].values == (0.1, 0.2)
    assert spec.sweeps[0].params.scheme is Scheme.GENIE_CUIF


def test_parse_analytic_overlays():
    spec = cli.parse_args(["--analytic"])
    assert [sw.scheme for sw in spec.sweeps] == [
        "CAMF", "CUIF", cli.ANALYTIC_CUIF, cli.ANALYTIC_MIX]


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
    for argv in (["--niter", "0"], ["--epsilon", "0"], ["--workers", "0"],
                 ["--axis", "L", "--values", "16.5"],
                 ["reproduce", "--slots", "0"], ["reproduce", "--workers", "0"],
                 ["--values", "nan"], ["--values", "0,inf"],
                 ["--snr-db", "nan", "--axis", "L", "--values", "16"],
                 ["--seed", "-1"], ["reproduce", "--seed", "-1"],
                 ["--scheme", "CAMF", "--values", "6", "--slots", "2",
                  "--epsilon", "nan"], ["--epsilon", "inf"]):
        # usage errors: exit status 2 through argparse, no traceback
        assert cli.main(argv) == 2, argv


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


def test_plot_script_emitted(tmp_path):
    out = run_main(tmp_path, ["--emit-plot-script"])
    script = out.with_suffix(".plot.py")
    assert script.exists()
    text = script.read_text()
    assert "semilogy" in text and out.name in text
    compile(text, str(script), "exec")


def test_reproduce_parser_builds_all_experiments(tmp_path):
    specs = cli.parse_reproduce_args(["--out", str(tmp_path), "--slots", "5"])
    names = [spec.out.name for spec in specs]
    assert names == ["sweep_snr.csv", "sweep_niter.csv", "sweep_alpha.csv",
                     "sweep_length.csv", "sweep_paths.csv"]
    snr = specs[0]
    assert [sw.scheme for sw in snr.sweeps] == [
        "CAMF", "CUIF", cli.ANALYTIC_CUIF, cli.ANALYTIC_MIX]
    for spec in specs[1:]:
        assert [sw.scheme for sw in spec.sweeps] == ["CAMF", "CUIF"]
        assert spec.sweeps[0].params.snr_db == 6.0


def test_reproduce_only_subset_runs(tmp_path):
    rc = cli.main(["reproduce", "--out", str(tmp_path), "--slots", "2",
                   "--only", "paths"])
    assert rc == 0
    out = tmp_path / "sweep_paths.csv"
    lines = out.read_text().splitlines()
    rows = list(csv.DictReader(lines[1:]))
    assert sorted({r["scheme"] for r in rows}) == ["CAMF", "CUIF"]
    assert [r["value"] for r in rows if r["scheme"] == "CAMF"] == [
        "1.0", "2.0", "4.0", "8.0"]
    assert {r["P"] for r in rows} == {"1", "2", "4", "8"}
