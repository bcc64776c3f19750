import json
import math

import pytest

from limitper import sawtooth_value, chain_make
from limitper.cli import main

DYADIC = '{"prefix":[2],"rule":[2]}'
TRIADIC = '{"prefix":[3],"rule":[3]}'
REMARK = '{"kind":"remark","chain":{"prefix":[2],"rule":[2]},"depth":6}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_isomorphic(capsys):
    code, out, _ = run(capsys, "classify", "--chain", DYADIC, "--chain-b", '{"prefix":[4],"rule":[4]}')
    assert code == 0
    doc = json.loads(out)
    assert doc["isomorphic"] is True
    assert doc["order_a"] == doc["order_b"] == "2^inf"
    assert all(w % n == 0 for n, w in doc["certificate"]["forward"])
    assert "config_hash" in doc


def test_classify_distinct(capsys):
    code, out, _ = run(capsys, "classify", "--chain", DYADIC, "--chain-b", TRIADIC)
    assert code == 0
    doc = json.loads(out)
    assert doc["isomorphic"] is False
    assert doc["certificate"]["blocker"] == {"side": "a", "entry": 2}


def test_classify_deterministic_bytes(capsys):
    args = ("classify", "--chain", DYADIC, "--chain-b", DYADIC)
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_synth_matches_library(tmp_path, capsys):
    out = tmp_path / "pot.csv"
    code, _, _ = run(capsys, "synth", "--potential", REMARK, "--nmin", "-3", "--nmax", "3", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "n,value"
    chain = chain_make([2], [2])
    rows = [line.split(",") for line in lines[2:]]
    assert [int(r[0]) for r in rows] == list(range(-3, 4))
    for r in rows:
        assert float(r[1]) == sawtooth_value(chain, 6, int(r[0])).value
    manifest = json.loads((tmp_path / "pot.csv.manifest.json").read_text())
    assert manifest["kind"] == "remark"
    assert manifest["tolerance"] == float(sawtooth_value(chain, 6, 0).tail_bound)
    assert manifest["config_hash"] == lines[0].split("=", 1)[1]


def test_synth_zero_row_for_identity_orbit(tmp_path, capsys):
    out = tmp_path / "p.csv"
    run(capsys, "synth", "--potential", REMARK, "--nmin", "0", "--nmax", "0", "--out", str(out))
    assert out.read_text().splitlines()[2] == "0,0.0"


def test_synth_metric_kind_first_value(tmp_path, capsys):
    out = tmp_path / "m.csv"
    descriptor = '{"kind":"metric","chain":{"prefix":[2],"rule":[2]},"depth":8}'
    run(capsys, "synth", "--potential", descriptor, "--nmin", "1", "--nmax", "1", "--out", str(out))
    row = out.read_text().splitlines()[2]
    assert float(row.split(",")[1]) == 0.5 - 2.0**-9  # 1/2 minus the level-8 tail half


def test_synth_byte_determinism(tmp_path, capsys):
    out = tmp_path / "pot.csv"
    args = ("synth", "--potential", REMARK, "--nmin", "-8", "--nmax", "8", "--out", str(out))
    run(capsys, *args)
    first = out.read_bytes()
    out.unlink()
    run(capsys, *args)
    assert out.read_bytes() == first


def test_synth_requires_out(capsys):
    code, _, err = run(capsys, "synth", "--potential", REMARK)
    assert code == 2
    assert "out:" in err


def test_config_file_overrides_flags(tmp_path, capsys):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"nmax": 1}))
    out = tmp_path / "pot.csv"
    code, _, _ = run(
        capsys, "synth", "--potential", REMARK, "--nmin", "0", "--nmax", "5",
        "--out", str(out), "--config", str(conf),
    )
    assert code == 0
    rows = out.read_text().splitlines()[2:]
    assert len(rows) == 2  # config nmax=1 wins over flag nmax=5


def test_unknown_config_field_reports_path(tmp_path, capsys):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"nmxa": 1}))
    code, _, err = run(capsys, "classify", "--chain", DYADIC, "--chain-b", DYADIC, "--config", str(conf))
    assert code == 2
    assert "config.nmxa" in err


def test_invalid_chain_reports_field(capsys):
    code, _, err = run(capsys, "classify", "--chain", '{"prefix":[2,3]}', "--chain-b", DYADIC)
    assert code == 2
    assert err.startswith("error: chain:")


def test_unknown_potential_kind_reports_path(capsys):
    code, _, err = run(capsys, "gordon", "--potential", '{"kind":"nope"}', "--q", "2,4")
    assert code == 2
    assert "potential.kind" in err


def test_gordon_periodic_passes(capsys):
    code, out, _ = run(
        capsys, "gordon", "--potential", '{"kind":"periodic","values":[0.5,0.0,0.25,1.0]}',
        "--q", "4,8,12",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert [m["max_diff"] for m in doc["margins"]] == [0.0, 0.0, 0.0]


def test_gordon_iid_fails(capsys):
    code, out, _ = run(
        capsys, "gordon", "--potential", '{"kind":"iid"}', "--seed", "7", "--q", "2,4,8",
    )
    assert code == 0
    assert json.loads(out)["passed"] is False


def test_ids_csv_and_modulus_report(tmp_path, capsys):
    out = tmp_path / "ids.csv"
    code, stdout, _ = run(
        capsys, "ids", "--potential", '{"kind":"periodic","values":[0.0]}',
        "--energy-min", "-1", "--energy-max", "1", "--energy-points", "5",
        "--size", "2000", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "E,ids"
    mid = float(lines[4].split(",")[1])
    assert abs(mid - 0.5) < 1e-3  # free IDS at E = 0
    report = json.loads(stdout)
    assert "max_log_holder" in report and report["worst_pairs"]


def test_ids_vanishes_below_spectrum(tmp_path, capsys):
    out = tmp_path / "ids.csv"
    run(
        capsys, "ids", "--potential", '{"kind":"periodic","values":[1.0,-1.0]}',
        "--energy-min", "-5", "--energy-max", "-5", "--energy-points", "1",
        "--size", "500", "--out", str(out),
    )
    assert out.read_text().splitlines()[2] == "-5.0,0.0"


def test_lyapunov_csv(tmp_path, capsys):
    out = tmp_path / "lyap.csv"
    code, _, _ = run(
        capsys, "lyapunov", "--potential", '{"kind":"periodic","values":[0.0]}',
        "--energy-min", "3", "--energy-max", "3", "--energy-points", "1",
        "--size", "20000", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "E,lyapunov,N"
    row = lines[2].split(",")
    assert float(row[1]) == pytest.approx(math.log((3 + math.sqrt(5)) / 2), abs=1e-3)
    assert row[2] == "20000"


def test_threads_do_not_change_results(tmp_path, capsys):
    rows = {}
    for threads in ("1", "3"):
        out = tmp_path / f"ids{threads}.csv"
        run(
            capsys, "ids", "--potential", '{"kind":"periodic","values":[0.5,-0.5]}',
            "--energy-min", "-2", "--energy-max", "2", "--energy-points", "9",
            "--size", "1000", "--out", str(out), "--threads", threads,
        )
        rows[threads] = out.read_text().splitlines()[1:]  # hash line differs by config
    assert rows["1"] == rows["3"]


def test_spectrum_command(capsys):
    code, out, _ = run(capsys, "spectrum", "--potential", REMARK, "--level", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["period"] == 4 and doc["level"] == 2
    assert doc["tail_bound"] > 0
    assert all(lo < hi for lo, hi in doc["bands"])


def test_spectrum_command_free_case(capsys):
    free = '{"kind":"remark","chain":{"prefix":[1]},"depth":1}'
    code, out, _ = run(capsys, "spectrum", "--potential", free, "--level", "1")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["bands"]) == 1
    (lo, hi) = doc["bands"][0]
    assert abs(lo + 2) < 1e-9 and abs(hi - 2) < 1e-9
    assert doc["tail_bound"] == 0.0


def test_orbit_command(capsys):
    code, out, _ = run(capsys, "orbit", "--chain", DYADIC, "--k", "3", "--level", "3", "--steps", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["modulus"] == 8
    assert doc["distinct"] == 8
    assert doc["residues"][:3] == [0, 3, 6]


def test_quotient_command_and_error(capsys):
    code, out, _ = run(capsys, "quotient", "--chain", DYADIC, "--target", '{"prefix":[2,4]}')
    assert code == 0
    assert json.loads(out)["alignment"] == [[1, 1], [2, 2]]
    code, _, err = run(capsys, "quotient", "--chain", DYADIC, "--target", TRIADIC)
    assert code == 2
    assert "target:" in err


def test_maximal_chain_command(capsys):
    code, out, _ = run(capsys, "maximal-chain", "--chain", '{"prefix":[2,12,24]}')
    assert code == 0
    assert json.loads(out)["chain"]["prefix"] == [2, 4, 12, 24]


def test_detect_frequency_command(tmp_path, capsys):
    out = tmp_path / "bohr.csv"
    code, _, _ = run(
        capsys, "detect-frequency", "--potential", REMARK, "--q", "1,2,3",
        "--window", "4096", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "q,re,im,magnitude"
    rows = {int(r.split(",")[0]): float(r.split(",")[3]) for r in lines[2:]}
    assert rows[2] > 10 * rows[3]  # in-module frequency stands out against q = 3


def test_condition_a_command(capsys):
    code, out, _ = run(capsys, "condition-a", "--chain", DYADIC, "--depth", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["witness"] == 2 and doc["scope"] == "all-levels"


def test_seed_validation(capsys):
    code, _, err = run(capsys, "classify", "--chain", DYADIC, "--chain-b", DYADIC, "--seed", "-1")
    assert code == 2
    assert "seed" in err


PERIODIC = '{"kind":"periodic","values":[0.5,-0.5]}'


@pytest.mark.parametrize("kind, descriptor", [("iid", '{"kind":"iid"}'), ("periodic", PERIODIC)])
def test_spectrum_rejects_potentials_without_layers(capsys, kind, descriptor):
    code, _, err = run(capsys, "spectrum", "--potential", descriptor, "--level", "1")
    assert code == 2
    assert err == f"error: potential: potential kind '{kind}' has no layer structure\n"


@pytest.mark.parametrize(
    "argv, field",
    [
        (("ids", "--potential", PERIODIC, "--energy-min", "-1", "--energy-max", "1",
          "--energy-points", "0"), "energy_points"),
        (("ids", "--potential", PERIODIC, "--energy-min", "-1", "--energy-max", "1",
          "--size", "0"), "size"),
        (("lyapunov", "--potential", PERIODIC, "--energy-min", "-1", "--energy-max", "1",
          "--size", "0"), "size"),
        (("detect-frequency", "--potential", REMARK, "--q", "1,2", "--window", "0"), "window"),
        (("condition-a", "--chain", DYADIC, "--depth", "0"), "depth"),
        (("quotient", "--chain", DYADIC, "--target", '{"prefix":[2,4]}', "--depth", "0"), "depth"),
    ],
)
def test_zero_counts_are_rejected_not_defaulted(tmp_path, capsys, argv, field):
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith(f"error: {field}:")


def test_ids_checks_out_before_computing(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("ids swept before checking --out")

    monkeypatch.setattr("limitper.cli.eigenvalue_count", fail)
    code, _, err = run(
        capsys, "ids", "--potential", PERIODIC, "--energy-min", "-1", "--energy-max", "1"
    )
    assert code == 2
    assert err.startswith("error: out:")
