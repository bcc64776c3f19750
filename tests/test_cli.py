import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from limitper import chain_make
from limitper.cli import (
    _CHAIN, _COMMANDS, _FIELDS, _LAYER, _POTENTIALS, REQUIRED, ExperimentConfig, _energy_grid,
    _grid_point, main,
)

from helpers import sawtooth_value, traced_peak_mib

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


def test_classify_a_ratio_of_two_41_bit_primes(capsys):
    # 1099511627791 * 1099511627803 is past 2**64 and below the certified limit psi_13
    chain = '{"prefix":[2],"rule":[1208925819660808663073173]}'
    code, out, err = run(capsys, "classify", "--chain", chain, "--chain-b", chain)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["isomorphic"] is True
    assert doc["order_a"] == "2^1*1099511627791^inf*1099511627803^inf"


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


def test_synth_writes_every_tower_base_as_its_residue(tmp_path, capsys):
    # -3 and 1 are the same point of Z/4, the depth-2 level of [2]/[2]
    out = tmp_path / "pot.csv"
    tower = '"chain":{"prefix":[2],"rule":[2]},"base":-3'
    layers = '{"period":2,"values":[0,0.125]},{"period":4,"values":[0,1,2,3]}'
    for descriptor in (
        '{"kind":"remark",' + tower + ',"depth":2}',
        '{"kind":"metric",' + tower + ',"depth":2}',
        '{"kind":"layers",' + tower + ',"layers":[' + layers + "]}",
    ):
        code, _, err = run(capsys, "synth", "--potential", descriptor, "--nmin", "0", "--nmax", "1",
                           "--out", str(out))
        assert (code, err) == (0, "")
        assert json.loads((tmp_path / "pot.csv.manifest.json").read_text())["base_point"] == 1


def test_synth_of_layers_certifies_its_residual_bound(tmp_path, capsys):
    # the tolerance is the tower's own tail: an honest 1e-6 runs, and nothing else is asked for
    out = tmp_path / "pot.csv"
    layers = LAYERS + '},{"period":2,"values":[0.25,0]}],"residual_bound":1e-6}'
    code, _, err = run(capsys, "synth", "--potential", layers, "--nmin", "0", "--nmax", "3",
                       "--out", str(out))
    assert (code, err) == (0, "")
    assert [line.split(",")[1] for line in out.read_text().splitlines()[2:]] == [
        "0.75", "0.5", "0.75", "0.5"]
    assert json.loads((tmp_path / "pot.csv.manifest.json").read_text())["tolerance"] == 1e-6
    code, _, err = run(capsys, "synth", "--potential", layers[:-1] + ',"tol":1e-3}',
                       "--out", str(out))
    assert (code, err) == (2, "error: potential.tol: not a field of kind 'layers'\n")


def test_synth_memory_does_not_grow_with_the_window(tmp_path, capsys):
    # rows go to the file as they are read: a list of 200k rows is 18 MiB
    synth = ["synth", "--potential", REMARK, "--nmin", "1", "--nmax", "200000"]
    out = tmp_path / "pot.csv"
    assert traced_peak_mib(lambda: main(synth + ["--out", str(out)])) < 1.0
    lines = out.read_text().splitlines()
    last = sawtooth_value(chain_make([2], [2]), 6, 200_000).value
    assert len(lines) == 200_002 and lines[-1] == f"200000,{last!r}"


def test_ids_of_noise_memory_does_not_grow_with_the_size(tmp_path, capsys):
    # the sites are counted in chunks as they are drawn: a list of 200k is 6 MiB
    out = tmp_path / "ids.csv"
    ids = ["ids", "--potential", '{"kind":"iid","seed":11}', "--energy-min", "-1",
           "--energy-max", "1", "--energy-points", "3", "--size", "200000", "--out", str(out)]
    assert traced_peak_mib(lambda: main(ids)) < 1.0
    assert [row.split(",")[0] for row in out.read_text().splitlines()[2:]] == ["-1.0", "0.0", "1.0"]


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


@pytest.mark.parametrize("values", ["[1e200,-1e200]", "[1e300,-1e300]"])
def test_lyapunov_of_a_product_past_the_float_range_is_finite(tmp_path, capsys, values):
    # one step multiplies the entries by 1e300: the product rescales before it
    out = tmp_path / "lyap.csv"
    code, _, err = run(
        capsys, "lyapunov", "--potential", '{"kind":"periodic","values":%s}' % values,
        "--energy-min", "0", "--energy-max", "0", "--energy-points", "1",
        "--size", "10", "--out", str(out),
    )
    assert (code, err) == (0, "")
    row = out.read_text().splitlines()[2].split(",")
    assert float(row[1]) == pytest.approx(math.log(float(values[1:6])), rel=1e-12)


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


def test_an_entry_too_long_to_print_is_refused_at_its_field(capsys):
    # 2**14284 has 4300 decimal digits and 2**14285 has 4301, one past what
    # CPython 3.10.7 and later print by default; every version refuses it alike
    orbit = ("orbit", "--chain", DYADIC, "--k", "1", "--steps", "1")
    code, out, _ = run(capsys, *orbit, "--level", "14284")
    assert code == 0 and json.loads(out)["modulus"] == 2**14284
    # 2**14000 is accepted, but a classify certificate on it holds 2**28001 (a
    # witness, or the blocker on side a), refused at the chain it belongs to
    ruled = json.dumps({"prefix": [2], "rule": [2**14000]})
    classify = ("classify", "--chain", ruled, "--chain-b")
    too_long = (
        ("level", orbit + ("--level", "14285")),
        ("depth", ("maximal-chain", "--chain", DYADIC, "--depth", "14285")),
        ("chain", classify + (ruled,)),
        ("chain", classify + (json.dumps({"prefix": [2**14001]}),)),
        # a's entries stay printable, but b's third is in a backward pair
        ("chain_b", ("classify", "--chain", json.dumps({"prefix": [2], "rule": [2**2000]}),
                     "--chain-b", ruled)),
        # b's third entry, 2**28001, is the dyadic chain's 28,001st, and whole
        # rule cycles at a time reach it well within a second
        ("chain_b", ("classify", "--chain", DYADIC, "--chain-b", ruled)),
    )
    for field, argv in too_long:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {field}: ") and "more than 4300 decimal digits" in err


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


def test_condition_a_json_has_exactly_its_report_keys(capsys):
    code, out, _ = run(capsys, "condition-a", "--chain", DYADIC, "--depth", "6")
    assert code == 0
    assert set(json.loads(out)) == {
        "config_hash", "witness", "sup_log_ratio", "scope", "unbounded_trend", "log_ratios",
    }


def test_seed_validation(capsys):
    code, _, err = run(capsys, "gordon", "--potential", '{"kind":"iid"}', "--q", "2",
                       "--seed", "-1")
    assert code == 2
    assert "seed" in err


PERIODIC = '{"kind":"periodic","values":[0.5,-0.5]}'
TOWER = '{"kind":"remark","chain":{"prefix":[2],"rule":[2]}'  # close with the last field
# one layer over the chain [1, 2]; close the layer, the list and the object
LAYERS = '{"kind":"layers","chain":{"prefix":[1,2]},"layers":[{"period":1,"values":[0.5]'
# the rule ratio 2**89 - 1 is a prime too large to certify, so the order cannot be computed
UNFACTORABLE = '{"prefix":[2],"rule":[618970019642690137449562111]}'


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
        (("spectrum", "--potential", REMARK, "--level", "2", "--tol", "0"), "tol"),
        (("spectrum", "--potential", REMARK, "--level", "2", "--tol", "-1"), "tol"),
        (("spectrum", "--potential", REMARK, "--level", "2", "--tol", "inf"), "tol"),
        (("lyapunov", "--potential", PERIODIC, "--energy-min", "nan", "--energy-max", "1"),
         "energy_min"),
        (("orbit", "--chain", DYADIC, "--k", "1", "--level", "0", "--steps", "3"), "level"),
        (("orbit", "--chain", '{"prefix":[2,4]}', "--k", "1", "--level", "3", "--steps", "2"),
         "level"),
        (("quotient", "--chain", DYADIC, "--target", '{"prefix":[2,4]}', "--depth", "5"), "depth"),
        (("detect-frequency", "--potential", REMARK, "--q", "0"), "q"),
        (("detect-frequency", "--potential", REMARK, "--q", "2,8", "--window", "4"), "window"),
        (("lyapunov", "--potential", "[1]", "--energy-min", "0", "--energy-max", "0"),
         "potential"),
        (("synth", "--potential", TOWER + ',"depth":2.7}'), "potential.depth"),
        (("synth", "--potential", TOWER + ',"base":"3"}'), "potential.base"),
        (("synth", "--potential", TOWER + ',"depth":true}'), "potential.depth"),
        (("synth", "--potential", '{"kind":"periodic","values":[0,NaN]}'), "potential.values[1]"),
        (("synth", "--potential", '{"kind":"periodic","values":[Infinity]}'),
         "potential.values[0]"),
        (("synth", "--potential", '{"kind":"periodic","values":[1e999]}'), "potential.values[0]"),
        (("synth", "--potential", '{"kind":"layers","chain":{"prefix":[1,2]},"layers":'
          '[{"period":1,"values":[1e308]},{"period":2,"values":[1e308,0]}]}'), "potential"),
        (("synth", "--potential", PERIODIC, "--out", os.path.join(os.devnull, "u.csv")), "out"),
        (("synth", "--potential", '{"kind":"periodic","values":[1],"bogus":1}'), "potential.bogus"),
        (("synth", "--potential", TOWER + ',"depth":0}'), "potential.depth"),
        (("synth", "--potential", LAYERS + ',"x":1}]}'), "potential.layers[0].x"),
        (("synth", "--potential", LAYERS + '}],"tol":1e-9}'), "potential.tol"),
        (("synth", "--potential", LAYERS + '}],"residual_bound":-1}'), "potential.residual_bound"),
        (("synth", "--potential", '{"kind":"iid","seed":-5}'), "potential.seed"),
        (("lyapunov", "--potential", PERIODIC, "--energy-min", "abc", "--energy-max", "1"),
         "energy_min"),
        (("lyapunov", "--potential", PERIODIC, "--energy-min", "-1", "--energy-max", "1",
          "--size", "1.5"), "size"),
        (("spectrum", "--potential", TOWER + ',"depth":8}', "--level", "10"), "level"),
        (("orbit", "--chain", DYADIC, "--k", "1", "--level", "2", "--steps=--"), "steps"),
        (("classify", "--chain", UNFACTORABLE, "--chain-b", DYADIC), "chain"),
        (("classify", "--chain", DYADIC, "--chain-b", UNFACTORABLE), "chain_b"),
        (("quotient", "--chain", UNFACTORABLE, "--target", '{"prefix":[2,4]}'), "chain"),
        (("quotient", "--chain", DYADIC, "--target", UNFACTORABLE), "target"),
        (("maximal-chain", "--chain", UNFACTORABLE), "chain"),
        (("synth", "--potential", "[1]"), "potential"),
        (("synth", "--potential", '{"kind":"layers","chain":{"prefix":[1,2]},"layers":[1]}'),
         "potential.layers[0]"),
        (("synth", "--potential", PERIODIC, "--nmin", "5", "--nmax", "4"), "nmax"),
        (("lyapunov", "--potential", PERIODIC, "--energy-min", "-1e308", "--energy-max", "1e308"),
         "energy_max"),
        (("maximal-chain", "--chain", '{"prefix":[true,2],"rule":[2]}'), "chain.prefix"),
        (("synth", "--potential", '{"kind":"remark","chain":{"prefix":[1,2],"rule":[true]}}'),
         "potential.chain.rule"),
        (("gordon", "--potential", PERIODIC, "--q", ","), "q"),
        (("detect-frequency", "--potential", REMARK, "--q", ""), "q"),
        (("condition-a", "--chain", '{"prefix":2}'), "chain.prefix"),
        (("condition-a", "--chain", '{"rule":[2]}'), "chain.prefix"),
        (("condition-a", "--chain", '{"prefix":null,"rule":[2]}'), "chain.prefix"),
    ],
)
def test_zero_counts_are_rejected_not_defaulted(tmp_path, capsys, argv, field):
    # The default --out comes first, so a case's own --out wins.
    code, _, err = run(capsys, argv[0], "--out", str(tmp_path / "out"), *argv[1:])
    assert code == 2
    assert err.startswith(f"error: {field}:")


@pytest.mark.parametrize("text", [None, "{", "[1]"], ids=["missing", "invalid", "array"])
def test_a_config_file_that_is_no_object_is_a_config_error(tmp_path, capsys, text):
    conf = tmp_path / "run.json"
    if text is not None:
        conf.write_text(text)
    code, _, err = run(capsys, "classify", "--chain", DYADIC, "--chain-b", DYADIC,
                       "--config", str(conf))
    assert code == 2
    assert err.startswith("error: config:")


@pytest.mark.parametrize("pot", [PERIODIC, '{"kind":"iid"}'], ids=["periodic", "iid"])
def test_ids_checks_out_before_computing(capsys, monkeypatch, pot):
    def fail(*args):
        raise AssertionError("ids swept before checking --out")

    monkeypatch.setattr("limitper.cli.eigenvalue_count", fail)
    monkeypatch.setattr("limitper.spectral.eigenvalue_counts", fail)
    code, _, err = run(
        capsys, "ids", "--potential", pot, "--energy-min", "-1", "--energy-max", "1"
    )
    assert code == 2
    assert err.startswith("error: out:")


@pytest.mark.parametrize(
    "argv, field, value",
    [
        (("spectrum", "--potential", REMARK), "level", "3"),
        (("spectrum", "--potential", REMARK, "--level", "2"), "tol", "1e-9"),
        (("orbit", "--chain", DYADIC, "--level", "3", "--steps", "4"), "k", 1.5),
        (("orbit", "--chain", DYADIC, "--k", "3", "--level", "3"), "steps", True),
        (("lyapunov", "--potential", PERIODIC, "--energy-max", "1"), "energy_min", "-1"),
        (("lyapunov", "--potential", PERIODIC, "--energy-min", "-1"), "energy_max", None),
        (("ids", "--potential", PERIODIC, "--energy-min", "-1", "--energy-max", "1"),
         "energy_points", 2.0),
        (("ids", "--potential", PERIODIC, "--energy-min", "-1", "--energy-max", "1"),
         "size", "10"),
        (("detect-frequency", "--potential", REMARK, "--q", "1,2"), "window", [4096]),
        (("synth", "--potential", REMARK, "--nmax", "2"), "nmin", "-2"),
        (("synth", "--potential", REMARK, "--nmin", "-2"), "nmax", False),
        (("condition-a", "--chain", DYADIC), "depth", "6"),
        (("gordon", "--potential", PERIODIC), "q", 4),
        (("classify", "--chain-b", DYADIC), "chain", 2),
        (("synth", "--nmin", "0", "--nmax", "1"), "potential", True),
        (("gordon", "--potential", '{"kind":"iid"}', "--q", "2"), "seed", "7"),
        (("classify", "--chain", DYADIC, "--chain-b", DYADIC), "out", {"path": "x"}),
        pytest.param(("spectrum", "--potential", REMARK, "--level", "2"), "tol", 10**400,
                     id="argv17-tol-huge-int"),
        (("lyapunov", "--potential", PERIODIC, "--energy-max", "1"), "energy_min", math.inf),
        (("gordon", "--potential", PERIODIC), "q", [[1]]),
    ],
)
def test_config_file_values_are_type_checked(tmp_path, capsys, argv, field, value):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({field: value}))
    out = () if field == "out" else ("--out", str(tmp_path / "out"))
    code, _, err = run(capsys, *argv, *out, "--config", str(conf))
    assert code == 2
    if value is None:  # null leaves the field unset
        assert err == f"error: {field}: required for this command\n"
    else:
        assert err.startswith(f"error: {field}: expected ")


def test_config_file_ints_are_numbers(tmp_path, capsys):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"energy_min": -1, "energy_max": 1}))
    argv = ("lyapunov", "--potential", PERIODIC, "--energy-points", "3", "--size", "10")
    out = tmp_path / "lyap.csv"
    files = []
    for extra in (("--config", str(conf)), ("--energy-min", "-1", "--energy-max", "1")):
        assert run(capsys, *argv, "--out", str(out), *extra)[0] == 0
        files.append(out.read_bytes())
    assert files[0] == files[1]  # same resolved config, same hash and rows


def test_energy_grid_near_the_float_range_stays_inside_it(tmp_path, capsys):
    out = tmp_path / "ids.csv"
    code, stdout, _ = run(
        capsys, "ids", "--potential", PERIODIC, "--energy-min", "-8e307", "--energy-max", "8e307",
        "--energy-points", "3", "--size", "8", "--out", str(out),
    )
    assert code == 0
    rows = out.read_text().splitlines()[2:]
    assert [float(row.split(",")[0]) for row in rows] == [-8e307, 0.0, 8e307]
    assert sorted(r["E"] for r in json.loads(stdout)["worst_pairs"]) == [-4e307, 4e307]


@settings(max_examples=300, deadline=None)
@given(st.floats(-1.7e308, 1.7e308), st.floats(0.0, 1.7e308), st.integers(1, 1000))
def test_energy_grid_points_keep_their_bits_and_their_range(emin, width, steps):
    emax = emin + width
    assume(math.isfinite(emax) and emin <= emax and math.isfinite(emax - emin))
    grid = [_grid_point(emin, emax, i, steps) for i in range(steps + 1)]
    assert grid == sorted(grid)
    for i, e in enumerate(grid):
        span = (emax - emin) * i
        if math.isfinite(span):  # the plain expression, bit for bit
            assert e.hex() == (emin + span / steps).hex()
        else:
            assert emin <= e <= emax


@settings(max_examples=300, deadline=None)
@given(st.floats(-1.7e308, 1.7e308), st.floats(-1.7e308, 1.7e308), st.integers(2, 1000))
@example(0.1, 0.3, 101)  # the plain expression ends on 0.30000000000000004
@example(-2.5, 2.9, 201)  # ... and on 2.9000000000000004
@example(0.2, 0.9, 101)  # ... and on 0.8999999999999999
def test_energy_grid_runs_from_energy_min_to_energy_max(a, b, points):
    emin, emax = sorted((a, b))
    assume(math.isfinite(emax - emin))
    config = ExperimentConfig(energy_min=emin, energy_max=emax, energy_points=points)
    grid = _energy_grid(config)
    assert len(grid) == points and grid[0] == emin and grid[-1] == emax
    assert grid == sorted(grid) and emin <= grid[-2] <= emax


def test_single_energy_point_still_checks_range(tmp_path, capsys):
    code, _, err = run(
        capsys, "ids", "--potential", PERIODIC, "--energy-min", "1", "--energy-max", "-1",
        "--energy-points", "1", "--out", str(tmp_path / "ids.csv"),
    )
    assert code == 2
    assert err.startswith("error: energy_max:")


@pytest.mark.parametrize("command", ["ids", "lyapunov"])
def test_single_energy_point_needs_equal_ends(tmp_path, capsys, command):
    # one point cannot run from energy_min to energy_max; it used to drop energy_max
    out = tmp_path / "sweep.csv"
    code, _, err = run(
        capsys, command, "--potential", PERIODIC, "--energy-min", "0", "--energy-max", "1",
        "--energy-points", "1", "--out", str(out),
    )
    assert code == 2
    assert err.startswith("error: energy_max:")
    assert not out.exists()


def test_config_file_rejects_fields_the_command_does_not_take(tmp_path, capsys):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"tol": 5.0, "size": 7}))
    code, _, err = run(
        capsys, "orbit", "--chain", DYADIC, "--k", "1", "--level", "2", "--steps", "3",
        "--config", str(conf),
    )
    assert code == 2
    assert err == "error: config.tol: not a field of orbit\n"


def test_default_and_explicit_value_give_identical_bytes(tmp_path, capsys):
    out = tmp_path / "ids.csv"
    argv = ("ids", "--potential", PERIODIC, "--energy-min", "-1", "--energy-max", "1",
            "--energy-points", "3", "--out", str(out))
    files = []
    for extra in ((), ("--size", "10000")):
        assert run(capsys, *argv, *extra)[0] == 0
        files.append(out.read_bytes())
    assert files[0] == files[1]  # the default is part of the hashed config


def test_identical_configs_give_identical_bytes_under_any_hash_seed(tmp_path):
    # PYTHONHASHSEED changes str hashes, and so the order of a set of str,
    # from process to process; identical configs still give identical bytes
    calls = (
        ("classify", "--chain", '{"prefix":[6,30],"rule":[77]}',
         "--chain-b", '{"prefix":[210],"rule":[11,7]}'),
        ("maximal-chain", "--chain", '{"prefix":[2,60],"rule":[210]}', "--depth", "8"),
        ("quotient", "--chain", '{"prefix":[6],"rule":[6,35]}', "--target", '{"prefix":[2,6]}'),
        ("gordon", "--potential", '{"kind":"iid"}', "--q", "2,3,4"),
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = tmp_path / "out.json"
    for argv in calls:
        runs = []
        for hash_seed in ("0", "1"):
            out.unlink(missing_ok=True)
            env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed}
            done = subprocess.run(
                [sys.executable, "-m", "limitper.cli", *argv, "--out", str(out)],
                capture_output=True, env=env, check=True,
            )
            runs.append((done.stdout, out.read_bytes()))
        assert runs[0] == runs[1], argv[0]


# Objects for the chain and potential fields, valid and broken.  Finite chains
# keep every tower small and the one ruled chain is only read to depth 4
# (period 16), so every drawn config runs in milliseconds.
FINITE_CHAINS = [{"prefix": [1, 2, 4]}, {"prefix": [2, 6]}, {"prefix": [3]}]
RULED_CHAIN = {"prefix": [2], "rule": [2]}
BROKEN_CHAINS = [{"prefix": [2, 3]}, {"rule": [2]}, {"prefix": []}, {"prefix": [2], "rule": [1]},
                 {"prefix": ["2"]}, {"prefix": 2}, {}]

small_ints = st.integers(-3, 24)
floats = st.one_of(st.sampled_from([0.0, 0.5, -2.5, 1e-9, 1e308, -1e308]),
                   st.floats(allow_nan=False, allow_infinity=False))
words = st.text("ab,12-", max_size=4)
scalars = st.one_of(small_ints, floats, st.booleans(), words, st.none())
chains = st.sampled_from(FINITE_CHAINS + [RULED_CHAIN]) | st.sampled_from(BROKEN_CHAINS)
odd = st.sampled_from([2.7, True, "3", None, [1]])


def _tower(chain, depth):
    return st.fixed_dictionaries(
        {"kind": st.sampled_from(["remark", "metric"]), "chain": chain, "depth": depth | odd},
        optional={"base": small_ints | odd, "generator": small_ints | odd},
    )


def _layer(j):
    n = 2**j  # the periods of FINITE_CHAINS[0]
    return st.fixed_dictionaries({
        "period": st.just(n) | odd,
        "values": st.lists(floats, min_size=n, max_size=n) | st.lists(floats, max_size=3) | odd,
    })


potentials = st.one_of(
    _tower(st.sampled_from(FINITE_CHAINS + BROKEN_CHAINS), st.integers(-3, 10)),
    _tower(st.just(RULED_CHAIN), st.integers(-3, 4)),
    st.fixed_dictionaries(
        {"kind": st.just("layers"), "chain": st.just(FINITE_CHAINS[0]),
         "layers": st.integers(0, 3).flatmap(
             lambda d: st.tuples(*(_layer(j) for j in range(d))).map(list)) | odd},
        optional={"base": small_ints | odd, "generator": small_ints | odd,
                  "residual_bound": floats | odd},
    ),
    st.fixed_dictionaries({"kind": st.just("periodic"),
                           "values": st.lists(floats | odd, max_size=4) | odd}),
    st.fixed_dictionaries({"kind": st.just("iid")},
                          optional={"seed": small_ints | odd, "low": floats | odd,
                                    "high": floats | odd}),
    st.fixed_dictionaries({}, optional={"kind": words | st.none()}),
)

# Cheap valid flags for every required field; the drawn config file overrides them.
SMALL = '{"kind":"remark","chain":{"prefix":[2],"rule":[2]},"depth":4}'
SWEEP = ("--potential", SMALL, "--energy-min", "-1", "--energy-max", "1",
         "--energy-points", "2", "--size", "8")
BASE_FLAGS = {
    "classify": ("--chain", DYADIC, "--chain-b", TRIADIC),
    "maximal-chain": ("--chain", DYADIC),
    "synth": ("--potential", SMALL, "--out", "v.csv"),
    "detect-frequency": ("--potential", SMALL, "--q", "2,4", "--window", "24"),
    "orbit": ("--chain", '{"prefix":[2,4,8]}', "--k", "3", "--level", "3", "--steps", "4"),
    "quotient": ("--chain", DYADIC, "--target", '{"prefix":[2,4]}'),
    "spectrum": ("--potential", SMALL, "--level", "2"),
    "ids": SWEEP + ("--out", "ids.csv"),
    "lyapunov": SWEEP,
    "gordon": ("--potential", SMALL, "--q", "2,4"),
    "condition-a": ("--chain", DYADIC),
}


def _field_values(name, wild):
    """Values of the field's type, in its range unless the field is wild."""
    kind, bound = _FIELDS[name]
    fits = bound[0] if bound and not wild else (lambda v: True)
    if kind in ("chain", "potential"):
        objects = potentials if name == "potential" else chains
        own = objects | objects.map(json.dumps)
    elif kind == "ints":
        own = st.lists(small_ints, max_size=4).filter(fits)
        own = own | own.map(lambda q: ",".join(map(str, q)))
    else:
        own = {"int": small_ints, "number": floats, "path": words.filter(bool)}[kind].filter(fits)
    if not wild:
        return own
    if name in ("size", "energy_points", "window"):
        # null would restore a default of up to 100,000 sites
        return st.one_of(own, floats, st.booleans(), words, st.lists(small_ints, max_size=2))
    return st.one_of(own, scalars, st.lists(small_ints, max_size=2), chains)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_config_file_exits_0_or_2_with_a_field_error(tmp_path, monkeypatch, capsys, data):
    """CLI input contract: no config file ends in a traceback or exit code 1."""
    command = data.draw(st.sampled_from(sorted(_COMMANDS)))
    fields = _COMMANDS[command][1]
    wild = data.draw(st.sets(st.sampled_from(sorted(fields)), max_size=2))
    conf = data.draw(st.fixed_dictionaries(
        {}, optional={name: _field_values(name, name in wild) for name in fields}))
    unknown = None
    if data.draw(st.integers(0, 4)) == 3:
        unknown = data.draw(st.sampled_from(sorted(set(_FIELDS) - set(fields)) + ["nmxa"]))
        conf[unknown] = 1
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    work = tmp_path / "work"
    work.mkdir(exist_ok=True)
    monkeypatch.chdir(work)
    code, _, err = run(capsys, command, *BASE_FLAGS[command], "--config", str(path))
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("error: ")
    if unknown is not None:
        assert err.startswith(f"error: config.{unknown}: not a field of {command}")


STRAY_TEXT = st.sampled_from(["abc", "1.5", "1e999", "nan", "-inf", "-1e308", "", " 7", "[1]",
                              "{}", "2,x", "true", "null", "0x10", "--"])


def _flag_text(name):
    """Text for the flag of field ``name``: a value of any type written out, or stray text."""
    values = _field_values(name, wild=True)
    return st.one_of(values.map(lambda v: v if isinstance(v, str) else json.dumps(v)),
                     STRAY_TEXT, words)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_flag_text_exits_0_or_2_with_a_field_error(tmp_path, monkeypatch, capsys, data):
    """CLI input contract: flag text is typed by the field rules, like a config file.

    Flags are passed as ``--name=text`` so that text starting with "-" is a value.
    """
    command = data.draw(st.sampled_from(sorted(_COMMANDS)))
    names = data.draw(st.lists(st.sampled_from(sorted(_COMMANDS[command][1])), max_size=3))
    flags = [f"--{name.replace('_', '-')}={data.draw(_flag_text(name))}" for name in names]
    work = tmp_path / "work"
    work.mkdir(exist_ok=True)
    monkeypatch.chdir(work)
    code, _, err = run(capsys, command, *BASE_FLAGS[command], *flags)
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("error: ")


def _readme_commands():
    """Every ``limitper ...`` line of README's sh blocks, as argv after the program name."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["limitper"]:
                commands.append(argv[1:])
    return commands


def test_readme_commands_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the examples write their --out files here
    commands = _readme_commands()
    assert commands
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_readme_library_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


RUN_SEED = "the run's `seed`"  # how the README names an iid object's default seed


def test_readme_lists_every_potential_kind_with_its_fields():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    objects = {f"`{kind}`": fields for kind, (_, fields) in _POTENTIALS.items()}
    objects["a layer (an entry of `layers`)"] = _LAYER
    for name, fields in objects.items():
        required = ", ".join(f"`{f}`" for f, d in fields.items() if d is REQUIRED)
        defaults = ", ".join(f"`{f}` ({RUN_SEED if d is None else repr(d)})"
                             for f, d in fields.items() if d is not REQUIRED)
        assert f"| {name} | {required} | {defaults} |" in readme


@pytest.mark.parametrize("argv", [
    ("ids", "--potential", PERIODIC, "--energy-min", "-1e308", "--energy-max", "1",
     "--energy-points", "2", "--size", "8"),
    ("lyapunov", "--potential", PERIODIC, "--energy-min", "-1e3", "--energy-max", "-1E-3",
     "--energy-points", "2", "--size", "8"),
    ("synth", "--potential", PERIODIC, "--nmin", "-2e0", "--nmax", "2"),
])
def test_negative_exponent_after_a_space_is_a_value(tmp_path, capsys, argv):
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    if argv[0] == "synth":  # read as a value, then typed: an int field takes no exponent
        assert (code, err) == (2, 'error: nmin: expected an integer, got "-2e0"\n')
    else:
        assert (code, err) == (0, "")


def test_negative_exponent_value_gives_the_bytes_of_the_equals_form(tmp_path, capsys):
    files = []
    out = tmp_path / "ids.csv"  # one path: the out field is hashed too
    for flag in (["--energy-min", "-1e3"], ["--energy-min=-1e3"]):
        argv = ["ids", "--potential", PERIODIC, *flag, "--energy-max", "1", "--size", "8"]
        assert run(capsys, *argv, "--out", str(out))[0] == 0
        files.append(out.read_bytes())
    assert files[0] == files[1]


@pytest.mark.parametrize("follower", ["--energy-max", "--size", "-h"])
def test_a_flag_followed_by_a_real_flag_is_still_an_error(capsys, follower):
    argv = ["lyapunov", "--potential", PERIODIC, "--energy-min", follower, "1",
            "--energy-max", "1"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "--energy-min: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1", "-1e3"])
def test_an_abbreviated_flag_is_refused_whatever_its_value(capsys, value):
    argv = ["lyapunov", "--potential", PERIODIC, "--energy-mi", value, "--energy-max", "1",
            "--energy-points", "1", "--size", "8"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: --energy-mi {value}" in capsys.readouterr().err


def test_one_run_prints_one_hash_however_it_is_spelled(tmp_path, capsys):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"chain": RULED_CHAIN}))
    spellings = [("--chain", '{"prefix": [2], "rule": [2]}'), ("--chain", DYADIC),
                 ("--config", str(conf))]
    hashes = {json.loads(run(capsys, "condition-a", *flags)[1])["config_hash"]
              for flags in spellings}
    assert len(hashes) == 1
    ruleless = {json.loads(run(capsys, "condition-a", "--chain", chain)[1])["config_hash"]
                for chain in ('{"prefix":[2,4]}', '{"prefix":[2,4],"rule":[]}')}
    assert len(ruleless) == 1  # an omitted rule is hashed as its default []
    towers = [TOWER + "}", TOWER + ',"depth":8,"base":0}', TOWER + ',"depth":7}']
    bare, explicit, shallower = (
        json.loads(run(capsys, "spectrum", "--potential", pot, "--level", "3")[1])["config_hash"]
        for pot in towers)
    assert bare == explicit != shallower  # a changed value changes the hash


# Valid potentials and chains whose runs take milliseconds.
tower_potentials = st.fixed_dictionaries(
    {"kind": st.sampled_from(["remark", "metric"]), "chain": st.just(RULED_CHAIN),
     "depth": st.integers(1, 4)},
    optional={"base": small_ints, "generator": small_ints},
)
valid_potentials = st.one_of(
    tower_potentials,
    st.fixed_dictionaries(
        {"kind": st.just("layers"), "chain": st.just({"prefix": [1, 2]}),
         "layers": st.just([{"period": 1, "values": [0.5]}, {"period": 2, "values": [0.25, 0.0]}])},
        optional={"base": small_ints, "generator": small_ints,
                  "residual_bound": st.just(1e-10)},
    ),
    st.fixed_dictionaries({"kind": st.just("periodic"),
                           "values": st.lists(st.floats(-2, 2), min_size=1, max_size=4)}),
    st.fixed_dictionaries({"kind": st.just("iid")},
                          optional={"seed": small_ints.filter(lambda s: s >= 0),
                                    "low": st.just(-1.0), "high": st.just(2.0)}),
)
TWO_RULE_CHAIN = {"prefix": [2, 4], "rule": [3, 2]}
valid_chains = st.sampled_from(FINITE_CHAINS + [RULED_CHAIN, TWO_RULE_CHAIN])
two_ratio_chains = st.sampled_from([{"prefix": [2, 6]}, RULED_CHAIN, TWO_RULE_CHAIN])
hashed_runs = st.one_of(
    st.fixed_dictionaries({"potential": valid_potentials, "nmin": st.integers(-3, 0),
                           "nmax": st.integers(0, 3)}, optional={"seed": st.integers(0, 9)})
    .map(lambda conf: ("synth", conf)),
    st.fixed_dictionaries({"potential": tower_potentials, "level": st.just(1)})
    .map(lambda conf: ("spectrum", conf)),
    st.fixed_dictionaries({"chain": two_ratio_chains, "depth": st.just(2)})
    .map(lambda conf: ("condition-a", conf)),
    st.fixed_dictionaries({"chain": valid_chains, "chain_b": valid_chains})
    .map(lambda conf: ("classify", conf)),
)
SPACINGS = [(",", ":"), (", ", ": "), (" ,", " : ")]


def _respelled(draw, value):
    """``value`` with the keys of every object in a drawn order."""
    if isinstance(value, dict):
        return {key: _respelled(draw, value[key]) for key in draw(st.permutations(list(value)))}
    if isinstance(value, list):
        return [_respelled(draw, entry) for entry in value]
    return value


def _as_text(draw, value):
    return json.dumps(_respelled(draw, value), indent=draw(st.sampled_from([None, 0, 2])),
                      separators=draw(st.sampled_from(SPACINGS)))


def _with_defaults(draw, obj, fields):
    """``obj`` with a drawn set of the defaults of ``fields`` made explicit."""
    defaults = {k: d for k, d in fields.items() if d is not REQUIRED}
    added = draw(st.sets(st.sampled_from(sorted(defaults)))) if defaults else set()
    return {**obj, **{k: defaults[k] for k in added if k not in obj}}


def _variant(draw, conf):
    """``conf`` respelled: JSON reserialized, defaults made explicit, fields moved to the file."""
    conf = {name: _with_defaults(draw, value, _CHAIN) if _FIELDS[name][0] == "chain" else value
            for name, value in conf.items()}
    pot = conf.get("potential")
    if pot is not None:
        pot = _with_defaults(draw, pot, _POTENTIALS[pot["kind"]][1])
        if "chain" in pot:
            pot["chain"] = _with_defaults(draw, pot["chain"], _CHAIN)
            if draw(st.booleans()):  # a potential's chain may be JSON text too
                pot["chain"] = _as_text(draw, pot["chain"])
        conf["potential"] = pot
    flags, file_conf = [], {}
    for name, value in conf.items():
        as_json = _FIELDS[name][0] in ("chain", "potential")
        if draw(st.booleans()):
            file_conf[name] = _as_text(draw, value) if as_json and draw(st.booleans()) else value
        else:
            text = _as_text(draw, value) if as_json else str(value)
            flags += [f"--{name.replace('_', '-')}", text]
    return flags, file_conf


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_respelled_config_gives_the_same_bytes(tmp_path, monkeypatch, capsys, data):
    """JSON spacing and key order, explicit defaults and flag or file do not reach the hash."""
    command, conf = data.draw(hashed_runs)
    work = tmp_path / "work"
    work.mkdir(exist_ok=True)
    monkeypatch.chdir(work)
    outputs = []
    for flags, file_conf in [([], conf)] + [_variant(data.draw, conf) for _ in range(3)]:
        for old in work.iterdir():
            old.unlink()
        (tmp_path / "run.json").write_text(json.dumps(file_conf))
        code, _, err = run(capsys, command, *flags, "--out", "out",
                           "--config", str(tmp_path / "run.json"))
        assert (code, err) == (0, "")
        outputs.append({p.name: p.read_bytes() for p in sorted(work.iterdir())})
    assert all(files == outputs[0] for files in outputs[1:])


@pytest.mark.parametrize("argv, field", [
    (("condition-a", "--chain", '{"prefix":[2],"rule":[2],"rulez":[3]}'), "chain.rulez"),
    (("classify", "--chain", DYADIC, "--chain-b", '{"prefix":[3],"Rule":[3]}'), "chain_b.Rule"),
    (("quotient", "--chain", DYADIC, "--target", '{"prefix":[2,4],"step":2}'), "target.step"),
    (("synth", "--potential", '{"kind":"remark","chain":{"prefix":[2],"rule":[2],"x":1}}'),
     "potential.chain.x"),
])
def test_an_unknown_chain_key_is_refused_at_its_path(tmp_path, capsys, argv, field):
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 2
    assert err == f"error: {field}: not a field of a chain\n"


@pytest.mark.parametrize("chain", ['{"prefix":[2,12,24]}', '{"prefix":[2,12],"rule":[6,2]}'])
def test_a_maximal_chain_fed_back_gives_the_same_chain(capsys, chain):
    code, out, _ = run(capsys, "maximal-chain", "--chain", chain)
    assert code == 0
    refined = json.loads(out)["chain"]
    code, again, _ = run(capsys, "maximal-chain", "--chain", json.dumps(refined))
    assert code == 0
    assert json.loads(again)["chain"] == refined
