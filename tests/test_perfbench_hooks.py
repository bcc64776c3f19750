"""The traced benchmark run patches library names; they must stay patchable.

``perfbench/tracing.py`` swaps ``Potential.value``, ``level_values``,
``spectral.discriminant``, ``cli.eigenvalue_count`` and other names for
counting wrappers.  A refactor that drops one of them would otherwise fail
only the traced benchmark run, so one small ``synth`` and one small
``spectrum`` call run here inside the tracer.
"""

import sys
from pathlib import Path

import limitper
import limitper.cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

REMARK = '{"kind":"remark","chain":{"prefix":[2],"rule":[2]},"depth":4,"base":5}'


def test_traced_calls_reach_the_patched_names(tmp_path, capsys):
    tracer = tracing.Tracer()
    with tracer.installed(limitper):
        synth = ["synth", "--potential", REMARK, "--nmin", "-4", "--nmax", "4"]
        assert limitper.cli.main(synth + ["--out", str(tmp_path / "v.csv")]) == 0
        spectrum = ["spectrum", "--potential", REMARK, "--level", "3"]
        assert limitper.cli.main(spectrum + ["--out", str(tmp_path / "s.json")]) == 0
    assert capsys.readouterr().err == ""
    assert tracer.counts["potential.value_calls"] > 0
    assert tracer.counts["spectral.discriminant_calls"] > 0


def test_traced_sweeps_record_the_library_spans(tmp_path, capsys):
    # spectral.sturm_sites and potential.window_s are read from these spans.
    tracer = tracing.Tracer()
    sweep = ["--potential", REMARK, "--energy-min", "-1", "--energy-max", "1",
             "--energy-points", "2", "--size", "16"]
    with tracer.installed(limitper):
        assert limitper.cli.main(["ids", *sweep, "--out", str(tmp_path / "ids.csv")]) == 0
        assert limitper.cli.main(["lyapunov", *sweep, "--out", str(tmp_path / "l.csv")]) == 0
    assert capsys.readouterr().err == ""
    names = {span[0] for span in tracer.spans}
    assert {"potential.build", "spectral.eigenvalue_count", "spectral.lyapunov_estimate"} <= names
