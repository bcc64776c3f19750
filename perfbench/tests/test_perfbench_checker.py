"""Self-tests for the benchmark's checker and interlacing oracle.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from limitper import cli  # noqa: E402

EDGE = checks.TOLERANCES["band_edge"]
GAP = checks.TOLERANCES["gap_min_width"]


def _run(call, tmp_path):
    stdout = io.StringIO()
    out = tmp_path / call.out
    with contextlib.redirect_stdout(stdout):
        assert cli.main(call.argv + ["--out", str(out)]) == 0
    return {out.name: out}, stdout.getvalue()


def _rewrite(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    edit(lines)
    path.write_text("".join(lines))


@pytest.fixture(scope="module")
def sweeps():
    return workloads.make("sweeps", 7)


def test_checker_flags_corrupted_lyapunov_row(sweeps, tmp_path):
    call = next(c for c in sweeps.calls if c.op == "tower.lyapunov")
    checker = checks.Checker(sweeps)
    files, stdout = _run(call, tmp_path)
    assert checker.check(call, files, stdout) == []

    def corrupt(lines):
        e, value, n = lines[2].strip().split(",")
        lines[2] = f"{e},{float(value) + 1e-6!r},{n}\n"

    _rewrite(files[call.out], corrupt)
    assert any("lyapunov at E=" in p for p in checker.check(call, files, stdout))


def test_checker_flags_shifted_ids_value(sweeps, tmp_path):
    call = next(c for c in sweeps.calls if c.op == "tower.ids")
    checker = checks.Checker(sweeps)
    files, stdout = _run(call, tmp_path)
    assert checker.check(call, files, stdout) == []
    row = 2 + checker.ids_subset[0]

    def shift(lines):
        e, value = lines[row].strip().split(",")
        lines[row] = f"{e},{float(value) + 3 / workloads.SWEEP_SIZE!r}\n"

    _rewrite(files[call.out], shift)
    assert any("ids at E=" in p for p in checker.check(call, files, stdout))


def test_checker_flags_dropped_band(tmp_path):
    inputs = workloads.make("spectrum-levels", 3)
    call = inputs.calls[0]
    checker = checks.Checker(inputs)
    files, stdout = _run(call, tmp_path)
    assert checker.check(call, files, stdout) == []
    path = files[call.out]
    data = json.loads(path.read_text())
    del data["bands"][len(data["bands"]) // 2]
    path.write_text(json.dumps(data))
    assert any("is missing" in p for p in checker.check(call, files, stdout))


def _exact_bands_p2(b):
    top = math.sqrt(b * b + 4.0)
    return [(-top, -b), (b, top)]


@pytest.mark.parametrize("b", [0.25, 1.0, 3.0])
def test_gaps_missed_zero_on_period_two(b):
    vals = [b, -b]
    problems, missed, _ = oracle.audit_bands(vals, _exact_bands_p2(b), EDGE, GAP)
    assert problems == [] and missed == 0
    # The same potential with its one open gap merged away is one miss.
    top = math.sqrt(b * b + 4.0)
    assert oracle.audit_bands(vals, [(-top, top)], EDGE, GAP)[1] == 1


@pytest.mark.parametrize("b", [0.0, 0.5])
def test_gaps_missed_zero_on_period_four_with_closed_gaps(b):
    # (b, -b, b, -b) read with period 4: the period-2 gap is open (or closed at
    # b = 0) and the two new period-4 gaps are closed, so the two period-2
    # bands are the whole answer and no gap is missed.
    vals = [b, -b, b, -b]
    bands = _exact_bands_p2(b) if b else [(-2.0, 2.0)]
    problems, missed, _ = oracle.audit_bands(vals, bands, EDGE, GAP)
    assert problems == [] and missed == 0


def test_gaps_missed_zero_on_generic_period_four():
    np = pytest.importorskip("numpy")
    vals = [0.3, -0.2, 0.5, 0.1]
    p = len(vals)
    edges = []
    for phase in (1.0, -1.0):
        h = np.diag(vals) + np.diag(np.ones(p - 1), 1) + np.diag(np.ones(p - 1), -1)
        h[0, p - 1] = h[p - 1, 0] = phase
        edges.extend(np.linalg.eigvalsh(h))
    edges.sort()
    bands = [(float(edges[2 * i]), float(edges[2 * i + 1])) for i in range(p)]
    problems, missed, _ = oracle.audit_bands(vals, bands, EDGE, GAP)
    assert problems == [] and missed == 0
    merged = bands[:1] + [(bands[1][0], bands[2][1])] + bands[3:]
    assert oracle.audit_bands(vals, merged, EDGE, GAP)[1] == 1


def test_periodic_lyapunov_matches_direct_product():
    period = [oracle.tower_value("remark", workloads.MODULI, 5 + n) for n in range(1, 257)]
    values = [period[(n - 1) % 256] for n in range(1, 5001)]
    for E in (-2.4, 0.3, 1.0, 2.8):
        assert oracle.lyapunov_periodic(period, E, 5000) == pytest.approx(
            oracle.lyapunov_direct(values, E), abs=1e-12
        )
