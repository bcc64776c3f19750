"""Check the files each benchmark CLI call wrote against ``oracle``.

Tolerances come from tolerances.json next to this file; README.md explains
each one.  A check returns a list of problems, empty when the output passed.
"""

import csv
import json
import random
from array import array
from pathlib import Path

import oracle
from workloads import GORDON_Q, IDS_POINTS, MODULI, PERIOD, SWEEP_SIZE, SYNTH_HALF

TOLERANCES = json.loads((Path(__file__).with_name("tolerances.json")).read_text())
IDS_CHECKED = 8  # seeded subset of the ids energies recounted by the oracle
IID_LYAPUNOV_CHECKED = 2  # seeded subset of iid energies redone by direct product


def _csv_rows(path, header):
    """Data rows of a CLI CSV, streamed from disk after checking its two header lines."""
    with open(path, newline="") as fh:
        if not fh.readline().startswith("# config_hash="):
            raise ValueError("missing config_hash line")
        rows = csv.reader(fh)
        first = next(rows, None)
        if first != header:
            raise ValueError(f"header {first} is not {header}")
        yield from rows


def _json(path):
    with open(path) as fh:
        return json.load(fh)


class Checker:
    """Checks one workload's outputs; also collects ``gaps_missed`` per level."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.tol = TOLERANCES
        self.gaps = {}
        rng = random.Random(f"check:{inputs.seed}")
        self.ids_subset = sorted(rng.sample(range(IDS_POINTS), IDS_CHECKED))
        lyap = [c for c in inputs.calls if c.argv[0] == "lyapunov" and c.kind == "iid"]
        self.iid_lyapunov = {
            c.params["E"] for c in rng.sample(lyap, min(IID_LYAPUNOV_CHECKED, len(lyap)))
        }
        self._window = {}

    def value(self, kind):
        """V(n) of ``kind`` from its closed form (one period for the towers)."""
        if kind == "iid":
            seed = self.inputs.iid_seed
            return lambda n: oracle.iid_value(seed, n)
        base = self.inputs.base
        table = [oracle.tower_value(kind, MODULI, base + n) for n in range(PERIOD)]
        return lambda n: table[n % PERIOD]

    def window(self, kind):
        """V(1..N) of the sweeps, stored compactly so checking adds little memory."""
        if kind not in self._window:
            V = self.value(kind)
            self._window[kind] = array("d", map(V, range(1, SWEEP_SIZE + 1)))
        return self._window[kind]

    def check(self, call, files, stdout):
        """Problems with one call's output files (name -> path) and its stdout text."""
        try:
            return getattr(self, "_" + call.argv[0])(call, files, stdout)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]

    def _spectrum(self, call, files, stdout):
        data = _json(files[call.out])
        level = call.params["level"]
        p = 2**level
        problems = []
        if data["level"] != level or data["period"] != p or "config_hash" not in data:
            problems.append("level, period or config_hash wrong")
        tail = oracle.sawtooth_tail(level)
        if abs(data["tail_bound"] - tail) > self.tol["tail_rel"] * tail:
            problems.append(f"tail_bound {data['tail_bound']} != {tail}")
        vals = [oracle.tower_value("remark", MODULI[:level], self.inputs.base + n) for n in range(p)]
        bad, missed, widest = oracle.audit_bands(
            vals, [tuple(b) for b in data["bands"]], self.tol["band_edge"], self.tol["gap_min_width"]
        )
        self.gaps[level] = (missed, widest, len(data["bands"]))
        return problems + bad

    def _lyapunov(self, call, files, stdout):
        rows = list(_csv_rows(files[call.out], ["E", "lyapunov", "N"]))
        E = call.params["E"]
        if len(rows) != 1 or float(rows[0][0]) != E or int(rows[0][2]) != SWEEP_SIZE:
            return [f"rows {rows} do not match E={E}, N={SWEEP_SIZE}"]
        got = float(rows[0][1])
        if call.kind == "iid":
            if E not in self.iid_lyapunov:
                return []
            want = oracle.lyapunov_direct(self.window("iid"), E)
        else:
            V = self.value(call.kind)
            want = oracle.lyapunov_periodic([V(n) for n in range(1, PERIOD + 1)], E, SWEEP_SIZE)
        if abs(got - want) > self.tol["lyapunov_abs"]:
            return [f"lyapunov at E={E}: {got} != {want}"]
        return []

    def _ids(self, call, files, stdout):
        rows = list(_csv_rows(files[call.out], ["E", "ids"]))
        lo, hi = call.params["lo"], call.params["hi"]
        problems = []
        if len(rows) != IDS_POINTS:
            return [f"{len(rows)} ids rows, expected {IDS_POINTS}"]
        energies = [float(r[0]) for r in rows]
        values = [float(r[1]) for r in rows]
        for i, e in enumerate(energies):
            if abs(e - (lo + (hi - lo) * i / (IDS_POINTS - 1))) > self.tol["energy_abs"]:
                problems.append(f"ids energy {i} is {e}")
        if any(b < a for a, b in zip(values, values[1:])) or not 0.0 <= values[0] <= values[-1] <= 1.0:
            problems.append("ids values not monotone in [0, 1]")
        window = self.window(call.kind)
        for i in self.ids_subset:
            want = oracle.sturm_count(window, energies[i])
            if abs(values[i] * SWEEP_SIZE - want) > self.tol["ids_count"]:
                problems.append(f"ids at E={energies[i]}: {values[i]} != {want}/{SWEEP_SIZE}")
        report = json.loads(stdout)
        if "config_hash" not in report or not isinstance(report["max_log_holder"], float):
            problems.append("ids modulus report malformed")
        return problems

    def _synth(self, call, files, stdout):
        rows = _csv_rows(files[call.out], ["n", "value"])
        manifest = _json(files[call.out + ".manifest.json"])
        problems = []
        if manifest["kind"] != call.kind or manifest["window"] != [-SYNTH_HALF, SYNTH_HALF]:
            problems.append("manifest kind or window wrong")
        V = self.value(call.kind)
        want_n, bad = -SYNTH_HALF, []
        for n, v in rows:
            if int(n) != want_n:
                return problems + [f"synth row for n={n}, expected n={want_n}"]
            if abs(float(v) - V(want_n)) > self.tol["synth_abs"]:
                bad.append(want_n)
            want_n += 1
        if want_n != SYNTH_HALF + 1:
            problems.append(f"synth rows end before n={SYNTH_HALF}")
        if bad:
            problems.append(f"{len(bad)} synth values wrong, first at n={bad[0]}")
        return problems

    def _gordon(self, call, files, stdout):
        data = _json(files[call.out])
        margins = data["margins"]
        if [m["q"] for m in margins] != GORDON_Q or "config_hash" not in data:
            return ["gordon scales or config_hash wrong"]
        V = self.value(call.kind)
        problems = []
        for m in margins:
            want = oracle.gordon_max_diff(V, m["q"])
            if abs(m["max_diff"] - want) > self.tol["gordon_abs"]:
                problems.append(f"gordon q={m['q']}: max_diff {m['max_diff']} != {want}")
        if data["passed"] != all(m["passed"] for m in margins):
            problems.append("gordon verdict disagrees with its margins")
        return problems
