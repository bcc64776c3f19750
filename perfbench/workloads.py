"""Seeded workload inputs for the limitper benchmark.

A workload is a fixed list of ``limitper`` CLI calls (one pass).  The seed
picks the tower base point, the energy grids and the iid seed; the program
only ever sees the generated argv.  Why each workload exists is written down
in README.md next to this file.
"""

import json
import random
from dataclasses import dataclass, field

CHAIN = {"prefix": [2], "rule": [2]}
DEPTH = 8
MODULI = [2**j for j in range(1, DEPTH + 1)]
PERIOD = MODULI[-1]
LEVELS = (6, 7, 8)
LYAPUNOV_ENERGIES = 8
SWEEP_SIZE = 100_000
IDS_POINTS = 201
SYNTH_HALF = 32_768  # synth covers n = -32768..32768, 65,537 sites
GORDON_Q = [2**i for i in range(1, 14)]
TOWER_KINDS = ("remark", "metric", "layers")

WORKLOADS = ("spectrum-levels", "sweeps")


@dataclass
class Call:
    """One CLI call: ``op`` groups calls into a timing metric, ``kind`` names the potential."""

    op: str
    kind: str
    argv: list
    out: str
    params: dict = field(default_factory=dict)


@dataclass
class Inputs:
    workload: str
    seed: int
    base: int
    iid_seed: int
    descriptors: dict
    calls: list


def descriptor(kind, base, iid_seed):
    """Potential config object as the CLI takes it."""
    if kind == "iid":
        return {"kind": "iid", "seed": iid_seed}
    if kind == "layers":
        # The sawtooth tower stored as explicit tables: same values as "remark".
        layers = [{"period": m, "values": [t / m**3 for t in range(m)]} for m in MODULI]
        return {"kind": "layers", "chain": CHAIN, "base": base, "layers": layers}
    return {"kind": kind, "chain": CHAIN, "depth": DEPTH, "base": base}


def _sweep_calls(group, kinds, desc, energies, ids_range):
    """Lyapunov and ids on ``kinds[0]``; synth and gordon on every kind."""
    sweep_kind = kinds[0]
    pot = json.dumps(desc[sweep_kind])
    calls = []
    for i, e in enumerate(energies):
        calls.append(Call(
            f"{group}.lyapunov", sweep_kind,
            ["lyapunov", "--potential", pot, "--energy-min", repr(e), "--energy-max",
             repr(e), "--energy-points", "1", "--size", str(SWEEP_SIZE)],
            f"{group}_lyapunov_{i}.csv", {"E": e},
        ))
    lo, hi = ids_range
    calls.append(Call(
        f"{group}.ids", sweep_kind,
        ["ids", "--potential", pot, "--energy-min", repr(lo), "--energy-max", repr(hi),
         "--energy-points", str(IDS_POINTS), "--size", str(SWEEP_SIZE)],
        f"{group}_ids.csv", {"lo": lo, "hi": hi},
    ))
    for kind in kinds:
        calls.append(Call(
            f"{group}.synth", kind,
            ["synth", "--potential", json.dumps(desc[kind]), "--nmin", str(-SYNTH_HALF),
             "--nmax", str(SYNTH_HALF)],
            f"synth_{kind}.csv",
        ))
    for kind in kinds:
        calls.append(Call(
            f"{group}.gordon", kind,
            ["gordon", "--potential", json.dumps(desc[kind]), "--q",
             ",".join(map(str, GORDON_Q))],
            f"gordon_{kind}.json",
        ))
    return calls


def make(workload, seed):
    """The workload's inputs for ``seed``; the same seed gives the same argv."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    base = rng.randrange(PERIOD)
    iid_seed = rng.randrange(2**32)
    energies = sorted(rng.uniform(-2.5, 2.9) for _ in range(LYAPUNOV_ENERGIES))
    ids_range = (-2.5 + 0.1 * rng.random(), 2.9 - 0.1 * rng.random())
    if workload == "spectrum-levels":
        desc = {"remark": descriptor("remark", base, iid_seed)}
        pot = json.dumps(desc["remark"])
        calls = [
            Call(f"spectrum.l{level}", "remark",
                 ["spectrum", "--potential", pot, "--level", str(level)],
                 f"spectrum_l{level}.json", {"level": level})
            for level in LEVELS
        ]
    else:
        desc = {kind: descriptor(kind, base, iid_seed) for kind in TOWER_KINDS + ("iid",)}
        calls = _sweep_calls("tower", TOWER_KINDS, desc, energies, ids_range)
        calls += _sweep_calls("iid", ("iid",), desc, energies, ids_range)
    return Inputs(workload, seed, base, iid_seed, desc, calls)
