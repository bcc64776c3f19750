"""The public value types: immutable, equal by value, fields in a fixed order.

The validating types are named tuples whose ``__new__`` checks and normalizes
the fields, the others plain ``typing.NamedTuple`` records.  ``Potential`` and
``NoisePotential`` keep their fields in the instance dict and compare only
within one class, and a ``PeriodicWindow`` equals only itself.
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from limitper import (
    INF,
    BandSet,
    FrequencyChain,
    PeriodicLayer,
    Potential,
    ProcyclicElement,
    SamplingFunction,
    Supernatural,
    chain_make,
    hulls_isomorphic,
    ids_curve,
    iid_uniform_potential,
    periodic_potential,
    quotient,
    sawtooth_potential,
    spectrum_approx,
    transfer_product,
)
from limitper.cli import _POTENTIALS

DYADIC = chain_make([2], [2])
POTENTIAL_FIELDS = ("kind", "base", "generator", "sampling", "tails", "values")

# type: (a fresh instance on every call, its fields in order)
RECORDS = {
    "Supernatural": (lambda: Supernatural(((2, INF), (3, 1))), ("pairs",)),
    "FrequencyChain": (lambda: FrequencyChain([2, 6], [3]), ("prefix", "rule")),
    "HullComparison": (
        lambda: hulls_isomorphic(DYADIC, chain_make([4], [4])),
        ("isomorphic", "order_a", "order_b", "forward", "backward", "blocker"),
    ),
    "ProcyclicElement": (
        lambda: ProcyclicElement(DYADIC, 2, [1, 3]), ("chain", "level", "residues")
    ),
    "QuotientMap": (lambda: quotient(DYADIC, chain_make([2, 4])), ("source", "target")),
    "PeriodicLayer": (lambda: PeriodicLayer(2, [0, 1]), ("period", "values")),
    "SamplingFunction": (
        lambda: SamplingFunction(DYADIC, [PeriodicLayer(2, [0, 0.5])], 0.25),
        ("chain", "layers", "residual_bound"),
    ),
    "Potential": (lambda: sawtooth_potential(DYADIC, 3, base=5), POTENTIAL_FIELDS),
    "NoisePotential": (
        lambda: iid_uniform_potential(7, -1.0, 2.0), POTENTIAL_FIELDS + ("seed", "low", "high")
    ),
    "TransferState": (
        lambda: transfer_product(periodic_potential([0.5, -1.0]), 0.3, 0, 5),
        ("m11", "m12", "m21", "m22", "log_scale"),
    ),
    "BandSet": (lambda: BandSet([(-1, 0), (1, 2)]), ("intervals",)),
    "IDSCurve": (
        lambda: ids_curve(periodic_potential([0.5, -1.0]), [-1.0, 0.0, 1.0], 16),
        ("energies", "values"),
    ),
    "SpectrumApprox": (
        lambda: spectrum_approx(sawtooth_potential(DYADIC, 3), 2),
        ("band_set", "tail_bound", "level", "period"),
    ),
}


def _fields(record):
    return getattr(record, "_fields", None) or tuple(vars(record))


@pytest.mark.parametrize("name", RECORDS)
def test_fields_keep_their_order_and_their_type(name):
    build, fields = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    assert _fields(record) == fields


@pytest.mark.parametrize("name", RECORDS)
def test_assigning_or_deleting_a_field_raises(name):
    build, fields = RECORDS[name]
    record = build()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert record == build()


@pytest.mark.parametrize("name", RECORDS)
def test_equal_constructions_compare_and_hash_equal(name):
    build, _ = RECORDS[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is type(a) and copy == a


def test_constructors_normalize_their_fields():
    chain = FrequencyChain([2, 6], [3])
    assert type(chain.prefix) is tuple and type(chain.rule) is tuple
    assert type(ProcyclicElement(DYADIC, 2, [1, 3]).residues) is tuple
    layer = PeriodicLayer(2, [0, 1])
    assert layer.values == (0.0, 1.0) and all(type(v) is float for v in layer.values)
    assert type(SamplingFunction(DYADIC, [layer]).layers) is tuple
    assert BandSet([(-1, 0)]).intervals == ((-1.0, 0.0),)
    assert all(type(x) is float for x in BandSet([(-1, 0)]).intervals[0])


def test_a_potential_equals_only_its_own_class_and_a_window_only_itself():
    noise = iid_uniform_potential(7, -1.0, 2.0)
    assert noise != Potential("iid") and Potential("iid") == Potential("iid")
    assert noise != iid_uniform_potential(8, -1.0, 2.0)
    pot = periodic_potential([0.5, -1.0])
    w1, w2 = pot.window(0, 4), pot.window(0, 4)
    assert w1 == w1 and w1 != w2
    with pytest.raises(AttributeError):
        w1.length = 8
    assert (list(w1), len(w1)) == ([0.5, -1.0, 0.5, -1.0], 4)


def test_the_cli_starts_without_dataclasses():
    # importing dataclasses and running @dataclass bodies cost about a quarter
    # of the CLI's set-up; a fresh interpreter shows whether one comes back
    chain = {"prefix": [2], "rule": [2]}
    descriptors = {
        "remark": {"kind": "remark", "chain": chain, "depth": 3},
        "metric": {"kind": "metric", "chain": chain, "depth": 3},
        "layers": {"kind": "layers", "chain": chain, "layers": [{"period": 2, "values": [0, 1]}]},
        "periodic": {"kind": "periodic", "values": [0.5]},
        "iid": {"kind": "iid"},
    }
    assert set(descriptors) == set(_POTENTIALS)
    code = (
        "import sys\n"
        "import limitper.cli as cli\n"
        "for text in sys.argv[1:]:\n"
        "    cli.build_potential(text, 0)\n"
        "print(sorted(name for name in sys.modules if name.startswith('dataclasses')))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    argv = [sys.executable, "-c", code] + [json.dumps(d) for d in descriptors.values()]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "[]\n"
