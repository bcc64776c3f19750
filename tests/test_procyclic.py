import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from limitper import (
    ProcyclicElement,
    chain_make,
    is_generator,
    metric,
    orbit_residues,
    quotient,
)

from helpers import random_chain

DYADIC = chain_make([2], [2])


def test_from_int_examples():
    e0 = ProcyclicElement.from_int(DYADIC, 3, 0)
    assert e0.residues == (0, 0, 0)
    assert ProcyclicElement.from_int(chain_make([2, 4, 8]), 3, 5).residues == (1, 1, 5)
    # k = n_J is indistinguishable from 0 at level J
    assert ProcyclicElement.from_int(DYADIC, 3, 8) == e0


def test_compatibility_validation():
    chain = chain_make([2, 4, 8])
    ProcyclicElement(chain, 3, (1, 3, 7))
    with pytest.raises(ValueError):
        ProcyclicElement(chain, 3, (0, 3, 7))  # 3 mod 2 != 0
    with pytest.raises(ValueError):
        ProcyclicElement(chain, 2, (1, 5))  # residue out of range
    with pytest.raises(ValueError):
        ProcyclicElement(chain, 2, (1,))


def test_addition_examples():
    chain = chain_make([2, 4])
    a = ProcyclicElement(chain, 2, (1, 3))
    b = ProcyclicElement(chain, 2, (1, 1))
    assert (a + b).residues == (0, 0)
    ident = ProcyclicElement.identity(chain, 2)
    assert a + ident == a
    assert a + (-a) == ident
    assert (a - b).residues == (0, 2)


def test_addition_rejects_mismatch():
    a = ProcyclicElement.from_int(DYADIC, 3, 1)
    with pytest.raises(ValueError):
        a + ProcyclicElement.from_int(DYADIC, 2, 1)
    with pytest.raises(ValueError):
        a + ProcyclicElement.from_int(chain_make([2], [4]), 3, 1)


@settings(deadline=None)
@given(st.integers(0, 10**6), st.integers(-500, 500), st.integers(-500, 500))
def test_addition_preserves_compatibility(seed, j, k):
    chain = random_chain(random.Random(seed))
    a = ProcyclicElement.from_int(chain, 6, j)
    b = ProcyclicElement.from_int(chain, 6, k)
    out = a + b  # constructor revalidates compatibility
    assert out == ProcyclicElement.from_int(chain, 6, j + k)
    assert -a == ProcyclicElement.from_int(chain, 6, -j)


def test_metric_geometric_values():
    e = ProcyclicElement.from_int(DYADIC, 20, 1)
    zero = ProcyclicElement.identity(DYADIC, 20)
    value, tail = metric(e, zero)
    assert value == Fraction(1, 2) - Fraction(1, 2**21)
    assert value == (1 - Fraction(1, 2**20)) / 2
    assert tail == Fraction(1, 2**20)
    # first level vanishes for 2E since 2 = 0 mod 2
    value2, _ = metric(ProcyclicElement.from_int(DYADIC, 20, 2), zero)
    assert value2 == Fraction(1, 4) - Fraction(1, 2**21)


def test_metric_restricts_to_common_level():
    a = ProcyclicElement.from_int(DYADIC, 8, 3)
    b = ProcyclicElement.from_int(DYADIC, 5, 3)
    value, tail = metric(a, b)
    assert value == 0
    assert tail == Fraction(1, 2**5)


@settings(deadline=None)
@given(st.integers(0, 10**5))
def test_metric_axioms_exact(seed):
    rng = random.Random(seed)
    chain = random_chain(rng)
    n20 = chain.nth_term(20)
    a, b, c = (ProcyclicElement.from_int(chain, 20, rng.randrange(n20)) for _ in range(3))
    assert metric(a, a).value == 0
    assert metric(a, b).value == metric(b, a).value
    assert metric(a, c).value <= metric(a, b).value + metric(b, c).value


def test_generator_examples():
    ok, witness = is_generator(DYADIC, 3, 8)
    assert ok and witness is None
    ok, witness = is_generator(DYADIC, 2, 8)
    assert not ok
    assert witness.kind == "entry" and witness.value == 2 and witness.level == 1
    assert is_generator(DYADIC, 1, 1).ok


def test_generator_ratio_witness():
    chain = chain_make([3], [2])
    ok, witness = is_generator(chain, 2, 1)
    assert not ok
    assert (witness.kind, witness.value) == ("ratio", 2)


def test_orbit_examples():
    full = orbit_residues(DYADIC, 3, 5, 32)
    assert sorted(set(full)) == list(range(32))
    assert orbit_residues(DYADIC, 0, 4, 10) == [0] * 10
    assert sorted(set(orbit_residues(chain_make([2, 4]), 2, 2, 4))) == [0, 2]


@settings(deadline=None)
@given(st.integers(0, 10**5), st.integers(-10**6, 10**6))
def test_orbit_coverage_counts(seed, k):
    chain = random_chain(random.Random(seed))
    n = chain.nth_term(5)
    covered = set(orbit_residues(chain, k, 5, n))
    assert len(covered) == n // math.gcd(k, n)


def test_quotient_identity_map():
    qmap = quotient(DYADIC, DYADIC)
    x = ProcyclicElement.from_int(DYADIC, 4, 11)
    assert qmap.apply(x) == x
    assert qmap.alignment(4) == [(1, 1), (2, 2), (3, 3), (4, 4)]


def test_quotient_onto_finite_level():
    target = chain_make([2, 4])
    qmap = quotient(DYADIC, target)
    x = ProcyclicElement.from_int(DYADIC, 5, 13)
    image = qmap.apply(x)
    assert image.chain == target
    assert image.residues == (13 % 2, 13 % 4)


def test_quotient_rejects_nondividing_order():
    with pytest.raises(ValueError):
        quotient(DYADIC, chain_make([3], [3]))


def test_quotient_realignment_skips_levels():
    # target levels 4 and 8 align with the first source entries they divide
    source = chain_make([2], [2])
    target = chain_make([4, 8])
    qmap = quotient(source, target)
    assert qmap.alignment(2) == [(1, 2), (2, 3)]
    x = ProcyclicElement.from_int(source, 6, 7)
    assert qmap.apply(x).residues == (7 % 4, 7 % 8)


@settings(deadline=None)
@given(st.integers(0, 10**5), st.integers(-10**4, 10**4), st.integers(-10**4, 10**4))
def test_quotient_is_homomorphism(seed, j, k):
    chain = random_chain(random.Random(seed))
    target = chain_make(tuple(chain.terms(2)))
    qmap = quotient(chain, target)
    a = ProcyclicElement.from_int(chain, 5, j)
    b = ProcyclicElement.from_int(chain, 5, k)
    assert qmap.apply(a + b) == qmap.apply(a) + qmap.apply(b)
