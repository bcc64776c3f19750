import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from limitper import (
    PeriodicLayer,
    ProcyclicElement,
    SamplingFunction,
    chain_make,
    gordon_check,
    iid_uniform_potential,
    metric,
    metric_potential,
    metric_value,
    periodic_potential,
    periodize,
    sample,
    sampled_potential,
    sampling_from_potential,
    sawtooth_potential,
    sawtooth_sampling,
    sawtooth_tail,
    sawtooth_value,
)

DYADIC = chain_make([2], [2])


def _sawtooth_fraction(chain, depth, k):
    # independent exact partial sum
    return sum(Fraction(k % n, n**3) for n in chain.terms(depth))


def test_sawtooth_zero_and_geometric_limit():
    assert sawtooth_value(DYADIC, 10, 0).value == 0.0
    # k = 1: sum over j of 1 / 8^j converges to 1/7
    v40 = sawtooth_value(DYADIC, 40, 1).value
    assert abs(v40 - 1 / 7) < 1e-13
    assert _sawtooth_fraction(DYADIC, 40, 1) == Fraction(8**40 - 1, 7 * 8**40)
    # k = 2: first layer vanishes, limit 1/28
    partials = [_sawtooth_fraction(DYADIC, j, 2) for j in (10, 20, 30)]
    assert all(abs(p - Fraction(1, 28)) < Fraction(1, 4**j) for p, j in zip(partials, (10, 20, 30)))
    assert abs(sawtooth_value(DYADIC, 40, 2).value - 1 / 28) < 1e-13


@settings(deadline=None, max_examples=30)
@given(st.integers(-10**6, 10**6), st.integers(1, 12))
def test_sawtooth_matches_exact_fraction(k, depth):
    got = sawtooth_value(DYADIC, depth, k).value
    assert abs(got - float(_sawtooth_fraction(DYADIC, depth, k))) < 1e-15


def test_sawtooth_tail_certifies_truncation():
    chain = chain_make([2, 6], [2, 3, 5])
    deep = 40
    for shallow in (1, 2, 3, 5):
        tail = float(sawtooth_tail(chain, shallow))
        worst = 0.0
        for k in range(10_000):
            err = abs(
                sawtooth_value(chain, deep, k).value
                - sawtooth_value(chain, shallow, k).value
            )
            worst = max(worst, err)
        assert worst <= tail + 1e-15
        # and the bound is not vacuous: some point gets close at this scale
        assert worst > tail / 10


def test_metric_value_examples_and_cross_check():
    assert metric_value(DYADIC, 20, 0)[0] == 0
    value, tail = metric_value(DYADIC, 20, 1)
    assert value == Fraction(1, 2) - Fraction(1, 2**21)
    assert tail == Fraction(1, 2**20)
    assert metric_value(DYADIC, 20, 2)[0] == Fraction(1, 4) - Fraction(1, 2**21)
    # agrees exactly with the group metric to the identity
    for k in (0, 1, 2, 5, 12, 1023):
        elem = ProcyclicElement.from_int(DYADIC, 20, k)
        ident = ProcyclicElement.identity(DYADIC, 20)
        assert metric(elem, ident).value == metric_value(DYADIC, 20, k)[0]


def test_sample_single_layer_parity():
    chain = chain_make([2])
    f = SamplingFunction(chain, (PeriodicLayer(2, (0.0, 1.0)),))
    ident = ProcyclicElement.identity(chain, 1)
    assert [sample(f, ident, 1, n, 1e-9) for n in range(-3, 4)] == [
        1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0
    ]


def test_sample_agrees_with_sawtooth_formula():
    f = sawtooth_sampling(DYADIC, 5)
    ident = ProcyclicElement.identity(DYADIC, 5)
    tol = 2 * f.residual_bound + 1e-12
    for n in range(-20, 21):
        assert sample(f, ident, 1, n, tol) == pytest.approx(
            sawtooth_value(DYADIC, 5, n).value, abs=1e-15
        )


def test_sample_shift_identities():
    f = sawtooth_sampling(DYADIC, 5)
    omega = ProcyclicElement.from_int(DYADIC, 5, 7)
    one = ProcyclicElement.from_int(DYADIC, 5, 1)
    tol = 1e-3
    for n in range(-10, 10):
        # moving the base point one orbit step is the same as shifting the index
        assert sample(f, omega + one, 1, n, tol) == sample(f, omega, 1, n + 1, tol)


def test_sample_requires_certifiable_tolerance():
    f = sawtooth_sampling(DYADIC, 4)
    ident = ProcyclicElement.identity(DYADIC, 4)
    with pytest.raises(ValueError):
        sample(f, ident, 1, 0, f.residual_bound / 2)
    with pytest.raises(ValueError):
        sample(f, ProcyclicElement.identity(DYADIC, 2), 1, 0, 1.0)


def test_periodize_coset_average_exact():
    chain = chain_make([2, 4])
    a, b, c, d = 0.5, -0.25, 0.125, 1.0
    f = SamplingFunction(
        chain, (PeriodicLayer(2, (0.0, 0.0)), PeriodicLayer(4, (a, b, c, d)))
    )
    g = periodize(f, 1)
    assert g.layers[1].values == ((a + c) / 2, (b + d) / 2, (a + c) / 2, (b + d) / 2)
    # coarse layers pass through untouched
    assert g.layers[0] is f.layers[0]


def test_periodize_fixes_already_periodic():
    chain = chain_make([2, 4])
    f = SamplingFunction(
        chain, (PeriodicLayer(2, (0.5, -1.0)), PeriodicLayer(4, (0.25, 0.5, 0.25, 0.5)))
    )
    g = periodize(f, 1)
    assert g.layers[1].values == f.layers[1].values


def test_periodize_contracts_sup():
    rng = random.Random(5)
    chain = chain_make([2, 4, 8])
    layers = tuple(
        PeriodicLayer(n, tuple(rng.uniform(-1, 1) for _ in range(n)))
        for n in chain.terms(3)
    )
    f = SamplingFunction(chain, layers)
    g = periodize(f, 1)
    ident = ProcyclicElement.identity(chain, 3)
    sup_f = max(abs(sample(f, ident, 1, n, 1e-9)) for n in range(-64, 64))
    assert g.sup_bound() <= f.sup_bound() + 1e-12
    assert max(abs(sample(g, ident, 1, n, 1e-9)) for n in range(-64, 64)) <= sup_f + 1e-12


def test_periodize_orbit_periodicity_generator_independent():
    chain = chain_make([2, 4])
    f = SamplingFunction(
        chain, (PeriodicLayer(2, (0.0, 0.0)), PeriodicLayer(4, (0.5, -0.25, 0.125, 1.0)))
    )
    g = periodize(f, 1)
    ident = ProcyclicElement.identity(chain, 2)

    def is_two_periodic(fn, k):
        return all(
            sample(fn, ident, k, n + 2, 1e-9) == sample(fn, ident, k, n, 1e-9)
            for n in range(-8, 8)
        )

    # verdicts agree between the two generators, before and after periodizing
    assert (is_two_periodic(f, 1), is_two_periodic(f, 3)) == (False, False)
    assert (is_two_periodic(g, 1), is_two_periodic(g, 3)) == (True, True)


def test_extraction_recovers_periodic_sequence_exactly():
    chain = chain_make([2])
    window = [0.5, -0.25] * 6
    out = sampling_from_potential(window, chain, 1, tol=1e-12)
    assert out.sampling.layers[0].values == (0.5, -0.25)
    assert out.residual_sup == 0.0
    assert out.within_tol


def test_extraction_recovers_centered_layers_exactly():
    chain = chain_make([2, 4])
    layer1 = (0.5, -0.25)
    layer2 = (0.125, 0.0625, -0.125, -0.0625)  # zero mean on each mod-2 coset
    d = [layer1[n % 2] + layer2[n % 4] for n in range(40)]
    out = sampling_from_potential(d, chain, 2, tol=1e-12)
    assert out.sampling.layers[0].values == layer1
    assert out.sampling.layers[1].values == layer2
    assert out.residual_sup == 0.0


def test_extraction_of_sawtooth_leaves_tail_residual():
    chain = chain_make([2, 4, 8])
    pot = sawtooth_potential(chain, 3)
    window = [pot(n) for n in range(10 * 8)]
    out = sampling_from_potential(window, chain, 3, tol=1e-9)
    assert out.residual_sup <= 1e-9  # finite chain: zero tail up to rounding
    assert out.within_tol


def test_extraction_flags_random_input():
    rng = random.Random(99)
    window = [rng.random() for _ in range(80)]
    out = sampling_from_potential(window, chain_make([2, 4, 8]), 3, tol=0.05)
    assert out.residual_sup > 0.05
    assert not out.within_tol


def test_extraction_rejects_short_window():
    with pytest.raises(ValueError):
        sampling_from_potential([0.0] * 7, chain_make([2, 4, 8]), 3, tol=1e-9)


def test_gordon_periodic_passes_with_zero_margins():
    pot = periodic_potential([0.5, -0.25, 0.75, 0.0])
    report = gordon_check(pot, [4, 8, 12])
    assert report.passed
    assert all(m.max_diff == 0.0 for m in report.margins)
    assert all(m.log_margin == math.inf for m in report.margins)


def test_gordon_iid_fails_early():
    report = gordon_check(iid_uniform_potential(7), [2, 4, 8])
    assert not report.passed
    assert any(not m.passed for m in report.margins[:3])
    # the j = 1 threshold is 1, which uniform [0,1] differences never exceed
    assert report.margins[0].passed


def test_gordon_sawtooth_margins_match_tail_oracle():
    pot = sawtooth_potential(DYADIC, 12)
    q_list = [2, 4, 8, 16]
    report = gordon_check(pot, q_list)
    for m in report.margins:
        level = q_list.index(m.q) + 1
        assert m.max_diff <= float(sawtooth_tail(DYADIC, level)) + 1e-15
        # verdict equals the exact rational comparison with j**-q
        expect = Fraction(m.max_diff) <= Fraction(1, m.j**m.q)
        assert m.passed == expect


def test_gordon_thresholds_survive_underflow_scales():
    pot = periodic_potential([0.5, -0.25, 0.75, 0.0])
    report = gordon_check(pot, [4, 800, 1200])
    assert report.passed  # exact periodicity, thresholds far below double range
    assert report.margins[2].log_threshold < -700


def test_gordon_rejects_nonincreasing_scales():
    with pytest.raises(ValueError):
        gordon_check(periodic_potential([0.0]), [4, 4])


def test_potential_level_structure():
    pot = sawtooth_potential(DYADIC, 6)
    vals = pot.level_values(2)
    assert vals == [sawtooth_value(DYADIC, 2, n).value for n in range(4)]
    assert pot.level_tail(2) == float(sawtooth_tail(DYADIC, 2))
    met = metric_potential(DYADIC, 6)
    assert met.level_values(2) == [float(metric_value(DYADIC, 2, n)[0]) for n in range(4)]
    assert met.level_tail(3) == 0.125


def test_potential_sup_bounds_hold():
    for pot in (
        sawtooth_potential(DYADIC, 8),
        metric_potential(DYADIC, 8),
        periodic_potential([1.5, -2.0]),
        iid_uniform_potential(3, -0.5, 2.0),
    ):
        assert all(abs(pot(n)) <= pot.sup_bound + 1e-12 for n in range(-200, 200))


def test_sampled_potential_matches_sample():
    f = sawtooth_sampling(DYADIC, 4)
    omega = ProcyclicElement.from_int(DYADIC, 4, 5)
    tol = 2 * f.residual_bound
    pot = sampled_potential(f, omega, 3, tol=tol)
    for n in range(-10, 10):
        assert pot(n) == sample(f, omega, 3, n, tol)


def test_iid_potential_is_deterministic():
    a = iid_uniform_potential(42)
    b = iid_uniform_potential(42)
    assert [a(n) for n in range(-5, 5)] == [b(n) for n in range(-5, 5)]
    assert iid_uniform_potential(43)(0) != a(0)
    assert all(0.0 <= a(n) <= 1.0 for n in range(100))


TOWER_CHAINS = (DYADIC, chain_make([1, 3], [2]), chain_make([2, 6], [2, 3]))


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from(TOWER_CHAINS),
    st.integers(1, 10),
    st.integers(-10**6, 10**6),
    st.integers(-50, 50),
    st.integers(-300, 300),
)
def test_tower_kinds_agree_with_closed_forms(chain, depth, base, generator, n):
    remark = sawtooth_potential(chain, depth, base, generator)
    met = metric_potential(chain, depth, base, generator)
    f = sawtooth_sampling(chain, depth)
    omega = ProcyclicElement.from_int(chain, depth, base)
    stored = sampled_potential(f, omega, generator, 2 * f.residual_bound)
    k = base + n * generator
    assert remark(n).hex() == sawtooth_value(chain, depth, k).value.hex()
    assert met(n).hex() == float(metric_value(chain, depth, k)[0]).hex()
    assert stored(n).hex() == remark(n).hex()
    for pot in (remark, met, stored):
        for level in (0, -1, depth + 1):
            with pytest.raises(ValueError):
                pot.level_values(level)
            with pytest.raises(ValueError):
                pot.level_tail(level)
