import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from limitper import (
    NoisePotential,
    PeriodicLayer,
    Potential,
    ProcyclicElement,
    SamplingFunction,
    chain_make,
    gordon_check,
    iid_uniform_potential,
    metric,
    metric_potential,
    periodic_potential,
    periodize,
    sampled_potential,
    sawtooth_potential,
    sawtooth_tail,
)

from limitper import potential as potential_module
from limitper.potential import PeriodicWindow, read_window

from helpers import metric_value, random_chain, sawtooth_value, traced_peak_mib

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


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32), st.integers(1, 12))
def test_certified_tails_never_round_down(seed, level):
    chain = random_chain(random.Random(seed), entry_cap=10**4)
    assert Fraction(sawtooth_value(chain, level, 0).tail_bound) >= sawtooth_tail(chain, level)
    depth = max(d for d in range(1, level + 1) if chain.nth_term(d) <= 10**4)
    f = sawtooth_potential(chain, depth).sampling
    assert Fraction(f.residual_bound) >= sawtooth_tail(chain, depth)
    pot = sawtooth_potential(chain, depth)
    omega = ProcyclicElement.from_int(chain, depth, 0)
    stored = sampled_potential(f, omega, 1)
    for l in range(1, depth + 1):
        assert Fraction(pot.level_tail(l)) >= sawtooth_tail(chain, l)
        layers = sum(Fraction(layer.sup_norm()) for layer in f.layers[l:])
        assert Fraction(stored.level_tail(l)) >= layers + Fraction(f.residual_bound)


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
    assert [sampled_potential(f, ident, 1)(n) for n in range(-3, 4)] == [
        1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0
    ]


def test_sample_agrees_with_sawtooth_formula():
    f = sawtooth_potential(DYADIC, 5).sampling
    ident = ProcyclicElement.identity(DYADIC, 5)
    for n in range(-20, 21):
        assert sampled_potential(f, ident, 1)(n) == pytest.approx(
            sawtooth_value(DYADIC, 5, n).value, abs=1e-15
        )


def test_sample_shift_identities():
    f = sawtooth_potential(DYADIC, 5).sampling
    omega = ProcyclicElement.from_int(DYADIC, 5, 7)
    one = ProcyclicElement.from_int(DYADIC, 5, 1)
    moved, pot = sampled_potential(f, omega + one, 1), sampled_potential(f, omega, 1)
    for n in range(-10, 10):
        # moving the base point one orbit step is the same as shifting the index
        assert moved(n) == pot(n + 1)


def test_sample_requires_a_base_point_as_deep_as_the_tower():
    f = sawtooth_potential(DYADIC, 4).sampling
    with pytest.raises(ValueError, match="base point level 2 below tower depth 4"):
        sampled_potential(f, ProcyclicElement.identity(DYADIC, 2), 1)


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
    on_f, on_g = sampled_potential(f, ident, 1), sampled_potential(g, ident, 1)
    sup_f = max(abs(on_f(n)) for n in range(-64, 64))
    assert g.tail_bound(0) <= f.tail_bound(0) + 1e-12
    assert max(abs(on_g(n)) for n in range(-64, 64)) <= sup_f + 1e-12


def test_periodize_orbit_periodicity_generator_independent():
    chain = chain_make([2, 4])
    f = SamplingFunction(
        chain, (PeriodicLayer(2, (0.0, 0.0)), PeriodicLayer(4, (0.5, -0.25, 0.125, 1.0)))
    )
    g = periodize(f, 1)
    ident = ProcyclicElement.identity(chain, 2)

    def is_two_periodic(fn, k):
        pot = sampled_potential(fn, ident, k)
        return all(pot(n + 2) == pot(n) for n in range(-8, 8))

    # verdicts agree between the two generators, before and after periodizing
    assert (is_two_periodic(f, 1), is_two_periodic(f, 3)) == (False, False)
    assert (is_two_periodic(g, 1), is_two_periodic(g, 3)) == (True, True)


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
    tail = sawtooth_tail(DYADIC, 2)
    assert Fraction(float(tail)) < tail  # the nearest float is below: round up
    assert pot.level_tail(2) == math.nextafter(float(tail), math.inf)
    met = metric_potential(DYADIC, 6)
    assert met.level_values(2) == [float(metric_value(DYADIC, 2, n)[0]) for n in range(4)]
    assert met.level_tail(3) == 0.125


def test_sampled_potential_matches_the_closed_form():
    f = sawtooth_potential(DYADIC, 4).sampling
    omega = ProcyclicElement.from_int(DYADIC, 4, 5)
    pot = sampled_potential(f, omega, 3)
    for n in range(-10, 10):
        assert pot(n) == sawtooth_value(DYADIC, 4, 5 + 3 * n).value


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
    f = sawtooth_potential(chain, depth).sampling
    omega = ProcyclicElement.from_int(chain, depth, base)
    stored = sampled_potential(f, omega, generator)
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
    for level in range(1, depth + 1):
        remark_table, met_table = remark.level_values(level), met.level_values(level)
        expected = sawtooth_value(chain, level, k).value
        assert remark_table[n % len(remark_table)].hex() == expected.hex()
        expected = float(metric_value(chain, level, k)[0])
        assert met_table[n % len(met_table)].hex() == expected.hex()
    for pot in (remark, met, stored):
        assert pot(n + pot.period) == pot(n)
        assert len(pot.level_values(depth)) == pot.period


def _layers_summing_past_float_max():
    chain = chain_make([1, 2])
    layers = (PeriodicLayer(1, (1e308,)), PeriodicLayer(2, (1e308, 0.0)))
    omega = ProcyclicElement.from_int(chain, 2, 0)
    return sampled_potential(SamplingFunction(chain, layers), omega, 1)


@pytest.mark.parametrize(
    "make",
    [
        lambda: periodic_potential([0.0, math.nan]),
        lambda: periodic_potential([math.inf]),
        _layers_summing_past_float_max,  # each layer is finite, their sum at site 0 is not
        lambda: iid_uniform_potential(0, -1e308, 1e308),
    ],
    ids=["periodic-nan", "periodic-inf", "tower-sum-overflow", "iid-width-overflow"],
)
def test_potential_values_must_be_finite(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def _bits(values):
    return [v.hex() for v in values]


def _any_potential(kind, chain, depth, base, generator, values, seed):
    if kind == "remark":
        return sawtooth_potential(chain, depth, base, generator)
    if kind == "metric":
        return metric_potential(chain, depth, base, generator)
    if kind == "layers":
        omega = ProcyclicElement.from_int(chain, depth, base)
        return sampled_potential(sawtooth_potential(chain, depth).sampling, omega, generator)
    if kind == "periodic":
        return periodic_potential(values)
    return iid_uniform_potential(seed, -0.5, 2.0)


KINDS = ("remark", "metric", "layers", "periodic", "iid")

potentials = st.builds(
    _any_potential,
    st.sampled_from(KINDS),
    st.sampled_from([DYADIC, chain_make([2], [3]), chain_make([3, 6])]),
    st.integers(1, 2),
    st.integers(-40, 40),
    st.sampled_from([1, 3, -1, 5, 0]),
    st.lists(st.floats(-1e6, 1e6) | st.just(-0.0), min_size=1, max_size=9),
    st.integers(0, 2**64 - 1),
)


@settings(deadline=None, max_examples=300)
@given(potentials, st.integers(-2000, 2000), st.integers(-5, 120))
def test_window_is_the_per_site_read_bitwise(pot, a, length):
    b = a + length  # empty for length <= 0, shorter and longer than every period drawn
    expect = _bits([pot(n) for n in range(a, b)])
    stream = read_window(pot, a, b)
    assert iter(stream) is stream
    streamed = list(stream)
    assert _bits(streamed) == expect
    if pot.period is not None:  # a stored period: the very floats the window holds
        window = pot.window(a, b)
        assert _bits(window) == expect
        assert len(window) == len(expect)
        assert isinstance(window, PeriodicWindow) and len(window.values) == pot.period
        stored = [pot.values[n % pot.period] for n in range(a, b)]
        assert all(x is y for x, y in zip(streamed, window))
        assert all(x is y for x, y in zip(window, stored))
    else:  # seeded noise stores no period, so it has no window
        with pytest.raises(ValueError, match="potential kind 'iid' stores no period"):
            pot.window(a, b)
    doubled = read_window(lambda n: pot(n) * 2.0, a, b)  # a plain callable, called per site
    assert _bits(doubled) == _bits([pot(n) * 2.0 for n in range(a, b)])


@pytest.mark.parametrize("kind", KINDS)
def test_window_spans_many_periods_from_a_negative_start(kind):
    pot = _any_potential(kind, chain_make([2], [3]), 3, 7, 5, [0.25, -1.5, 3.0], 11)
    assert pot.generator != 1 or kind in ("periodic", "iid")
    a = -3 * (pot.period or 4) - 2
    expect = _bits([pot(n) for n in range(a, 40)])
    assert _bits(read_window(pot, a, 40)) == expect
    assert list(read_window(pot, 5, 5)) == list(read_window(pot, 9, 2)) == []
    if pot.period is None:
        with pytest.raises(ValueError, match="stores no period"):
            pot.window(a, 40)
        return
    assert _bits(pot.window(a, 40)) == expect
    assert list(pot.window(5, 5)) == list(pot.window(9, 2)) == []


def _per_site_gordon(V, q_list):
    """The Gordon check read site by site, as before windows: the equivalence oracle."""
    prev = 0
    margins = []
    all_ok = True
    for j, q in enumerate(q_list, start=1):
        if q <= prev:
            raise ValueError("q_list must be strictly increasing positive integers")
        prev = q
        max_diff = 0.0
        for n in range(1, q + 1):
            v = V(n)
            max_diff = max(max_diff, abs(v - V(n + q)), abs(v - V(n - q)))
        log_thr = -q * math.log(j) + 0.0
        log_diff = math.log(max_diff) if max_diff > 0 else -math.inf
        ok = log_diff <= log_thr
        all_ok = all_ok and ok
        margins.append((j, q, max_diff, log_diff, log_thr, log_thr - log_diff, ok))
    return all_ok, margins


@pytest.mark.parametrize("kind", KINDS + ("callable",))
@pytest.mark.parametrize("q_list", [[1, 2, 4, 8, 16, 32], [3, 5, 7], [2], [1], [6, 40]])
def test_gordon_window_matches_the_per_site_check(kind, q_list):
    if kind == "callable":
        pot = lambda n: math.sin(n) + (n % 3) / 7
    else:
        pot = _any_potential(kind, chain_make([2], [3]), 4, 3, 5, [0.5, -0.25, 0.125], 7)
    report = gordon_check(pot, q_list)
    passed, margins = _per_site_gordon(pot, q_list)
    assert report.passed == passed
    assert [tuple(m) for m in report.margins] == margins
    assert [m.max_diff.hex() for m in report.margins] == [m[2].hex() for m in margins]


@pytest.mark.parametrize("q_list", [[4, 4], [4, 2, 8], [0, 1]])
def test_gordon_rejects_bad_scales_before_reading_a_window(monkeypatch, q_list):
    sites = []
    with pytest.raises(ValueError, match="strictly increasing"):
        gordon_check(lambda n: sites.append(n) or 0.0, q_list)
    assert sites == []

    def no_window(V, start, stop):
        raise AssertionError("window read before q_list was checked")

    monkeypatch.setattr(potential_module, "read_window", no_window)
    with pytest.raises(ValueError, match="strictly increasing"):
        gordon_check(periodic_potential([0.0]), q_list)


def test_gordon_refuses_an_empty_q_list_before_reading_a_window():
    """An empty q_list would pass with nothing checked, so it is refused."""
    sites = []
    with pytest.raises(ValueError, match="q_list must be nonempty"):
        gordon_check(lambda n: sites.append(n) or 0.0, [])
    assert sites == []


def test_gordon_holds_its_noise_window_packed():
    # 3 * 2**15 sites: 0.75 MiB as doubles, 3 MiB as a list of distinct floats
    pot = iid_uniform_potential(5)
    q_list = [2**i for i in range(1, 16)]
    reports = []
    assert traced_peak_mib(lambda: reports.append(gordon_check(pot, q_list))) < 1.0
    assert reports[0].margins[-1].max_diff > 0.0


def test_iid_sites_are_the_seeded_draws_of_the_manifest_rule():
    """Site n is ``low + (high - low) * random.Random(f"{seed}:{n}").random()``."""
    pot = iid_uniform_potential(2**40 + 3, -0.5, 2.0)
    expect = [-0.5 + 2.5 * random.Random(f"{2**40 + 3}:{n}").random() for n in range(-9, 9)]
    assert _bits(read_window(pot, -9, 9)) == _bits(expect)
    assert _bits(map(pot, range(-9, 9))) == _bits(expect)
    with pytest.raises(ValueError, match="potential kind 'iid' stores no period"):
        pot.window(-9, 9)


def test_potential_is_a_stored_period_and_seeded_noise_its_subclass():
    fields = ["kind", "base", "generator", "sampling", "tails", "values"]
    assert list(vars(Potential("periodic", values=(1.0,)))) == fields
    pot = iid_uniform_potential(7, -1.0, 2.0)
    assert list(vars(pot)) == fields + ["seed", "low", "high"]
    assert isinstance(pot, NoisePotential) and isinstance(pot, Potential)
    assert (pot.kind, pot.seed, pot.low, pot.high) == ("iid", 7, -1.0, 2.0)
    assert (pot.period, pot.chain, pot.depth, pot.base, pot.generator) == (None, None, None, 0, 1)
    with pytest.raises(ValueError, match="potential kind 'iid' has no layer structure"):
        pot.level_values(1)


@pytest.mark.parametrize("kind", KINDS)
def test_tol_is_the_deepest_tail_and_zero_without_tails(kind):
    chains = (DYADIC, chain_make([2], [3]), chain_make([2, 6], [2, 3, 5]), chain_make([3], [2]))
    for chain in chains:
        for depth in range(1, 7):
            pot = _any_potential(kind, chain, depth, 5, 3, [0.25, -1.5], 11)
            assert pot.tol == (pot.tails[-1] if pot.tails else 0.0)
            assert (pot.tails != ()) == (kind in ("remark", "metric", "layers"))
    if kind != "layers":
        return
    ident = ProcyclicElement.identity(DYADIC, 1)
    honest = SamplingFunction(DYADIC, (PeriodicLayer(2, (0.0, 1.0)),), 1e-6)
    assert sampled_potential(honest, ident, 1).tol == 1e-6
    # a tower of no layers has no tails, and V = 0 is still only certified to its residual
    bare = sampled_potential(SamplingFunction(DYADIC, (), 0.25), ident, 1)
    assert (bare.tails, bare.values, bare.tol) == ((), (0.0,), 0.25)


def test_noise_draws_never_seed_from_the_os(monkeypatch):
    seeds = []
    reseed = random.Random.seed

    def recording(self, a=None, version=2):
        seeds.append(a)
        reseed(self, a, version)

    monkeypatch.setattr(random.Random, "seed", recording)
    pot = iid_uniform_potential(3)
    assert _bits(read_window(pot, -2, 3)) == _bits(map(pot, range(-2, 3)))
    assert None not in seeds and len(seeds) == 10


def test_family_towers_store_their_base_as_its_residue():
    # -1 and 255 are the same point of Z/256, so they read the same sites
    for family in (sawtooth_potential, metric_potential):
        pot = family(DYADIC, 8, base=-1)
        assert pot == family(DYADIC, 8, base=255) and pot.base == 255


def test_metric_tower_along_a_non_minimal_translation_alternates_at_every_level():
    # On the chain 2, 6, 18, ... the orbit 5 + 3n never meets a multiple of 3,
    # so every layer past the first is constant along it: the hull is Z/2.
    pot = metric_potential(chain_make([2], [3]), 5, base=5, generator=3)
    assert pot.period == 54
    for level in range(1, 6):
        table = pot.level_values(level)
        assert len(table) == 2 * 3 ** max(level - 2, 0)
        assert table[0] != table[1]
        assert all(v == table[i % 2] for i, v in enumerate(table))
    assert list(pot.window(-7, 7)) == [pot(1), pot(0)] * 7
