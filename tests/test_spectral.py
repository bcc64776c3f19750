import hashlib
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from limitper import (
    BandSet,
    IDSCurve,
    TransferState,
    bands,
    chain_make,
    condition_a_check,
    discriminant,
    eigenvalue_count,
    hausdorff_dist,
    ids,
    ids_curve,
    iid_uniform_potential,
    log_holder_report,
    lyapunov_estimate,
    periodic_potential,
    sawtooth_potential,
    sawtooth_tail,
    spectrum_approx,
    transfer_product,
)

from limitper import spectral
from limitper.potential import PeriodicWindow, read_window
from limitper.spectral import _bisect, _dirichlet_fences, eigenvalue_counts

from helpers import (
    exact_delta,
    exact_dirichlet_count,
    exact_transfer,
    traced_peak_mib,
    transfer_det,
    transfer_log_size,
)

ZERO = lambda n: 0.0


def test_transfer_empty_range_is_identity():
    state = transfer_product(ZERO, 1.7, 5, 5)
    assert (state.m11, state.m12, state.m21, state.m22, state.log_scale) == (1, 0, 0, 1, 0)
    with pytest.raises(ValueError):
        transfer_product(ZERO, 0.0, 3, 2)


def test_transfer_single_step():
    state = transfer_product(lambda n: 0.25, 1.0, 0, 1)
    assert (state.m11, state.m12, state.m21, state.m22) == (0.75, -1.0, 1.0, 0.0)
    assert state.log_scale == 0.0


def test_free_transfer_E0_is_fourth_root_of_identity():
    # [[0, -1], [1, 0]] is a quarter rotation
    full, half = transfer_product(ZERO, 0.0, 0, 4), transfer_product(ZERO, 0.0, 0, 2)
    assert (full.m11, full.m12, full.m21, full.m22) == (1.0, 0.0, 0.0, 1.0)
    assert (half.m11, half.m12, half.m21, half.m22) == (-1.0, 0.0, 0.0, -1.0)


def test_transfer_matches_exact_rational_product():
    rng = random.Random(3)
    vals = [rng.randrange(-256, 257) / 256 for _ in range(60)]
    E = 0.625
    got = transfer_product(lambda n: vals[n % 60], E, 0, 60)
    want = exact_transfer(vals, E, 60)
    scale = max(abs(float(w)) for w in want)
    for g, w in zip((got.m11, got.m12, got.m21, got.m22), want):
        assert abs(g - float(w)) <= 1e-12 * scale
    # the exact product is exactly unimodular
    assert want[0] * want[3] - want[1] * want[2] == 1


def test_unimodularity_long_product_small_coupling():
    rng = random.Random(11)
    vals = [rng.randrange(-256, 257) / 25600 for _ in range(100_000)]
    state = transfer_product(lambda n: vals[n % len(vals)], 0.5, 1, 100_001)
    assert abs(transfer_det(state) - 1.0) < 1e-6


def test_unimodularity_thousand_random_trials():
    for trial in range(1000):
        rng = random.Random(trial)
        vals = [rng.uniform(-0.5, 0.5) for _ in range(12)]
        E = rng.uniform(-2.0, 2.0)
        state = transfer_product(lambda n: vals[n % 12], E, 0, 12)
        assert abs(transfer_det(state) - 1.0) < 1e-6


def test_transfer_rescales_instead_of_overflowing():
    state = transfer_product(ZERO, 6.0, 0, 3000)
    assert state.log_scale > 0
    assert state.norm() <= 2.0**512
    lam = (6 + math.sqrt(32)) / 2
    assert (state.log_scale + math.log(state.norm())) / 3000 == pytest.approx(
        math.log(lam), abs=1e-3
    )


def test_transfer_rescales_before_a_step_that_would_overflow():
    # |E - V(n)| = 1e200 times a product just rescaled to 2**512 overflows the
    # float range, so the product is rescaled before each such step.
    for vals in ([1e200, -1e200], [1e300, -1e300], [1e308, -1e308, 3.0]):
        state = transfer_product(periodic_potential(vals), 0.0, 1, 11)
        want = transfer_log_size(vals, 0.0, 10, 1)
        assert state.log_scale + math.log(state.norm()) == pytest.approx(want, rel=1e-12)
        assert lyapunov_estimate(periodic_potential(vals), 0.0, 10) == pytest.approx(
            want / 10, rel=1e-12
        )
    # 0 - (-1e308) - 1e308 overflows E - V(n) itself; its half does not
    state = transfer_product(periodic_potential([-1e308, 1e308]), 1e308, 0, 4)
    want = transfer_log_size([-1e308, 1e308], 1e308, 4)
    assert state.log_scale + math.log(state.norm()) == pytest.approx(want, rel=1e-12)
    assert discriminant([1e300, -1e300], 0.0) == -math.inf
    for vals in ([0.0, 1e200, 0.0, 3.0], (1e308, 0.0)):
        assert isinstance(bands(vals, 1e-9), BandSet)


def test_lyapunov_free_inside_band_vanishes():
    for E in (-1.9, -1.0, 0.0, 0.7, 1.5):
        assert abs(lyapunov_estimate(ZERO, E, 100_000)) < 0.05


def test_lyapunov_free_hyperbolic_closed_form():
    got = lyapunov_estimate(ZERO, 3.0, 100_000)
    assert abs(got - math.log((3 + math.sqrt(5)) / 2)) < 1e-4


def test_lyapunov_constant_shift_identity_bitwise():
    rng = random.Random(21)
    vals = [rng.randrange(-256, 257) / 256 for _ in range(997)]
    E, c = 0.5, 0.75  # dyadic, so the shifted additions are exact
    V = lambda n: vals[n % 997]
    Vc = lambda n: vals[n % 997] + c
    N = 20_000
    assert lyapunov_estimate(Vc, E + c, N) == lyapunov_estimate(V, E, N)
    # constant potential reduces to the free case at the shifted energy
    for E in (0.25, 3.0):
        assert lyapunov_estimate(lambda n: 0.5, E, 5000) == lyapunov_estimate(
            ZERO, E - 0.5, 5000
        )


@pytest.mark.parametrize(
    "pot",
    [iid_uniform_potential(3, -1.0, 1.0), sawtooth_potential(chain_make([2], [2]), 8)],
    ids=["iid", "remark"],
)
def test_lyapunov_memory_does_not_grow_with_N(pot):
    # the sites are streamed into the product: a list of 200k floats is 6 MiB
    assert traced_peak_mib(lambda: lyapunov_estimate(pot, 0.3, 200_000)) < 1.0


def test_discriminant_small_periods():
    for E in (-2.5, -1.0, 0.0, 0.3, 2.0, 3.7):
        assert discriminant([0.0], E) == E
        assert discriminant([0.0, 0.0], E) == pytest.approx(E * E - 2, abs=1e-12)


def test_discriminant_period_two_symbolic_oracle():
    a, b = 0.5, -1.25
    for E in [x / 8 for x in range(-40, 41)]:
        m = exact_transfer([a, b], E, 2)
        want = (Fraction(E) - Fraction(a)) * (Fraction(E) - Fraction(b)) - 2
        assert m[0] + m[3] == want  # trace really is (E - a)(E - b) - 2
        assert discriminant([a, b], E) == pytest.approx(float(want), abs=1e-12)


def test_discriminant_past_float_range_is_signed_infinity():
    # The one-period product rescales more than once here; the trace itself
    # is beyond the float range, with the sign of (-1)**p below the spectrum.
    for p in (655, 1001):
        assert discriminant([0.0] * p, 3.3) == math.inf
        assert discriminant([0.0] * p, -3.3) == (-1) ** p * math.inf
    v = sawtooth_potential(chain_make([2], [2]), depth=10).level_values(10)
    assert discriminant(v, 3.3) == math.inf
    assert discriminant(v, -2.7) == math.inf


def test_discriminant_after_a_rescale_matches_closed_form(monkeypatch):
    # 2 cosh(p arccosh(E/2)) is about 1e188 at p = 400: the transfer product
    # rescales on the way, but the plain loop stays finite and runs no product.
    calls = _count_calls(monkeypatch, spectral, ("transfer_product",))
    want = 2 * math.cosh(400 * math.acosh(1.65))
    assert discriminant([0.0] * 400, 3.3) == pytest.approx(want, rel=1e-10)
    assert calls["transfer_product"] == 0


def test_discriminant_rebuilds_an_overflowed_trace_exactly():
    # phi overflows at the second site, so the trace comes from the rescaled
    # product, and its power-of-two rescales are undone with no rounding.
    vals = [-1e200, -1e200, -1e-200]
    want = float(exact_delta(vals, 0.0))
    assert abs(discriminant(vals, 0.0) - want) <= 2 * math.ulp(want)


# Kernel equivalence: the tight kernels against the loops they replaced.
_small_values = st.one_of(
    st.integers(-3, 3).map(float),
    st.integers(-16, 16).map(lambda k: k / 4),
    st.floats(-4, 4, allow_nan=False),
)


def _old_eigenvalue_count(values, E):
    count = 0
    d = 1.0
    first = True
    for v in values:
        if first:
            d = v - E
            first = False
        else:
            d = (v - E) - 1.0 / d
        if d == 0.0:
            d = -5e-324  # -1e-300 is not small next to pivots near 1e-308
        if d < 0.0:
            count += 1
    return count


def _old_fences(vals):
    outer = 3.0 + max(abs(v) for v in vals)
    dirichlet = vals[:-1]
    fences = [-outer]
    for k in range(1, len(vals)):
        above = lambda e: 1 if eigenvalue_count(dirichlet, e) >= k else -1
        fences.append(_bisect(above, -outer, outer))
    fences.append(outer)
    return fences


@settings(deadline=None, max_examples=200)
@given(st.lists(_small_values, min_size=1, max_size=64), st.floats(-8, 8, allow_nan=False))
def test_discriminant_is_the_unrescaled_transfer_trace(vals, E):
    state = transfer_product(vals.__getitem__, E, 0, len(vals))
    assert state.log_scale == 0.0  # |E - V| <= 12 over 64 sites stays below 2**512
    assert discriminant(vals, E).hex() == (state.m11 + state.m22).hex()


@settings(deadline=None, max_examples=300)
@given(
    st.lists(_small_values, max_size=40),
    st.one_of(st.integers(-5, 5).map(float), st.floats(-8, 8, allow_nan=False)),
)
def test_eigenvalue_count_matches_the_flagged_loop(values, E):
    # Integer diagonals at integer E hit exact zero pivots, e.g. [1, 1] at 0.
    assert eigenvalue_count(values, E) == _old_eigenvalue_count(values, E)


@settings(deadline=None, max_examples=60)
@given(st.lists(_small_values, min_size=1, max_size=8), st.integers(1, 4))
def test_dirichlet_fences_match_separate_bisections(q, k):
    vals = tuple(q * k)  # tiled periods: gaps not divisible by k are closed
    assert [f.hex() for f in _dirichlet_fences(vals)] == [f.hex() for f in _old_fences(vals)]


def _hexes(fences):
    return [f.hex() for f in fences]


@pytest.mark.parametrize("p, seed", [(100, 1), (100, 2), (256, 3)])
def test_dirichlet_fences_match_separate_bisections_on_long_random_periods(p, seed):
    rng = random.Random(seed)
    vals = tuple(rng.uniform(-1.0, 1.0) for _ in range(p))
    assert _hexes(_dirichlet_fences(vals)) == _hexes(_old_fences(vals))


@pytest.mark.parametrize("level", [6, 7, 8])
def test_dirichlet_fences_match_separate_bisections_on_the_sawtooth(level):
    vals = tuple(sawtooth_potential(chain_make([2], [2]), 8).level_values(level))
    assert _hexes(_dirichlet_fences(vals)) == _hexes(_old_fences(vals))


def test_dirichlet_fences_match_separate_bisections_where_the_count_is_not_monotone():
    # Exact zero pivots near -1e-300, where a nudge of -1e-300 made the count read 5, 6, 5.
    vals = (0.5, 2.0, -1.0, 0.0, 0.0, 0.0, 0.0) * 2
    e = float.fromhex("-0x1.56e1fc2f8f359p-997")
    below, above = math.nextafter(e, -math.inf), math.nextafter(e, math.inf)
    counts = [eigenvalue_count(vals[:-1], x) for x in (below, e, above)]
    assert counts == sorted(counts)
    assert _hexes(_dirichlet_fences(vals)) == _hexes(_old_fences(vals))


@pytest.mark.parametrize("vals", [(0.0, 1e308), (0.5, -1.2e308), (0.0, 1e308, 0.0)])
def test_dirichlet_fences_match_separate_bisections_near_the_float_range(vals):
    # outer - (-outer) overflows, and so does the difference of the determinants there
    assert _hexes(_dirichlet_fences(vals)) == _hexes(_old_fences(vals))


@pytest.mark.parametrize(
    "vals", [(1e308, 0.0), (-1e308, 0.0), (1e308, -1e308, 1e308), (0.0, 1.7e308, 0.0, -1.7e308)]
)
def test_dirichlet_fences_stay_finite_when_a_bracket_sum_overflows(vals):
    # Both ends of a bracket past about 9e307 overflow the sum in (lo + hi) / 2.
    fences = _dirichlet_fences(vals)
    outer = fences[-1]
    assert math.isfinite(outer) and fences[0] == -outer
    assert all(math.isfinite(f) and -outer <= f <= outer for f in fences)
    assert fences == sorted(fences)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=300)
@given(_finite, _finite)
@example(5e-324, 5e-324)  # the halves of a subnormal round: the sum must come first
def test_a_midpoint_whose_sum_is_finite_keeps_its_bits(lo, hi):
    assume(math.isfinite(lo + hi))
    assert spectral._midpoint(lo, hi).hex() == ((lo + hi) / 2.0).hex()


def test_hausdorff_sees_a_gap_midpoint_near_the_float_range():
    # 1.3e308 lies in a and 2e307 from both points of b; the gap's ends sum past the range
    a, b = BandSet(((1.2e308, 1.4e308),)), BandSet(((1.1e308, 1.1e308), (1.5e308, 1.5e308)))
    assert hausdorff_dist(a, b) == pytest.approx(2e307, rel=1e-12)


def test_bisect_stays_between_two_ends_near_the_float_range():
    for lo, hi in ((1e308, 1.5e308), (-1.5e308, -1e308), (8.9e307, 1.7e308)):
        mid = _bisect(lambda e: 0, lo, hi)
        assert lo < mid < hi


def _count_calls(monkeypatch, module, names):
    calls = {name: 0 for name in names}
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_dirichlet_fences_need_at_most_8_5_sturm_passes_per_fence(monkeypatch):
    # Bisecting each isolated fence to float resolution took about 47 counts,
    # and a secant with the Illinois halving 8.83 passes.
    vals = tuple(sawtooth_potential(chain_make([2], [2]), 8).level_values(8))
    names = ("eigenvalue_count", "_sturm_det", "_pivot_product")
    calls = _count_calls(monkeypatch, spectral, names)
    spectral._dirichlet_fences(vals)
    assert sum(calls.values()) <= 8.5 * (len(vals) - 1)


def test_dirichlet_fences_need_at_most_12_passes_per_fence_on_a_strongly_varying_period(
    monkeypatch,
):
    # V uniform in [-4, 4] has exponentially narrow bands and wide gaps, unlike
    # the sawtooth; the fences took 11.36 passes each when this bound was set
    rng = random.Random(1)
    vals = tuple(rng.uniform(-4.0, 4.0) for _ in range(256))
    names = ("eigenvalue_count", "_sturm_det", "_pivot_product")
    calls = _count_calls(monkeypatch, spectral, names)
    spectral._dirichlet_fences(vals)
    assert sum(calls.values()) <= 12 * (len(vals) - 1)


def test_dirichlet_fences_match_separate_bisections_when_end_counts_do_not_straddle(monkeypatch):
    # The outlying -10 and 10 put fences 1 and p - 1 in brackets that end at
    # -outer and outer, the only ends whose counts the multisection never uses.
    rng = random.Random(4)
    vals = (-10.0, *(rng.uniform(-1.0, 1.0) for _ in range(30)), 10.0, 0.0)
    outer = 13.0
    sturm_det = spectral._sturm_det

    def lying_at_the_outer_fences(values, E):
        count, det = sturm_det(values, E)
        # claim every eigenvalue left of -outer and none left of outer
        return {-outer: len(values), outer: 0}.get(E, count), det

    monkeypatch.setattr(spectral, "_sturm_det", lying_at_the_outer_fences)
    assert _hexes(spectral._dirichlet_fences(vals)) == _hexes(_old_fences(vals))


@pytest.mark.parametrize(
    "vals", [(-1e20, 0.0, 5.0), (2.0**60, 0.0, -1.0) * 3, (2.0**-120, 2.0**60, 0.0)]
)
def test_dirichlet_fences_match_separate_bisections_where_an_eigenvalue_lies_at_outer(vals):
    # 3 + ||V|| rounds to ||V||, so the count at -outer is above 0 or the count
    # at outer below p - 1, and an end fence's bracket does not straddle it.
    # In the last, fence 2's bracket [0, outer] counts 1 with determinant -1.0
    # at both ends, so a secant step between them would divide by zero.
    outer = 3.0 + max(abs(v) for v in vals)
    dirichlet = vals[:-1]
    assert outer == max(abs(v) for v in vals)
    ends = (eigenvalue_count(dirichlet, -outer), eigenvalue_count(dirichlet, outer))
    assert ends != (0, len(dirichlet))
    assert _hexes(_dirichlet_fences(vals)) == _hexes(_old_fences(vals))
    # the secant reads counts from signs only, so it searches only brackets
    # that straddle k; every other bracket is bisected on counts
    searches = _isolating_brackets(vals)
    assert searches and all((left[1], right[1]) == (k - 1, k) for k, left, right in searches)


def _isolating_brackets(vals):
    """``(k, left, right)`` of each ``_flip_point`` search in ``_dirichlet_fences(vals)``."""
    searches, search = [], spectral._flip_point

    def recorded(dirichlet, k, left, right):
        searches.append((k, left, right))
        return search(dirichlet, k, left, right)

    with mock.patch.object(spectral, "_flip_point", recorded):
        _dirichlet_fences(vals)
    return searches


@settings(deadline=None, max_examples=80)
@given(
    st.one_of(
        st.lists(st.floats(-4, 4, allow_nan=False), min_size=2, max_size=12),
        st.tuples(st.lists(_small_values, min_size=1, max_size=4), st.integers(2, 4)).map(
            lambda qk: qk[0] * qk[1]  # tiled: gaps not divisible by k are closed
        ),
        st.lists(st.integers(-2, 2).map(float), min_size=2, max_size=12),  # zero pivots
    ),
    st.sampled_from([1.0, 2.0**60]),
)
@example([2.0**-180, 1.0, 0.0], 2.0**60)  # equal determinants at both ends
def test_flip_point_ends_where_bisection_on_counts_ends(vals, scale):
    # At scale 2**60, 3 + ||V|| rounds to ||V|| and an end count may be off.
    vals = tuple(v * scale for v in vals)
    dirichlet = vals[:-1]
    for k, left, right in _isolating_brackets(vals):
        above = lambda e: 1 if eigenvalue_count(dirichlet, e) >= k else -1
        by_counts = _bisect(above, left[0], right[0])
        assert spectral._flip_point(dirichlet, k, left, right).hex() == by_counts.hex()


def test_dirichlet_fences_fall_back_to_counts_where_the_pivot_product_overflows(monkeypatch):
    # |V| up to 50 over 299 Dirichlet sites puts |det(H - E)| past the float
    # range at every guess, so each search bisects on counts from its first guess.
    rng = random.Random(1)
    vals = tuple(rng.uniform(-50.0, 50.0) for _ in range(300))
    product, overflowed = spectral._pivot_product, []

    def recorded(values, E):
        det = product(values, E)
        overflowed.append(math.isinf(det))
        return det

    monkeypatch.setattr(spectral, "_pivot_product", recorded)
    assert _hexes(spectral._dirichlet_fences(vals)) == _hexes(_old_fences(vals))
    # one product per search: after it overflows, the search counts
    assert overflowed and all(overflowed) and len(overflowed) <= len(vals) - 1


def test_flip_point_counts_a_guess_that_lands_on_a_zero_pivot(monkeypatch):
    # det(H - E) = 2 E - E**3 is odd, so the secant from -0.5 to 0.5 guesses 0,
    # where the first pivot 0 - E is exactly 0 and the product cannot be formed.
    dirichlet = (0.0, 0.0, 0.0)
    left, right = ((e, *spectral._sturm_det(dirichlet, e)) for e in (-0.5, 0.5))
    assert (left[1], right[1]) == (1, 2)
    product, raised = spectral._pivot_product, []

    def recorded(values, E):
        try:
            return product(values, E)
        except ZeroDivisionError:
            raised.append(E)
            raise

    monkeypatch.setattr(spectral, "_pivot_product", recorded)
    flip = spectral._flip_point(dirichlet, 2, left, right)
    assert raised == [0.0]
    by_counts = _bisect(lambda e: 1 if eigenvalue_count(dirichlet, e) >= 2 else -1, -0.5, 0.5)
    assert flip.hex() == by_counts.hex()
    assert eigenvalue_count(dirichlet, flip) >= 2 > eigenvalue_count(dirichlet, -5e-324)
    assert _bisect(lambda e: 1 if e >= flip else -1, -0.5, 0.5).hex() == by_counts.hex()


def _assert_fences_are_exact_count_changes(vals):
    # the exact count reaches k within 1e-12 above fence k, and not below it
    dirichlet, fences = vals[:-1], _dirichlet_fences(vals)
    delta = Fraction(1e-12)
    for k in range(1, len(vals)):
        assert exact_dirichlet_count(dirichlet, Fraction(fences[k]) + delta) >= k, k
        assert exact_dirichlet_count(dirichlet, Fraction(fences[k]) - delta) < k, k


@pytest.mark.parametrize("level", [3, 4, 5])
def test_dirichlet_fences_are_exact_count_changes_on_the_sawtooth(level):
    _assert_fences_are_exact_count_changes(
        tuple(sawtooth_potential(chain_make([2], [2]), 8).level_values(level))
    )


@settings(deadline=None, max_examples=100)
@given(st.lists(st.integers(-32, 32).map(lambda k: k / 16), min_size=1, max_size=32))
def test_dirichlet_fences_are_exact_count_changes_on_dyadic_periods(vals):
    _assert_fences_are_exact_count_changes(tuple(vals))


def test_bands_golden_digest():
    # sha256 of every band edge's hex at levels 6-8 of the sawtooth tower read
    # from base 37, recorded once each gap's model was built from three
    # discriminants at mu and mu -+ h, and the exact edge gates (levels 3-7
    # and the dyadic periods), the numpy oracle and the benchmark oracle had
    # passed.
    pot = sawtooth_potential(chain_make([2], [2]), 8, base=37)
    edges = " ".join(
        edge.hex()
        for level in (6, 7, 8)
        for interval in bands(pot.level_values(level), 1e-9).intervals
        for edge in interval
    )
    digest = hashlib.sha256(edges.encode()).hexdigest()
    assert digest == "58c21c7d7a07afb209b40475df11457c4481262126467d065fd388193d7fecc5"


def _assert_edges_are_exact_sign_changes(vals, band_set, tol):
    # |Delta| - 2 in exact arithmetic: above 0 just outside each band, below 0 just inside
    g = lambda e: abs(exact_delta(vals, e)) - 2
    for lo, hi in band_set.intervals:
        assert g(lo - tol) > 0 > g(lo + tol), (lo, hi)
        assert g(hi - tol) < 0 < g(hi + tol), (lo, hi)


@settings(deadline=None, max_examples=150)
@given(st.lists(st.integers(-32, 32).map(lambda k: k / 16), min_size=1, max_size=32))
def test_bands_edges_are_exact_sign_changes_on_dyadic_periods(vals):
    out = bands(vals, 1e-9)
    # A gap below 1e-6 may be a closed one that rounding opened, and a band
    # below 2 tol puts both probes of an edge outside it: the gate judges neither.
    edges = [e for interval in out.intervals for e in interval]
    assume(all(b - a > 1e-6 for a, b in zip(edges, edges[1:])))
    _assert_edges_are_exact_sign_changes(vals, out, 1e-9)


@pytest.mark.parametrize("level", [3, 4, 5, 6, 7])
def test_bands_edges_are_exact_sign_changes_on_the_sawtooth(level):
    # At levels 6 and 7 most edges are model roots that passed their check unpolished.
    vals = sawtooth_potential(chain_make([2], [2]), 8).level_values(level)
    out = bands(vals, 1e-9)
    assert len(out.intervals) == len(vals)
    _assert_edges_are_exact_sign_changes(vals, out, 1e-9)


def test_bands_bisect_the_wide_central_gap_where_the_model_fails(monkeypatch):
    vals = tuple(sawtooth_potential(chain_make([2], [2]), 8).level_values(6))
    model = spectral._gap_edges
    failed = []

    def recorded(vals, lo, mu, hi, tol):
        edges = model(vals, lo, mu, hi, tol)
        if edges is None:
            failed.append(mu)
        return edges

    monkeypatch.setattr(spectral, "_gap_edges", recorded)
    out = bands(vals, 1e-9)
    assert _dirichlet_fences(vals)[32] in failed
    np = pytest.importorskip("numpy")
    assert hausdorff_dist(out, _numpy_bands(np, vals)) <= 10 * 1e-9


def test_bands_need_at_most_10_discriminants_per_band(monkeypatch):
    # Bisecting every edge took about 47.  The model's three discriminants a
    # gap count here, and the whole takes about 8.6 a band.
    vals = tuple(sawtooth_potential(chain_make([2], [2]), 8).level_values(8))
    calls = _count_calls(monkeypatch, spectral, ("discriminant",))
    assert len(bands(vals, 1e-9).intervals) == len(vals)
    assert calls["discriminant"] <= 10 * len(vals)


def test_bands_polish_only_edges_that_fail_their_check(monkeypatch):
    # Two Newton steps on both edges of every gap made about 4 per band.  The
    # model takes 3 discriminants a gap, the checks of its raw roots 4 more,
    # and each step 2 more.
    vals = tuple(sawtooth_potential(chain_make([2], [2]), 8).level_values(8))
    calls = _count_calls(monkeypatch, spectral, ("discriminant",))
    model, in_model = spectral._gap_edges, []

    def recorded(*args):
        before = calls["discriminant"]
        edges = model(*args)
        in_model.append(calls["discriminant"] - before)
        return edges

    monkeypatch.setattr(spectral, "_gap_edges", recorded)
    assert len(bands(vals, 1e-9).intervals) == len(vals)
    assert len(in_model) == len(vals) - 1
    assert sum(in_model) <= 7 * len(in_model) + 2 * len(vals)


def _gap_of_the_sawtooth(level, j):
    vals = tuple(sawtooth_potential(chain_make([2], [2]), 8).level_values(level))
    return vals, _dirichlet_fences(vals)[j - 1 : j + 2]


def _is_gap_edge_pair(vals, l, r, half):
    # |Delta| - 2 in exact arithmetic changes sign within half of each edge
    g = lambda e: abs(exact_delta(vals, e)) - 2
    return g(l - half) < 0 < g(l + half) and g(r - half) > 0 > g(r + half)


def _checked_pairs(monkeypatch, vals, lo, mu, hi, half):
    """``_gap_edges`` at tol = 2 half, and the energies of its checks' discriminants in pairs.

    The model's own three discriminants come first, at mu - h, mu and mu + h.
    """
    delta, probes = spectral.discriminant, []

    def recorded(vals, E):
        probes.append(E)
        return delta(vals, E)

    monkeypatch.setattr(spectral, "discriminant", recorded)
    edges = spectral._gap_edges(vals, lo, mu, hi, 2 * half)
    h = 2.0**-20 * max(1.0, abs(mu))
    assert probes[:3] == [mu - h, mu, mu + h]
    checks = probes[3:]
    return edges, list(zip(checks[::2], checks[1::2]))


def test_gap_edges_keep_raw_model_roots_that_pass_their_check(monkeypatch):
    # Gap 7 at level 5 is 5.7e-5 wide, and both quadratic roots pass as they
    # are: each costs its check, Delta half into its band and half into the gap.
    vals, (lo, mu, hi) = _gap_of_the_sawtooth(5, 7)
    half = 0.5e-9
    (l, r), pairs = _checked_pairs(monkeypatch, vals, lo, mu, hi, half)
    assert pairs == [(l - half, l + half), (r + half, r - half)]
    assert lo < l <= mu <= r < hi
    assert _is_gap_edge_pair(vals, l, r, half)


def test_gap_edges_polish_a_raw_model_root_that_fails_its_check(monkeypatch):
    # Gap 5 at level 5: one quadratic root misses its check, and one Newton
    # step, from the two values of that check, fixes it.
    vals, (lo, mu, hi) = _gap_of_the_sawtooth(5, 5)
    half = 0.5e-9
    (l, r), pairs = _checked_pairs(monkeypatch, vals, lo, mu, hi, half)
    final = [(l - half, l + half), (r + half, r - half)]
    assert len(pairs) == 3 and all(pair in pairs for pair in final)
    (failed,) = (pair for pair in pairs if pair not in final)
    raw = spectral._midpoint(*failed)
    assert raw not in (l, r)
    assert not _is_gap_edge_pair(vals, *((raw, r) if raw < mu else (l, raw)), half)
    assert _is_gap_edge_pair(vals, l, r, half)


def test_bands_bisect_a_model_edge_that_lies_past_the_band_seed():
    # At tol = 0.1 gap 2's model edge passes its checks 0.017 inside band 2,
    # left of the point that bisection finds in the band, so the band's right
    # edge is bisected from that point instead.
    vals = (-3.2561450251658277, 3.531808276940911, 3.098270763226868, 0.6957544559848383)
    fences = _dirichlet_fences(vals)
    model_edge, _ = spectral._gap_edges(vals, *fences[1:4], 0.1)
    out = bands(vals, 0.1)
    assert len(out.intervals) == 4
    assert out.intervals[1][1] > model_edge + 0.02
    np = pytest.importorskip("numpy")
    assert hausdorff_dist(out, _numpy_bands(np, vals)) <= 0.1


def test_bands_free_potential():
    out = bands([0.0], tol=1e-9)
    assert len(out.intervals) == 1
    lo, hi = out.intervals[0]
    assert abs(lo + 2.0) < 1e-9 and abs(hi - 2.0) < 1e-9


def test_bands_period_two_quadratic_oracle():
    v = 1.0
    out = bands([v, 0.0], tol=1e-9)
    disc = math.sqrt(v * v + 16)
    expect = [((v - disc) / 2, min(0.0, v)), (max(0.0, v), (v + disc) / 2)]
    assert len(out.intervals) == 2
    for (lo, hi), (elo, ehi) in zip(out.intervals, expect):
        assert abs(lo - elo) < 1e-8 and abs(hi - ehi) < 1e-8


def test_bands_merge_at_degenerate_gap():
    out = bands([0.0, 0.0], tol=1e-9)
    assert len(out.intervals) == 1  # gap closes when the two values coincide


def test_bands_containment_and_count():
    for trial in range(25):
        rng = random.Random(trial)
        p = rng.randint(1, 6)
        vals = [rng.uniform(-2, 2) for _ in range(p)]
        sup = max(abs(v) for v in vals)
        out = bands(vals, tol=1e-7)
        assert 1 <= len(out.intervals) <= p
        assert out.intervals[0][0] >= -2 - sup - 1e-7
        assert out.intervals[-1][1] <= 2 + sup + 1e-7
    with pytest.raises(ValueError):
        bands([0.0], tol=0.0)


def test_bands_and_spectrum_approx_refuse_a_nan_or_infinite_tol():
    # NaN passed ``tol <= 0`` and gave three wrong intervals; inf merged every band.
    pot = sawtooth_potential(chain_make([2], [2]), 4)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            bands([0.0, 1.0, 0.5], bad)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            spectrum_approx(pot, 2, bad)


def test_bands_at_the_least_subnormal_tol_bisect_every_edge():
    # tol/2 rounds to 0 there, so no model edge can be checked; a Newton step
    # divided by it and raised ZeroDivisionError through ``spectrum``
    vals = sawtooth_potential(chain_make([2], [2]), 4).level_values(3)
    out = bands(vals, 5e-324)
    assert len(out.intervals) == len(vals)
    assert hausdorff_dist(out, bands(vals, 1e-9)) <= 1e-9


def test_bands_and_discriminant_refuse_an_empty_or_non_finite_period():
    for empty in ([], ()):
        with pytest.raises(ValueError, match="period values must be nonempty"):
            bands(empty)
        with pytest.raises(ValueError, match="period values must be nonempty"):
            discriminant(empty, 0.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="period values must be finite"):
            bands([0.0, bad, 1.0])


def test_bands_and_discriminant_read_a_period_of_ints_as_its_floats():
    ints, floats = [1, -2, 0, 3], [1.0, -2.0, 0.0, 3.0]
    assert bands(ints) == bands(floats)
    for E in (-3.1, 0.25, 2.0):
        assert discriminant(ints, E).hex() == discriminant(floats, E).hex()


def test_bands_where_floating_point_cannot_split_a_bracket():
    # mu_1 and mu_2 both lie within one ulp of 0.5, so the multisection's
    # bracket around them cannot be split and both fences take its midpoint.
    vals = (0.5, 1e300, 0.5, 0.0)
    fences = _dirichlet_fences(vals)
    assert fences == [-1e300, 0.5, 0.5, 1e300, 1e300]
    assert _hexes(fences) == _hexes(_old_fences(vals))
    assert len(bands(list(vals)).intervals) == 4


@pytest.fixture(scope="module")
def dyadic_spectra():
    """Band sets of the dyadic sawtooth tower at levels 4..8 (p = 16..256)."""
    pot = sawtooth_potential(chain_make([2], [2]), 8)
    return {level: spectrum_approx(pot, level, 1e-9) for level in range(4, 9)}


@pytest.mark.parametrize("level", [7, 8])
def test_bands_finds_every_open_gap(dyadic_spectra, level):
    # gaps 1 and p - 1 are open but narrow here; a grid scan used to miss them
    assert len(dyadic_spectra[level].band_set.intervals) == 2**level


def _numpy_bands(np, vals):
    """Band edges of a period from the periodic (phase 0) and antiperiodic
    (phase pi) eigenvalues of the p x p Jacobi matrix, touching bands merged."""
    p = len(vals)
    edges = []
    for corner in (1.0, -1.0):
        h = np.diag(np.array(vals, dtype=float)) + np.eye(p, k=1) + np.eye(p, k=-1)
        h[0, p - 1] += corner
        h[p - 1, 0] += corner
        edges.extend(np.linalg.eigvalsh(h))
    edges.sort()
    merged = []
    for lo, hi in zip(edges[::2], edges[1::2]):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return BandSet(tuple((float(lo), float(hi)) for lo, hi in merged))


@pytest.mark.parametrize("level", [4, 5, 6, 7, 8])
def test_bands_match_numpy_eigenvalue_oracle(dyadic_spectra, level):
    np = pytest.importorskip("numpy")
    approx = dyadic_spectra[level]
    vals = sawtooth_potential(chain_make([2], [2]), 8).level_values(level)
    assert hausdorff_dist(approx.band_set, _numpy_bands(np, vals)) <= 10 * 1e-9


def test_band_set_validation_and_measure():
    assert BandSet(((-2.0, 2.0),)).measure() == 4.0
    with pytest.raises(ValueError):
        BandSet(((0.0, 1.0), (0.5, 2.0)))
    with pytest.raises(ValueError):
        BandSet(((1.0, 0.0),))


def test_hausdorff_examples():
    x = BandSet(((0.0, 1.0),))
    y = BandSet(((0.0, 1.0), (2.0, 2.5)))
    assert hausdorff_dist(x, x) == 0.0
    assert hausdorff_dist(x, y) == 1.5
    assert hausdorff_dist(y, x) == 1.5
    assert hausdorff_dist(BandSet(()), BandSet(())) == 0.0
    assert hausdorff_dist(x, BandSet(())) == math.inf
    # interior gap midpoint dominates endpoint distances
    wide = BandSet(((0.0, 10.0),))
    split = BandSet(((0.0, 1.0), (9.0, 10.0)))
    assert hausdorff_dist(wide, split) == 4.0


def test_band_perturbation_certificate():
    for trial in range(10):
        rng = random.Random(100 + trial)
        vals = [rng.uniform(-1, 1) for _ in range(6)]
        delta = 0.1
        bumped = [v + rng.uniform(-delta, delta) for v in vals]
        d = hausdorff_dist(bands(vals, 1e-9), bands(bumped, 1e-9))
        assert d <= delta + 2e-9


def test_ids_outside_spectrum():
    pot = lambda n: 0.6 if n % 2 else -0.4
    assert ids(pot, -5.0, 2000) == 0.0
    assert ids(pot, 5.0, 2000) == 1.0


def test_ids_free_closed_form_spots():
    for E in (-1.5, -1.0, 0.0, 0.5, 1.9):
        want = math.acos(-E / 2) / math.pi
        assert abs(ids(ZERO, E, 10_000) - want) < 2e-3


def test_ids_free_against_explicit_eigenvalues():
    # Dirichlet eigenvalues of the free N-site matrix are 2 cos(pi k/(N+1))
    N = 400
    for E in (-1.2, 0.3, 1.7):
        explicit = sum(1 for k in range(1, N + 1) if 2 * math.cos(math.pi * k / (N + 1)) <= E)
        assert eigenvalue_count([0.0] * N, E) == explicit


def test_ids_zero_pivot_counts_eigenvalue():
    # E = 0 hits an exact eigenvalue of the 1-site leading minor of the free matrix
    assert eigenvalue_count([0.0, 0.0], 0.0) == 1


CHUNK = spectral._CHUNK


def _boundary_diagonals(n):
    """n random sites, a zero diagonal and a zero diagonal shifted one site."""
    rng = random.Random(n)
    return {
        "random": [rng.uniform(-2.5, 2.5) for _ in range(n)],
        "zero": [0.0] * n,
        "shifted": [1.0, 1.0, *[0.0] * (n - 2)][:n],
    }


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_eigenvalue_counts_match_the_count_over_the_whole_list(n):
    energies = [0.7, -3.0, 0.0, 2.9, -0.4, 0.0]  # unsorted, with the zero-pivot energy
    for sites in _boundary_diagonals(n).values():
        assert eigenvalue_counts(iter(sites), []) == []
        want = [eigenvalue_count(sites, E) for E in energies]
        assert eigenvalue_counts(iter(sites), energies) == want


def test_boundary_diagonals_put_a_zero_pivot_on_each_side_of_a_chunk_boundary():
    # At E = 0 a zero diagonal has a zero pivot, nudged to -5e-324, at every
    # odd site, so at the first site of the second chunk.  Shifted one site,
    # at every even site, so at the last site of the first chunk, and the
    # second chunk must go on from that pivot, not afresh.  The test above
    # counts both across the boundary.
    sites = _boundary_diagonals(2 * CHUNK + 1)
    assert spectral._pivot_count(sites["zero"][: CHUNK + 1], 0.0)[1] == -5e-324
    assert spectral._pivot_count(sites["shifted"][:CHUNK], 0.0)[1] == -5e-324


def test_ids_curve_of_noise_is_the_count_over_its_window():
    pot = iid_uniform_potential(3, -1.0, 1.0)
    grid = (-2.0, 0.1, 0.5, 2.5)
    want = tuple(eigenvalue_count(list(read_window(pot, 1, 3001)), E) / 3000 for E in grid)
    assert ids_curve(pot, grid, N=3000).values == want
    assert ids_curve(pot.value, grid, N=3000).values == want
    with pytest.raises(ValueError, match="potential kind 'iid' stores no period"):
        pot.window(1, 3001)


def test_ids_monotone_exact():
    rng = random.Random(17)
    vals = [rng.uniform(-1, 1) for _ in range(5)]
    pot = lambda n: vals[n % 5]
    grid = sorted(rng.uniform(-3.5, 3.5) for _ in range(201))
    curve = ids_curve(pot, grid, N=2000)
    assert all(b >= a for a, b in zip(curve.values, curve.values[1:]))


def test_ids_gap_values_are_rational():
    rng = random.Random(29)
    p, N = 6, 10_000
    vals = [rng.uniform(-1.5, 1.5) for _ in range(p)]
    spectrum = bands(vals, 1e-9)
    pot = lambda n: vals[n % p]
    window = [pot(i) for i in range(1, N + 1)]
    gaps = [
        (hi + lo2) / 2
        for (_, hi), (lo2, _) in zip(spectrum.intervals, spectrum.intervals[1:])
    ]
    assert gaps  # a random period-6 potential opens at least one gap
    for mid in gaps:
        k = eigenvalue_count(window, mid) / N
        assert abs(k - round(k * p) / p) <= 2 / N


def test_ids_curve_validation():
    with pytest.raises(ValueError):
        IDSCurve((0.0, -1.0), (0.1, 0.2))
    with pytest.raises(ValueError):
        IDSCurve((0.0,), (0.1, 0.2))

    def V(n):
        raise AssertionError(f"read site {n}")

    # the grid is checked before any site is read
    with pytest.raises(ValueError, match="energy grid must be ascending"):
        ids_curve(V, [1.0, 0.0], N=50_000)


def _ulps_from(x, n):
    """The float n steps above x (below for n < 0)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


def _count_both_ways(pot, a, N, energies):
    """``eigenvalue_count`` of the window ``pot.window(a, a + N)`` and of its list, per energy."""
    window = pot.window(a, a + N)
    sites = list(window)
    return [(eigenvalue_count(window, e), eigenvalue_count(sites, e)) for e in energies]


@settings(deadline=None, max_examples=100)
@given(
    st.lists(_small_values, min_size=1, max_size=33),
    st.integers(1, 3999),
    st.integers(-40, 40),
    st.floats(-8, 8),
    st.integers(0, 2**16),
    st.integers(-4, 4),
)
def test_periodic_window_count_matches_the_loop(vals, N, a, E, pick, ulps):
    # a random energy, and one a few ulps from a band edge
    edges = [x for band in bands(vals, 1e-9).intervals for x in band]
    energies = (E, _ulps_from(edges[pick % len(edges)], ulps))
    for fast, loop in _count_both_ways(periodic_potential(vals), a, N, energies):
        assert fast == loop


def _box_eigenvalues(np, sites):
    n = len(sites)
    return np.linalg.eigvalsh(np.diag(np.array(sites)) + np.eye(n, k=1) + np.eye(n, k=-1))


@settings(deadline=None, max_examples=60)
@given(
    st.lists(_small_values, min_size=1, max_size=33),
    st.integers(1, 500),
    st.integers(-40, 40),
    st.integers(0, 2**16),
    st.integers(-4, 4),
    st.booleans(),
)
def test_periodic_window_count_matches_the_loop_beside_box_eigenvalues(
    vals, N, a, pick, ulps, whole_periods
):
    # Beside eigenvalues of the box, and beside the Dirichlet eigenvalues of
    # its first p - 1 sites, which are eigenvalues of every box of kp - 1 sites.
    np = pytest.importorskip("numpy")
    p = len(vals)
    if whole_periods:
        N = max(N // p, 2) * p - 1
    pot = periodic_potential(vals)
    sites = list(pot.window(a, a + N))
    eig = _box_eigenvalues(np, sites)
    near = [eig[pick % N], eig[(3 * pick + 1) % N]]
    if p > 1:
        near.append(_box_eigenvalues(np, list(pot.window(a, a + p - 1)))[pick % (p - 1)])
    energies = [_ulps_from(float(e), ulps) for e in near]
    for fast, loop in _count_both_ways(pot, a, N, energies):
        assert fast == loop


def test_periodic_window_count_matches_the_loop_on_a_depth_8_tower():
    pot = sawtooth_potential(chain_make([2], [2]), 8, base=37)
    edges = [x for band in bands(pot.level_values(8), 1e-9).intervals[::17] for x in band]
    energies = [-2.4 + 0.23 * i for i in range(24)] + [_ulps_from(x, 2) for x in edges]
    for fast, loop in _count_both_ways(pot, 1, 30_000, energies):
        assert fast == loop


def _no_loop_over_a_window(monkeypatch):
    """Make the loop refuse a ``PeriodicWindow``; returns the list of refusals."""
    refused = []
    loop = spectral._pivot_count

    def pivot_count(values, E, d=math.inf):
        if isinstance(values, PeriodicWindow):
            refused.append(E)
            raise AssertionError("the loop ran over a periodic window")
        return loop(values, E, d)

    monkeypatch.setattr(spectral, "_pivot_count", pivot_count)
    return refused


def test_ids_of_a_periodic_potential_takes_no_loop_over_its_sites(monkeypatch):
    # Dirichlet eigenvalues of the free N-site box are 2 cos(pi j/(N + 1)), so
    # the count at E is N + 1 - ceil((N + 1) acos(E/2)/pi).  N = 10**12 sites
    # are too many for the loop, which would take hours.
    _no_loop_over_a_window(monkeypatch)
    N = 10**12
    grid = (-1.9, -0.7, 0.3, 1.1, 1.95)
    want = []
    for E in grid:
        x = (N + 1) * math.acos(E / 2) / math.pi
        assert 0.01 < x % 1 < 0.99  # far from an integer next to its rounding error
        want.append((N + 1 - math.ceil(x)) / N)
    assert ids_curve(periodic_potential([0.0]), grid, N=N).values == tuple(want)


def test_ids_falls_back_to_the_loop_where_the_monodromy_overflows(monkeypatch):
    # One period of [1e300, -1e300] multiplies by 1e600, and the closed form
    # refuses its ||V|| before it starts.  [1e150] * 3 passes that guard, and
    # its monodromy overflows.  No closed form: every energy runs the loop.
    grid = (-3.0, 0.0, 0.5, 2.0)
    for values in ([1e300, -1e300], [1e150] * 3):
        pot = periodic_potential(values)
        expect = [eigenvalue_count(list(pot.window(1, 1001)), e) / 1000 for e in grid]
        refused = _no_loop_over_a_window(monkeypatch)
        with pytest.raises(AssertionError, match="the loop ran"):
            ids_curve(pot, grid, N=1000)
        assert refused == [grid[0]]
        monkeypatch.undo()
        assert list(ids_curve(pot, grid, N=1000).values) == expect


def test_log_holder_report_shape():
    curve = IDSCurve((0.0, 0.001, 0.002), (0.1, 0.1, 0.4))
    report = log_holder_report(curve)
    assert report["max_log_holder"] == pytest.approx(0.3 * math.log(1000.0))
    assert len(report["pairs"]) == 2


def test_log_holder_stays_finite_at_a_subnormal_spacing():
    # 1 / 5e-321 overflows to inf, so a finite product needs -log(dE) here
    report = log_holder_report(IDSCurve((0.0, 5e-321, 1e-320), (0.0, 0.5, 1.0)))
    products = [r["log_holder"] for r in report["pairs"]]
    assert products == [0.5 * -math.log(5e-321)] * 2
    assert products[0] == pytest.approx(0.5 * 737.5, rel=1e-4)
    assert report["max_log_holder"] == products[0]


def test_log_holder_midpoint_does_not_overflow():
    pairs = log_holder_report(IDSCurve((0.1, 0.3, 1e308, 1.5e308), (0.0, 0.5, 0.5, 1.0)))["pairs"]
    assert [r["E"] for r in pairs] == [(0.1 + 0.3) / 2.0, (0.3 + 1e308) / 2.0, 1.25e308]


def test_spectrum_approx_finite_chain_is_exact():
    pot = sawtooth_potential(chain_make([2, 4]), 2)
    approx = spectrum_approx(pot, 2, tol=1e-9)
    assert approx.tail_bound == 0.0
    assert approx.period == 4
    assert approx.band_set == bands(pot.level_values(2), 1e-9)


def test_spectrum_approx_successive_levels_certificate():
    chain = chain_make([2], [2])
    pot = sawtooth_potential(chain, 8)
    tol = 1e-9
    prev = spectrum_approx(pot, 2, tol)
    for level in (3, 4):
        nxt = spectrum_approx(pot, level, tol)
        step = float(sawtooth_tail(chain, level - 1) - sawtooth_tail(chain, level))
        assert hausdorff_dist(prev.band_set, nxt.band_set) <= step + 2 * tol
        # diagnostic: total bandwidth shrinks as gaps open (not asserted as law)
        assert nxt.tail_bound < prev.tail_bound
        prev = nxt


def test_condition_a_ruled_chain():
    report = condition_a_check(chain_make([2], [2]), 8)
    assert report.scope == "all-levels"
    assert report.witness == 2
    assert report.sup_log_ratio == pytest.approx(2.0)
    assert not report.unbounded_trend


def test_condition_a_squaring_prefix():
    report = condition_a_check(chain_make([2, 4, 16, 256]), 4)
    assert report.scope == "prefix-only"
    assert report.witness == 2
    assert report.sup_log_ratio == pytest.approx(2.0)
    assert not report.unbounded_trend


def test_condition_a_factorial_prefix_flags_trend():
    entries = [2 ** math.factorial(j) for j in range(1, 10)]
    report = condition_a_check(chain_make(entries), 9)
    assert report.scope == "prefix-only"
    assert report.sup_log_ratio == pytest.approx(9.0)
    assert report.witness == 9
    assert report.unbounded_trend


def test_condition_a_sees_past_requested_depth_on_ruled_chains():
    # the big ratio hides beyond the probed prefix; the cycle still reveals it
    report = condition_a_check(chain_make([2], [2, 64]), 2)
    assert report.witness >= 4
    assert report.scope == "all-levels"


def test_condition_a_depth_validation():
    with pytest.raises(ValueError):
        condition_a_check(chain_make([2], [2]), 1)


_RESCALE = 2.0**512


def _per_step_transfer(V, E, n_start, n_end):
    """The transfer kernel that tests all four entries after every step: the oracle."""
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    log_scale = 0.0
    for n in range(n_start, n_end):
        a = E - V(n)
        m11, m12, m21, m22 = a * m11 - m21, a * m12 - m22, m11, m12
        mag = max(abs(m11), abs(m12), abs(m21), abs(m22))
        while mag > _RESCALE:
            if mag == math.inf:
                raise ValueError(f"transfer matrix overflowed at site {n}, E = {E!r}")
            m11 /= _RESCALE
            m12 /= _RESCALE
            m21 /= _RESCALE
            m22 /= _RESCALE
            log_scale += 512.0 * math.log(2.0)
            mag /= _RESCALE
    return TransferState(m11, m12, m21, m22, log_scale)


def _unbounded_log_size(V, E, n_start, n_end):
    """log of the largest |entry| of ``transfer_product``'s float steps, with no exponent range.

    Each number is a pair (m, e) for m * 2**e with 0.5 <= |m| < 1 or m = 0,
    so every product and difference rounds to 53 bits as in floating point
    but never overflows or underflows.  This is the oracle for a product that
    leaves the float range: it judges the rescaling, not the conditioning of
    the input.
    """

    def pair(x, e=0):
        m, k = math.frexp(x)
        return (m, e + k) if m else (0.0, 0)

    def times(a, x):
        m, k = math.frexp(a)
        return pair(m * x[0], k + x[1])

    def minus(x, y):
        if not y[0]:
            return x
        if not x[0]:
            return (-y[0], y[1])
        e = max(x[1], y[1])
        return pair(math.ldexp(x[0], x[1] - e) - math.ldexp(y[0], y[1] - e), e)

    m11, m12, m21, m22 = pair(1.0), (0.0, 0), (0.0, 0), pair(1.0)
    for n in range(n_start, n_end):
        a = E - V(n)
        m11, m21 = minus(times(a, m11), m21), m11
        m12, m22 = minus(times(a, m12), m22), m12
    m, e = max(((abs(m), e) for m, e in (m11, m12, m21, m22) if m), key=lambda x: (x[1], x[0]))
    return math.log(m) + e * math.log(2.0)


def _outcome(kernel, V, E, a, b):
    """Every field of the state, bitwise, or the text of the error raised."""
    try:
        state = kernel(V, E, a, b)
    except ValueError as exc:
        return str(exc)
    return tuple(x.hex() for x in (state.m11, state.m12, state.m21, state.m22, state.log_scale))


_wild_values = st.one_of(
    _small_values,
    st.floats(-1e150, 1e150),
    st.sampled_from([1e150, -1e150, 7e149, 1e200, -1e200, 0.0, -0.0]),
)


@settings(deadline=None, max_examples=400)
@given(
    st.lists(_wild_values, min_size=1, max_size=12),
    st.one_of(st.floats(-8, 8), st.sampled_from([5.0, -6.5, 1e100, 3e153]), st.integers(0, 11)),
    st.integers(-30, 30),
    st.integers(0, 300),
    st.booleans(),
)
@example([1e150, 1.0, -1e150, -2.5, 7e149, 7e149], 4, 5, 45, False)
# ill-conditioned: the same float steps are 1.0e-9 from the exact log size
@example([-1.0, 1e200, 0.0, 0.0, 0.0, 858401230167749.0, 0.0, 0.0, 15076350661.0, 0.0], 0, 0, 22, False)
def test_transfer_matches_the_per_step_kernel(vals, E, a, length, as_potential):
    """Rescales (gaps, |V| up to 1e150) decide as before, bitwise.

    A product the per-step kernel lets overflow (1e200) is rescaled before
    each step instead, and has the size of the same float steps run with no
    exponent range (``_unbounded_log_size``).  An int E picks
    a site value as the energy: a step with E = V(n) swaps the rows, so one
    column can stay small while only m12 passes the threshold.
    """
    if isinstance(E, int):
        E = vals[E % len(vals)]
    per_site = lambda n: vals[n % len(vals)]
    V = periodic_potential(vals) if as_potential else per_site
    expect = _outcome(_per_step_transfer, per_site, E, a, a + length)
    if not isinstance(expect, str):
        assert _outcome(transfer_product, V, E, a, a + length) == expect
        return
    assert "overflowed" in expect
    state = transfer_product(V, E, a, a + length)
    want = _unbounded_log_size(per_site, E, a, a + length)
    assert state.log_scale + math.log(state.norm()) == pytest.approx(want, rel=1e-13)


def test_transfer_rescales_as_often_as_the_per_step_kernel():
    pot = periodic_potential([1e150, -3e149, 7.0])
    new, old = transfer_product(pot, 0.5, -40, 300), _per_step_transfer(pot, 0.5, -40, 300)
    assert new.log_scale / (512.0 * math.log(2.0)) > 100
    assert new == old and new.log_scale.hex() == old.log_scale.hex()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_transfer_non_finite_sites_match_the_per_step_kernel(bad):
    # Not compared with the per-step kernel, which returns NaN entries here:
    # max() with a NaN first argument is NaN, so its rescale loop never runs.
    for site in (0, 1, 5):
        V = lambda n: bad if n == site else 0.25 * (n % 3)
        for E in (0.0, 3.0):
            expect = f"transfer step at site {site} is not finite: V = {bad!r}, E = {E!r}"
            assert _outcome(transfer_product, V, E, 0, 12) == expect
            with pytest.raises(ValueError, match=f"at site {site + 1} is not finite"):
                lyapunov_estimate(lambda n: V(n - 1), E, 12)
