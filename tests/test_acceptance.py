"""Acceptance suite: every criterion at its stated tolerance, one line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import math
import random
import time
from fractions import Fraction

from limitper import (
    PeriodicLayer,
    ProcyclicElement,
    SamplingFunction,
    bands,
    chain_make,
    eigenvalue_count,
    gordon_check,
    hausdorff_dist,
    hulls_isomorphic,
    ids_curve,
    iid_uniform_potential,
    lyapunov_estimate,
    metric,
    orbit_residues,
    periodic_potential,
    periodize,
    sampled_potential,
    sawtooth_potential,
    sawtooth_tail,
    spectrum_approx,
)

from helpers import divisibility_oracle, isomorphic_variant, random_chain, sawtooth_value

DYADIC = chain_make([2], [2])


def _verdict(num: int, ok: bool, desc: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    return ok


def test_criterion_1_sawtooth_value_and_speed():
    sawtooth_value(DYADIC, 40, 1)  # warm caches before timing
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        out = sawtooth_value(DYADIC, 40, 1)
        best = min(best, time.perf_counter() - t0)
    err = abs(out.value - float(Fraction(1, 7)))
    ok = err < 1e-11 and best < 1e-3
    assert _verdict(
        1, ok, f"sawtooth sum at J=40 within {err:.2e} of 1/7 in {best * 1e6:.0f} us"
    )


def _seeded_pairs(count: int):
    rng = random.Random(20260811)
    pairs = []
    for _ in range(count):
        a = random_chain(rng)
        if rng.random() < 0.5:
            b = isomorphic_variant(rng, a)
        else:
            b = random_chain(rng)
            while set(a.limit().primes()) == set(b.limit().primes()):
                b = random_chain(rng)
        pairs.append((a, b))
    return pairs


def test_criterion_2_classification_equivalence():
    pairs = _seeded_pairs(200)
    t0 = time.perf_counter()
    agree = sum(
        hulls_isomorphic(a, b).isomorphic == divisibility_oracle(a, b)
        for a, b in pairs
    )
    elapsed = time.perf_counter() - t0
    ok = agree == 200 and elapsed < 1.0
    assert _verdict(
        2, ok, f"supernatural route matches divisibility search on {agree}/200 pairs in {elapsed:.2f} s"
    )


def test_criterion_3_subchain_invariance():
    rng = random.Random(31415)
    hits = 0
    for _ in range(50):
        chain = random_chain(rng)
        step = rng.randint(2, 4)
        hits += hulls_isomorphic(chain, chain.subchain(step)).isomorphic
    assert _verdict(3, hits == 50, f"step-t subchains isomorphic on {hits}/50 chains")


def test_criterion_4_generator_orbit_coverage():
    full = len(set(orbit_residues(DYADIC, 3, 10, 1024)))
    half = len(set(orbit_residues(DYADIC, 2, 10, 1024)))
    rng = random.Random(271828)
    matches = 0
    for _ in range(100):
        chain = random_chain(rng)
        k = rng.randint(-10**6, 10**6)
        n = chain.nth_term(5)
        matches += len(set(orbit_residues(chain, k, 5, n))) == n // math.gcd(k, n)
    ok = full == 1024 and half == 512 and matches == 100
    assert _verdict(
        4, ok, f"orbit coverage: k=3 hits {full}/1024, k=2 hits {half}, gcd formula {matches}/100"
    )


def test_criterion_5_metric_axioms_exact():
    rng = random.Random(16180)
    clean = 0
    for _ in range(100):
        chain = random_chain(rng)
        n20 = chain.nth_term(20)
        a, b, c = (
            ProcyclicElement.from_int(chain, 20, rng.randrange(n20)) for _ in range(3)
        )
        sym = metric(a, b).value == metric(b, a).value
        tri = metric(a, c).value <= metric(a, b).value + metric(b, c).value
        clean += sym and tri and metric(a, a).value == 0
    assert _verdict(5, clean == 100, f"exact dyadic metric axioms on {clean}/100 triples")


def test_criterion_6_free_operator_closed_forms():
    t0 = time.perf_counter()
    free = bands([0.0], tol=1e-9)
    (lo, hi) = free.intervals[0]
    edges_ok = len(free.intervals) == 1 and abs(lo + 2) < 1e-9 and abs(hi - 2) < 1e-9

    grid = [-2 + 4 * i / 102 for i in range(1, 102)]
    curve = ids_curve(lambda n: 0.0, grid, N=10_000)
    ids_err = max(
        abs(v - math.acos(-e / 2) / math.pi) for e, v in zip(curve.energies, curve.values)
    )
    lyap = lyapunov_estimate(lambda n: 0.0, 3.0, 100_000)
    lyap_err = abs(lyap - math.log((3 + math.sqrt(5)) / 2))
    elapsed = time.perf_counter() - t0
    ok = edges_ok and ids_err < 2e-3 and lyap_err < 1e-4 and elapsed < 5.0
    assert _verdict(
        6,
        ok,
        f"free bands [-2,2], ids err {ids_err:.1e} over 101 points, "
        f"lyapunov err {lyap_err:.1e}, in {elapsed:.2f} s",
    )


def test_criterion_7_period_two_band_edges():
    out = bands([1.0, 0.0], tol=1e-9)
    disc = math.sqrt(17.0)
    expect = [((1 - disc) / 2, 0.0), (1.0, (1 + disc) / 2)]
    err = max(
        max(abs(lo - elo), abs(hi - ehi))
        for (lo, hi), (elo, ehi) in zip(out.intervals, expect)
    )
    ok = len(out.intervals) == 2 and err < 1e-8
    assert _verdict(7, ok, f"period-2 (1,0) edges match quadratic roots within {err:.1e}")


def test_criterion_8_perturbation_certificate():
    t0 = time.perf_counter()
    pot = sawtooth_potential(DYADIC, 8)
    tol = 1e-9
    ok = True
    worst = 0.0
    prev = spectrum_approx(pot, 2, tol)
    for level in range(3, 7):
        nxt = spectrum_approx(pot, level, tol)
        dist = hausdorff_dist(prev.band_set, nxt.band_set)
        step = float(sawtooth_tail(DYADIC, level - 1) - sawtooth_tail(DYADIC, level))
        ok = ok and dist <= step + 2 * tol
        worst = max(worst, dist - step)
        prev = nxt
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    assert _verdict(
        8,
        ok,
        f"hausdorff(bands_J, bands_J+1) within layer sup + 2 tol for J=2..5 "
        f"(worst slack {worst:.1e}) in {elapsed:.1f} s",
    )


def test_criterion_9_gordon_checker():
    periodic = periodic_potential([0.5, -0.25, 0.75, 0.0])
    report = gordon_check(periodic, [4, 8, 12])
    periodic_ok = report.passed and all(m.max_diff == 0.0 for m in report.margins)
    noisy = gordon_check(iid_uniform_potential(7), [2, 4, 8])
    noisy_ok = not noisy.passed and any(not m.passed for m in noisy.margins[:3])
    ok = periodic_ok and noisy_ok
    assert _verdict(
        9, ok, "4-periodic passes with zero margins; seeded noise fails by scale 3"
    )


def test_criterion_10_periodization():
    chain = chain_make([2, 4])
    a, b, c, d = 0.5, -0.25, 0.125, 1.0
    f = SamplingFunction(
        chain, (PeriodicLayer(2, (0.0, 0.0)), PeriodicLayer(4, (a, b, c, d)))
    )
    g = periodize(f, 1)
    oracle = ((a + c) / 2, (b + d) / 2, (a + c) / 2, (b + d) / 2)
    exact = g.layers[1].values == oracle
    ident = ProcyclicElement.identity(chain, 2)

    def two_periodic(fn, k):
        pot = sampled_potential(fn, ident, k, 1e-9)
        return all(pot(n + 2) == pot(n) for n in range(-8, 8))

    verdicts = (two_periodic(g, 1), two_periodic(g, 3))
    before = (two_periodic(f, 1), two_periodic(f, 3))
    ok = exact and verdicts == (True, True) and before[0] == before[1]
    assert _verdict(
        10, ok, "coset averages exact; 2-periodicity identical for generators 1 and 3"
    )


def test_criterion_11_ids_structure():
    rng = random.Random(9241)
    N = 10_000
    monotone = True
    rational = True
    for trial in range(3):
        p = rng.choice([4, 5, 6, 8])
        vals = [rng.uniform(-1.5, 1.5) for _ in range(p)]
        window = [vals[(i - 1) % p] for i in range(1, N + 1)]
        grid = sorted(rng.uniform(-4, 4) for _ in range(120))
        counts = [eigenvalue_count(window, e) for e in grid]
        monotone = monotone and all(y >= x for x, y in zip(counts, counts[1:]))
        spectrum = bands(vals, 1e-9)
        for (_, hi), (lo2, _) in zip(spectrum.intervals, spectrum.intervals[1:]):
            k = eigenvalue_count(window, (hi + lo2) / 2) / N
            rational = rational and abs(k - round(k * p) / p) <= 2 / N
    ok = monotone and rational
    assert _verdict(
        11, ok, "integer inertia counts nondecreasing; gap values rational r/p within 2/N"
    )
