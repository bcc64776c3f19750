import cmath
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from limitper import (
    INF,
    FrequencyChain,
    Supernatural,
    bohr_coefficient,
    chain_make,
    hulls_isomorphic,
    factorize,
    maximal_chain,
)
from limitper.frequency import first_level_divisible

from helpers import divisibility_oracle, isomorphic_variant, random_chain, sawtooth_value


def test_chain_make_examples():
    assert chain_make([2], [2]).terms(5) == [2, 4, 8, 16, 32]
    assert chain_make([2, 6], [2, 3]).terms(6) == [2, 6, 12, 36, 72, 216]


@pytest.mark.parametrize(
    "prefix,rule",
    [([2, 3], ()), ([], ()), ([2], [1]), ([4, 2], ()), ([2, 2], ()), ([0], ()),
     ([True, 2], [2]), ([1, 2], [True])],  # True is an int equal to 1, but not an entry
)
def test_chain_make_rejects(prefix, rule):
    with pytest.raises(ValueError):
        chain_make(prefix, rule)


def test_chain_accepts_leading_one():
    chain = chain_make([1, 2], [3])
    assert chain.terms(4) == [1, 2, 6, 18]


def test_nth_term_matches_incremental():
    chain = chain_make([2, 6], [2, 3, 7])
    terms = chain.terms(20)
    assert [chain.nth_term(j) for j in range(1, 21)] == terms
    with pytest.raises(ValueError):
        chain_make([2, 4]).nth_term(3)


def _exponent_in(n, p):
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def test_chain_limit_examples():
    assert chain_make([2], [2]).limit() == Supernatural.from_factors({2: INF})
    assert chain_make([6], [2]).limit() == Supernatural.from_factors({2: INF, 3: 1})
    assert chain_make([2, 4]).limit() == Supernatural.from_factors({2: 2})


@settings(deadline=None)
@given(st.integers(0, 10**6))
def test_chain_limit_is_exponent_sup(seed):
    # Oracle: exponents of materialized deep entries match the limit exactly for
    # finite exponents and keep growing past any bound for the infinite ones.
    chain = random_chain(random.Random(seed))
    limit = chain.limit()
    deep = chain.nth_term(40)
    shallow = chain.nth_term(len(chain.prefix))
    for p, e in limit.pairs:
        if e == INF:
            assert _exponent_in(deep, p) > _exponent_in(chain.nth_term(20), p) > 0
        else:
            assert _exponent_in(shallow, p) == e
            assert _exponent_in(deep, p) == e


def test_hulls_isomorphic_examples():
    a = chain_make([2], [2])
    assert hulls_isomorphic(a, chain_make([4], [4])).isomorphic
    cmp = hulls_isomorphic(a, chain_make([3], [3]))
    assert not cmp.isomorphic
    assert cmp.blocker == ("a", 2)  # 2 divides no power of 3
    assert hulls_isomorphic(a, a).isomorphic


def test_blocker_entry_past_the_factorization_limit():
    # The blocker 2**64 lies past the factoring limit; its level is found by gcd growth.
    dyadic, finite = chain_make([2], [2]), FrequencyChain((2**63,))
    cmp = hulls_isomorphic(dyadic, finite)
    assert not cmp.isomorphic
    assert cmp.blocker == ("a", 2**64)
    assert hulls_isomorphic(finite, dyadic).blocker == ("b", 2**64)


def test_blocker_against_a_smooth_entry_past_the_factorization_limit():
    cmp = hulls_isomorphic(chain_make([2], [2]), FrequencyChain((1, 2**70)))
    assert cmp.order_b == Supernatural.from_factors({2: 70})
    assert cmp.blocker == ("a", 2**71)


def _first_level_by_factors(chain, n, n_factors):
    """The factor-based level search that gcd growth replaced, frozen as an oracle."""
    need = Supernatural.from_factors(n_factors)
    if not need.divides(chain.limit()):
        return None
    max_exp = max((int(e) for _, e in need.pairs), default=0)
    cycle = len(chain.rule) if chain.rule else 0
    cap = len(chain.prefix) + cycle * (max_exp + 1) + 1
    if not chain.rule:
        cap = len(chain.prefix)
    for j in range(1, cap + 1):
        if chain.nth_term(j) % n == 0:
            return j
    raise AssertionError(f"divisibility level for {n} not found within {cap} entries")


def _past_two_to_64(p):
    t = 1
    while p**t < 2**64:
        t += 1
    return t


@st.composite
def chains_and_divisors(draw):
    """A ruled or finite chain (maybe with a leading 1), n and n's factorization.

    n is an entry times a small cofactor, an entry times a prime no ratio has
    (so n divides nothing), or a prime power past 2**64 with its known factors.
    """
    prefix = [draw(st.sampled_from([1, 2, 3, 4, 6, 12, 30, 210]))]
    for r in draw(st.lists(st.integers(2, 12), max_size=3)):
        prefix.append(prefix[-1] * r)
    chain = FrequencyChain(tuple(prefix), tuple(draw(st.lists(st.integers(2, 12), max_size=3))))
    kind = draw(st.sampled_from(["entry", "nowhere", "prime power"]))
    if kind == "prime power":
        p = draw(st.sampled_from([2, 3, 5, 7, 11]))
        t = _past_two_to_64(p) + draw(st.integers(0, 2))
        return chain, p**t, {p: t}
    levels = len(prefix) + (8 if chain.rule else 0)
    entry = chain.nth_term(draw(st.integers(1, levels)))
    cofactors = [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 25] if kind == "entry" else [13, 17, 13 * 17]
    n = entry * draw(st.sampled_from(cofactors))
    return chain, n, factorize(n)


@settings(deadline=None, max_examples=300)
@given(chains_and_divisors())
# gcd(9, n_j) stays 1 from entry 1 to entry 2 and only grows over the full cycle [2, 3]
@example((chain_make([2], [2, 3]), 9, {3: 2}))
@example((chain_make([1, 2]), 4, {2: 2}))
def test_first_level_divisible_matches_the_factor_based_search(case):
    chain, n, n_factors = case
    assert first_level_divisible(chain, n) == _first_level_by_factors(chain, n, n_factors)


def _first_level_by_walk(chain, n):
    """The level-by-level gcd walk that bisection over rule cycles replaced, frozen as an oracle."""
    for j, value in enumerate(chain.prefix, start=1):
        if value % n == 0:
            return j
    if not chain.rule:
        return None
    j, missing, before = len(chain.prefix), n // math.gcd(n, chain.prefix[-1]), None
    while missing != before:
        before = missing
        for r in chain.rule:
            missing //= math.gcd(missing, r)
            j += 1
            if missing == 1:
                return j
    return None


def test_first_level_divisible_matches_the_level_by_level_walk():
    rng = random.Random(20261021)
    for _ in range(1500):
        chain = random_chain(rng)
        if rng.random() < 0.2:
            chain = FrequencyChain(chain.prefix)
        kind = rng.randrange(3)
        if kind == 0:  # a deep entry's divisor times a small cofactor
            entry = chain.nth_term(rng.randint(1, len(chain.prefix) + (40 if chain.rule else 0)))
            n = math.gcd(entry, rng.randint(1, 10**12)) * rng.choice([1, 2, 3, 5, 7, 13])
        elif kind == 1:  # a power of a rule ratio, maybe with a prime no ratio has
            n = rng.choice(chain.rule or (2,)) ** rng.randint(1, 60) * rng.choice([1, 1, 17])
        else:
            n = rng.randint(1, 10**6)
        assert first_level_divisible(chain, n) == _first_level_by_walk(chain, n), (chain, n)


def test_first_level_divisible_of_a_deep_power():
    # 98,001 levels deep, where a level-by-level walk takes seconds
    assert first_level_divisible(chain_make([2], [2]), 2**98001) == 98001
    # entry j holds 2**(1 + ceil((j - 1) / 2)), and 3 from entry 3 on
    assert first_level_divisible(chain_make([2], [2, 3]), 2**5000 * 3) == 9998


def test_certificate_witnesses_really_divide():
    a = chain_make([2], [2])
    b = chain_make([4], [4])
    cmp = hulls_isomorphic(a, b)
    b_entries = set(b.terms(40))
    for entry, witness in cmp.forward:
        assert witness % entry == 0 and witness in b_entries
    a_entries = set(a.terms(40))
    for entry, witness in cmp.backward:
        assert witness % entry == 0 and witness in a_entries


def test_maximal_chain_examples():
    assert maximal_chain(chain_make([2, 12, 24])).prefix == (2, 4, 12, 24)
    assert maximal_chain(chain_make([2, 4, 8])).prefix == (2, 4, 8)


def test_maximal_chain_refines_rules():
    chain = chain_make([2], [6])
    refined = maximal_chain(chain)
    assert refined.rule == (2, 3)
    # refined chain contains the original entries as a subsequence
    original = chain.terms(8)
    refined_terms = refined.terms(30)
    assert all(n in refined_terms for n in original)
    # all consecutive ratios prime
    from limitper import is_prime

    for i in range(1, 25):
        assert is_prime(refined_terms[i] // refined_terms[i - 1])


def test_maximal_chain_depth_materializes():
    chain = chain_make([2], [2, 3])
    refined = maximal_chain(chain, depth=4)
    assert refined.prefix[-1] == chain.nth_term(4)
    assert refined.terms(12) == maximal_chain(chain).terms(12)
    with pytest.raises(ValueError):
        maximal_chain(chain_make([2, 4]), depth=1)


@settings(deadline=None)
@given(st.integers(0, 10**6))
def test_maximal_chain_preserves_limit_and_hull(seed):
    chain = random_chain(random.Random(seed))
    refined = maximal_chain(chain)
    assert refined.limit() == chain.limit()
    assert hulls_isomorphic(chain, refined).isomorphic


@settings(deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4))
def test_subchain_invariance(seed, step):
    chain = random_chain(random.Random(seed))
    assert hulls_isomorphic(chain, chain.subchain(step)).isomorphic


def test_subchain_refuses_a_step_below_one():
    with pytest.raises(ValueError, match="step must be >= 1"):
        chain_make([2], [2]).subchain(0)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_classification_agrees_with_divisibility_search(seed_a, seed_b):
    rng = random.Random(seed_a * 2_000_003 + seed_b)
    a = random_chain(rng)
    if rng.random() < 0.5:
        # same hull, different presentation: witnesses provably within the probe
        b = isomorphic_variant(rng, a)
    else:
        # independent draw; redraw until the limits differ in prime sets so the
        # finite-depth divisibility probe is decisive
        b = random_chain(rng)
        while set(a.limit().primes()) == set(b.limit().primes()):
            b = random_chain(rng)
    assert hulls_isomorphic(a, b).isomorphic == divisibility_oracle(a, b)


def test_bohr_constant_potential():
    c = 0.75
    out = bohr_coefficient(lambda k: c, 1, 500)
    # 2N + 1 samples of c averaged over 2N + 1: the mean itself, up to rounding
    assert abs(out - c) < 1e-12


def test_bohr_cosine_line():
    d = lambda k: math.cos(2 * math.pi * k / 4)
    out = bohr_coefficient(d, 4, 4000)
    assert abs(out - 0.5) < 1e-3


def test_bohr_off_module_frequency_vanishes():
    chain = chain_make([2], [2])
    depth = 10
    period = chain.nth_term(depth)
    table = [sawtooth_value(chain, depth, k).value for k in range(period)]
    out = bohr_coefficient(lambda k: table[k % period], 3, 100_000)
    assert abs(out) < 1e-3


def test_bohr_exact_dft_on_periodic_approximant():
    chain = chain_make([2], [2])
    depth = 4
    period = chain.nth_term(depth)  # 16
    table = [sawtooth_value(chain, depth, k).value for k in range(period)]
    d = lambda k: table[k % period]
    N = period * 250
    for q in (2, 4, 8, 16):
        dft = sum(table[t] * cmath.exp(-2j * math.pi * t / q) for t in range(period)) / period
        # the 2N window samples -N..N-1 are whole periods with mean dft; the
        # sample at k = N (phase 1 since q | N) is d(0)
        expect = (2 * N * dft + d(0)) / (2 * N + 1)
        got = bohr_coefficient(d, q, N)
        assert abs(got - expect) <= 1e-12 * max(1.0, abs(expect))


def test_chain_json_round_trip():
    chain = chain_make([2, 6], [2, 3])
    assert FrequencyChain(**chain.to_json_dict()) == chain
    assert chain_make([2, 4]).to_json_dict() == {"prefix": [2, 4]}
