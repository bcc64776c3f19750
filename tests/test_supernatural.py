import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from limitper import INF, Supernatural, factorize, is_prime
from limitper import supernatural as supernatural_module

S = Supernatural.from_factors


def test_format_round_trip():
    cases = [({}, "1"), ({2: 3}, "2^3"), ({2: INF, 3: 4}, "2^inf*3^4"),
             ({5: 1, 11: INF}, "5^1*11^inf")]
    for factors, text in cases:
        assert S(factors).format() == text


def test_divides_examples():
    assert S({2: 3}).divides(S({2: INF}))
    assert not S({2: 1, 3: 1}).divides(S({2: INF}))
    # pointwise exponent comparison, prime by prime
    a, b = S({2: INF, 3: 2}), S({2: INF, 3: 2, 5: 1})
    assert all(a.exponent(p) <= b.exponent(p) for p in (2, 3, 5))
    assert a.divides(b)
    assert not b.divides(a)


def test_lcm_gcd_examples():
    assert S({2: 1}).lcm(S({3: 1})) == S({2: 1, 3: 1})
    a, b = S({2: INF, 3: 2}), S({2: 4})
    # pointwise min oracle
    assert {p: min(a.exponent(p), b.exponent(p)) for p in (2, 3) if min(a.exponent(p), b.exponent(p))} == {2: 4}
    assert a.gcd(b) == S({2: 4})
    assert S({2: 1}).gcd(S({3: 1})) == Supernatural(())


def test_equality_is_the_isomorphism_invariant():
    assert S({2: INF}) == S({2: INF})
    assert S({2: INF}) != S({2: INF, 3: 1})
    from limitper import chain_make

    # chains 2,4,8,... and 4,16,64,... present the same hull
    assert chain_make([2], [2]).limit() == chain_make([4], [4]).limit()


def test_inf_is_not_an_integer_exponent():
    n = S({2: INF})
    assert n.exponent(2) == INF
    assert not isinstance(n.exponent(2), int)


def test_validation_rejects_bad_factors():
    with pytest.raises(ValueError):
        S({4: 1})
    with pytest.raises(ValueError):
        S({2: -1})
    with pytest.raises(ValueError):
        S({2: 1.5})


supernaturals = st.builds(
    Supernatural.from_factors,
    st.dictionaries(
        st.sampled_from([2, 3, 5, 7, 11]),
        st.one_of(st.integers(1, 6), st.just(INF)),
        max_size=4,
    ),
)


@given(supernaturals, supernaturals, supernaturals)
def test_divisibility_partial_order(a, b, c):
    assert a.divides(a)
    if a.divides(b) and b.divides(a):
        assert a == b
    if a.divides(b) and b.divides(c):
        assert a.divides(c)


@given(supernaturals, supernaturals)
def test_gcd_lcm_lattice(a, b):
    g, l = a.gcd(b), a.lcm(b)
    assert g.divides(a) and g.divides(b)
    assert a.divides(l) and b.divides(l)


@given(st.integers(1, 10**6), st.integers(1, 10**6))
def test_finite_agreement_with_integer_arithmetic(x, y):
    a, b = S(factorize(x)), S(factorize(y))
    assert a.lcm(b) == S(factorize(math.lcm(x, y)))
    assert a.gcd(b) == S(factorize(math.gcd(x, y)))
    assert a.divides(b) == (y % x == 0)


def test_primality_against_sieve():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 45):
        if sieve[i]:
            for j in range(i * i, 2000, i):
                sieve[j] = False
    for n in range(2000):
        assert is_prime(n) == sieve[n]
    assert is_prime(2**61 - 1)
    assert is_prime(2**64 + 13)
    with pytest.raises(ValueError):
        is_prime(2**89 - 1)


@given(st.integers(2, 10**9))
def test_factorize_reconstructs(n):
    factors = factorize(n)
    assert math.prod(p**e for p, e in factors.items()) == n
    assert all(is_prime(p) for p in factors)


def test_factorize_smooth_numbers_past_two_to_64():
    assert factorize(2**70 * 3**5) == {2: 70, 3: 5}
    assert factorize(3 * (2**64 + 13)) == {3: 1, 2**64 + 13: 1}
    with pytest.raises(ValueError):
        factorize(3 * (2**89 - 1))  # a prime cofactor past psi_13 cannot be certified


PSI_12 = 318665857834031151167461  # strong pseudoprime to the bases 2, 3, ..., 37
PSI_13 = 3317044064679887385961981  # ... and to 41; the first n the witnesses cannot decide


def test_primality_past_two_to_64_up_to_psi_13():
    assert not is_prime(PSI_12)  # only the base 41 exposes it
    assert factorize(PSI_12) == {399165290221: 1, 798330580441: 1}
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        is_prime(PSI_13)


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def test_factorize_seeded_products_of_40_bit_primes():
    rng = random.Random(11)
    for _ in range(20):
        p, q = (_next_prime(rng.randrange(2**39, 2**40)) for _ in range(2))
        assert p * q > 2**64
        factors = factorize(p * q)
        assert math.prod(f**e for f, e in factors.items()) == p * q
        assert factors == ({p: 2} if p == q else {p: 1, q: 1})


def test_factorize_products_of_primes_just_past_trial_division(monkeypatch):
    """Every p*q with 1009 <= p <= q < 1400 factors, including those whose rho
    batch gcd is n and must be replayed step by step (1009 * 1049 is one)."""
    replayed = []

    def gcd(a, n):
        d = math.gcd(a, n)
        if d == n:
            replayed.append(n)
        return d

    monkeypatch.setattr(supernatural_module, "math", SimpleNamespace(gcd=gcd))
    primes = [p for p in range(1009, 1400) if is_prime(p)]
    for i, p in enumerate(primes):
        for q in primes[i:]:
            assert factorize(p * q) == ({p: 2} if p == q else {p: 1, q: 1})
    assert replayed


def test_factorize_refuses_a_large_prime_cofactor_at_psi_13_and_above():
    big = 2**89 - 1  # a Mersenne prime, about 6.2e26
    for n in (big, 1009 * big, PSI_13):
        with pytest.raises(ValueError, match="psi_13"):
            factorize(n)


# Trial division stops below 1000, so each of these leaves a composite
# cofactor that Pollard rho has to split; the last is past 2**64.
@pytest.mark.parametrize("n", [1000003 * 1000033, 1009**2, (2**31 - 1) ** 2,
                               4294967291 * 4294967279, 999983**3,
                               1099511627791 * 1099511627803])
def test_factorize_splits_composite_cofactors(n):
    factors = factorize(n)
    assert math.prod(p**e for p, e in factors.items()) == n
    assert all(is_prime(p) for p in factors)
