"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the library internals it
checks: the sawtooth and distance towers are summed term by term from their
closed forms (not read from layer tables or ``procyclic.metric``), transfer
products are redone in exact rational arithmetic, hull classification is
re-verified by direct divisibility search, and chain generators only use the
public constructor.
"""

import decimal
import math
import random
import tracemalloc
from fractions import Fraction
from typing import NamedTuple

from limitper import FrequencyChain, maximal_chain, sawtooth_tail


class ValueTail(NamedTuple):
    value: float
    tail_bound: float


def sawtooth_value(chain: FrequencyChain, depth: int, k: int) -> ValueTail:
    """Partial sum ``sum_{j <= depth} (k mod n_j) / n_j**3`` with its tail bound.

    The sawtooth tower summed term by term instead of read from layer tables.
    The tail bound is the least float at or above the exact tail.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    value = 0.0
    for n in chain.terms(depth):
        value += (k % n) / n**3
    tail = sawtooth_tail(chain, depth)
    bound = float(tail)
    if Fraction(bound) < tail:
        bound = math.nextafter(bound, math.inf)
    return ValueTail(value, bound)


def metric_value(chain: FrequencyChain, depth: int, k: int) -> tuple[Fraction, Fraction]:
    """Exact dyadic distance from the k-th orbit point to the identity, with tail 2**-depth.

    The closed form, kept apart from ``procyclic.metric`` so that tests can check it.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    value = Fraction(0)
    for j, n in enumerate(chain.terms(depth), start=1):
        if k % n != 0:
            value += Fraction(1, 2 ** (j + 1))
    return value, Fraction(1, 2**depth)


def transfer_det(state) -> float:
    """Determinant of a ``TransferState``'s full product, its log-scale undone.

    Products of the one-step matrices are unimodular, so this should be 1 up
    to rounding.
    """
    stored = state.m11 * state.m22 - state.m12 * state.m21
    if stored == 0.0 or state.log_scale == 0.0:
        return stored
    log_mag = math.log(abs(stored)) + 2.0 * state.log_scale
    if log_mag > 700.0:
        return math.copysign(math.inf, stored)
    return math.copysign(math.exp(log_mag), stored)


def exact_transfer(values, E, count, start=0):
    """Exact 2x2 product of [[E - V(n), -1], [1, 0]] over ``count`` steps, as Fractions."""
    e = Fraction(E)
    vals = [Fraction(v) for v in values]
    m11, m12, m21, m22 = Fraction(1), Fraction(0), Fraction(0), Fraction(1)
    for n in range(start, start + count):
        a = e - vals[n % len(vals)]
        m11, m12, m21, m22 = a * m11 - m21, a * m12 - m22, m11, m12
    return (m11, m12, m21, m22)


def exact_delta(vals, E) -> Fraction:
    """Trace of the one-period transfer matrix at the float E, exactly.

    Floats are dyadic, so with D the largest denominator among the period and
    E (a power of two that every other one divides), the product of the
    integer matrices ``[[D (E - v), -D], [D, 0]]`` is D**p times the
    one-period product, and its trace over D**p is Delta(E) as a Fraction.
    """
    *ws, x = (Fraction(v) for v in (*vals, E))
    D = max(r.denominator for r in (*ws, x))
    x = x.numerator * (D // x.denominator)
    m11, m12, m21, m22 = 1, 0, 0, 1
    for w in ws:
        a = x - w.numerator * (D // w.denominator)
        m11, m12, m21, m22 = a * m11 - D * m21, a * m12 - D * m22, D * m11, D * m12
    return Fraction(m11 + m22, D ** len(ws))


def exact_dirichlet_count(vals, E) -> int:
    """Eigenvalues at or below E of the tridiagonal matrix with diagonal ``vals``, exactly.

    The off-diagonals are 1.  The pivots ``d_i = (v_i - E) - 1/d_{i-1}`` of
    H - E are taken in ``Fraction``s, so no rounding enters.  The count is
    the number of negative pivots of H - (E + eps) for every small eps > 0,
    which is the number of eigenvalues at or below E.  A pivot is strictly
    decreasing in E, so one that is 0 at E is negative just above it, and
    the pivot after it is then +infinity, whose reciprocal is 0.
    """
    e = Fraction(E)
    count = 0
    d = None  # the infinite pivot before the first, or after a zero one
    for v in vals:
        if d == 0:
            d = None  # about 1/eps: positive, not counted
            continue
        x = Fraction(v) - e
        d = x if d is None else x - 1 / d
        count += d <= 0
    return count


def transfer_log_size(values, E, count, start=0) -> float:
    """log of the largest |entry| of ``exact_transfer``'s product, from 40-digit decimals.

    Decimal arithmetic has an exponent range far past the float range, so the
    product needs no rescaling, and 40 digits keep a few hundred steps exact
    to far below float precision.
    """
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 40, 10**8, -(10**8)
        e = decimal.Decimal(E)
        vals = [decimal.Decimal(v) for v in values]
        m11, m12, m21, m22 = (decimal.Decimal(x) for x in (1, 0, 0, 1))
        for n in range(start, start + count):
            a = e - vals[n % len(vals)]
            m11, m12, m21, m22 = a * m11 - m21, a * m12 - m22, m11, m12
        return float(max(abs(m11), abs(m12), abs(m21), abs(m22)).ln())


def divisibility_oracle(a, b, entry_depth=10, witness_depth=50):
    """Direct check of the classification condition: every probed entry of each
    chain divides some entry of the other, witnesses searched to depth 50."""

    def dominated(x, y):
        x_depth = entry_depth if x.rule else min(entry_depth, len(x.prefix))
        y_depth = witness_depth if y.rule else min(witness_depth, len(y.prefix))
        for i in range(1, x_depth + 1):
            n = x.nth_term(i)
            if not any(y.nth_term(j) % n == 0 for j in range(1, y_depth + 1)):
                return False
        return True

    return dominated(a, b) and dominated(b, a)


_START_POOL = (1, 2, 3, 4, 5, 6, 7, 10, 12, 15, 30, 36, 60, 210)
_PREFIX_RATIOS = (2, 2, 3, 3, 5, 6, 7, 10)
_RULE_RATIOS = (2, 2, 3, 3, 5, 6, 7, 10, 15)


def random_chain(rng: random.Random, entry_cap: int = 10**6) -> FrequencyChain:
    """Seeded ruled chain: prefix of at most 4 entries below the cap, cycle <= 3."""
    prefix = [rng.choice(_START_POOL)]
    for _ in range(rng.randrange(3)):
        nxt = prefix[-1] * rng.choice(_PREFIX_RATIOS)
        if nxt > entry_cap:
            break
        prefix.append(nxt)
    rule = tuple(rng.choice(_RULE_RATIOS) for _ in range(rng.randint(1, 3)))
    return FrequencyChain(tuple(prefix), rule)


def isomorphic_variant(rng: random.Random, chain: FrequencyChain) -> FrequencyChain:
    """A different presentation of the same hull: subchain, refinement, or unroll."""
    mode = rng.randrange(4)
    if mode == 0:
        return chain
    if mode == 1:
        return chain.subchain(rng.randint(2, 4))
    if mode == 2:
        return maximal_chain(chain, len(chain.prefix) + rng.randrange(3))
    extra = rng.randint(1, 3)
    terms = chain.terms(len(chain.prefix) + extra)
    phase = extra % len(chain.rule)
    return FrequencyChain(tuple(terms), chain.rule[phase:] + chain.rule[:phase])


def traced_peak_mib(fn) -> float:
    """Peak of the memory Python allocates while ``fn()`` runs, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
