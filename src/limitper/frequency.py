"""Frequency integer chains and hull classification.

A limit-periodic sequence decomposes into periodic layers whose periods form a
divisibility chain ``n_1 | n_2 | ...``.  The chain determines the hull of the
sequence up to isomorphism through its supernatural limit, so classification
questions become supernatural-number comparisons plus explicit divisibility
witnesses.

Infinite chains are represented finitely as a prefix plus a cyclic ratio rule:
after the prefix, consecutive ratios repeat the rule forever.  This makes the
classification decidable and every reported quantity exactly computable.
Only the order is factored, from the first entry and the ratios; the level at
which an entry first divides another chain's entries is found by bisection
over whole rule cycles with modular powers, then by dividing that cycle's
ratios out of the part of it still missing, so witnesses and blockers need no
factorization however deep they lie.
"""

import cmath
import math
from collections import namedtuple
from typing import Callable, Iterable, NamedTuple, Optional

from .supernatural import INF, Supernatural, factorize


class FrequencyChain(namedtuple("FrequencyChain", "prefix rule")):
    """Divisibility chain ``n_1 | n_2 | ...`` given by a prefix and an optional cyclic ratio rule."""

    __slots__ = ()

    def __new__(cls, prefix: Iterable[int], rule: Iterable[int] = ()) -> "FrequencyChain":
        prefix, rule = tuple(prefix), tuple(rule)
        if not prefix:
            raise ValueError("chain prefix must be nonempty")
        for n in prefix:
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise ValueError(f"chain entries must be positive integers, got {n!r}")
        for a, b in zip(prefix, prefix[1:]):
            if b <= a:
                raise ValueError(f"chain entries must be strictly increasing ({a} then {b})")
            if b % a != 0:
                raise ValueError(f"divisibility violated: {a} does not divide {b}")
        for r in rule:
            if not isinstance(r, int) or isinstance(r, bool) or r < 2:
                raise ValueError(f"rule ratios must be integers >= 2, got {r!r}")
        return super().__new__(cls, prefix, rule)

    def nth_term(self, j: int) -> int:
        """The j-th chain entry, 1-indexed; total for every j >= 1 on ruled chains."""
        if j < 1:
            raise ValueError(f"chain entries are indexed from 1, got {j}")
        if j <= len(self.prefix):
            return self.prefix[j - 1]
        if not self.rule:
            raise ValueError(f"finite chain of length {len(self.prefix)} has no entry {j}")
        steps = j - len(self.prefix)
        cycles, rem = divmod(steps, len(self.rule))
        value = self.prefix[-1] * math.prod(self.rule) ** cycles
        for r in self.rule[:rem]:
            value *= r
        return value

    def terms(self, count: int) -> list[int]:
        """First ``count`` entries, computed incrementally."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if not self.rule and count > len(self.prefix):
            raise ValueError(f"finite chain of length {len(self.prefix)} has no entry {count}")
        out = list(self.prefix[:count])
        value = out[-1]
        i = 0
        while len(out) < count:
            value *= self.rule[i % len(self.rule)]
            out.append(value)
            i += 1
        return out

    def subchain(self, step: int) -> "FrequencyChain":
        """The chain of every ``step``-th entry; an infinite subchain has the same hull."""
        if step < 1:
            raise ValueError("step must be >= 1")
        if step == 1:
            return self
        if not self.rule:
            kept = self.prefix[step - 1 :: step]
            if not kept:
                raise ValueError(f"step {step} exceeds chain length {len(self.prefix)}")
            return FrequencyChain(kept, ())
        keep_count = -(-len(self.prefix) // step)  # ceil: kept prefix covers the original prefix
        new_prefix = [self.nth_term(i * step) for i in range(1, keep_count + 1)]
        cycle = len(self.rule) // math.gcd(len(self.rule), step)
        base = keep_count * step
        new_rule = [
            self.nth_term(base + (c + 1) * step) // self.nth_term(base + c * step)
            for c in range(cycle)
        ]
        return FrequencyChain(tuple(new_prefix), tuple(new_rule))

    def limit(self) -> Supernatural:
        """Supernatural limit of the chain: exponent sup over all entries.

        Deep entries overflow any direct factoring limit, so the order is
        assembled from the chain's small parts: the first entry and the prefix
        ratios give the last prefix entry, and primes occurring in the cyclic
        rule recur forever and get exponent INF.
        """
        factors: dict[int, float | int] = dict(factorize(self.prefix[0]))
        for a, b in zip(self.prefix, self.prefix[1:]):
            for p, e in factorize(b // a).items():
                factors[p] = factors.get(p, 0) + e
        for r in self.rule:
            for p in factorize(r):
                factors[p] = INF
        return Supernatural.from_factors(factors)

    def to_json_dict(self) -> dict:
        out: dict = {"prefix": list(self.prefix)}
        if self.rule:
            out["rule"] = list(self.rule)
        return out


def chain_make(prefix: Iterable[int], rule: Iterable[int] = ()) -> FrequencyChain:
    return FrequencyChain(tuple(prefix), tuple(rule))


def _sorted_prime_steps(q: int) -> list[int]:
    """Prime factors of q with multiplicity, nondecreasing."""
    steps: list[int] = []
    for p, e in sorted(factorize(q).items()):
        steps.extend([p] * e)
    return steps


def maximal_chain(chain: FrequencyChain, depth: Optional[int] = None) -> FrequencyChain:
    """Refine a chain so every consecutive ratio is prime, keeping the same limit.

    Composite ratios split into their prime factors in nondecreasing order, which
    makes the refinement canonical.  ``depth`` materializes that many entries of
    the input chain into the refined prefix (it must cover the existing prefix);
    for ruled chains the ratio rule is refined and rotated to continue from there.
    """
    plen = len(chain.prefix)
    if depth is None:
        depth = plen
    if depth < plen:
        raise ValueError(f"depth {depth} must cover the prefix length {plen}")
    if chain.rule:
        entries = chain.terms(depth)
        phase = (depth - plen) % len(chain.rule)
        rotated = chain.rule[phase:] + chain.rule[:phase]
        new_rule: list[int] = []
        for r in rotated:
            new_rule.extend(_sorted_prime_steps(r))
    else:
        if depth > plen:
            raise ValueError(f"finite chain of length {plen} has no entry {depth}")
        entries = list(chain.prefix)
        new_rule = []
    refined = [entries[0]]
    for a, b in zip(entries, entries[1:]):
        for p in _sorted_prime_steps(b // a):
            refined.append(refined[-1] * p)
    return FrequencyChain(tuple(refined), tuple(new_rule))


def first_level_divisible(chain: FrequencyChain, n: int) -> Optional[int]:
    """Smallest level j with n dividing the j-th entry, or None when no level works.

    Past the prefix, with m the part of n the last prefix entry misses and C
    the rule's product, the entry c full rule cycles on is that entry times
    C**c, so n divides it exactly when ``pow(C, c, m) == 0``.  Once that holds
    it holds for every later c, and when every prime of m divides C it holds
    by ``c = m.bit_length()``, past every exponent in m.  So bisection finds
    the least such c, and a failure at that bound shows that no level works.
    The level then lies in cycle c: from the entry c - 1 cycles on, each rule
    ratio r removes ``gcd(missing, r)`` from the part still missing until
    nothing is.  Only residues mod m are held, and nothing is factored, so n
    may be far past any factoring limit.
    """
    for j, value in enumerate(chain.prefix, start=1):
        if value % n == 0:
            return j
    if not chain.rule:
        return None
    m, C = n // math.gcd(n, chain.prefix[-1]), math.prod(chain.rule)
    lo, hi = 0, m.bit_length()  # m > 1, so m misses C**0 = 1
    if pow(C, hi, m) != 0:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pow(C, mid, m) == 0:
            hi = mid
        else:
            lo = mid
    missing = m // math.gcd(m, pow(C, lo, m))
    for i, r in enumerate(chain.rule, start=1):
        missing //= math.gcd(missing, r)
        if missing == 1:  # by the cycle's last ratio at the latest
            break
    return len(chain.prefix) + lo * len(chain.rule) + i


class HullComparison(NamedTuple):
    """Classification verdict for two chains, with divisibility witnesses.

    When isomorphic, ``forward[i] = (entry_of_a, witness_entry_of_b)`` exhibits a
    chain-b entry divisible by the i-th entry of chain a (and ``backward`` the
    other direction).  Otherwise ``blocker`` names a side and one of its entries
    that divides no entry of the other chain.
    """

    isomorphic: bool
    order_a: Supernatural
    order_b: Supernatural
    forward: tuple[tuple[int, int], ...] = ()
    backward: tuple[tuple[int, int], ...] = ()
    blocker: Optional[tuple[str, int]] = None


def _find_blocker(a: FrequencyChain, la: Supernatural, lb: Supernatural) -> Optional[int]:
    """An entry of ``a``, of limit ``la``, that divides no entry of a chain of limit ``lb``.

    None when ``la`` divides ``lb``.
    """
    for p, e in la.pairs:
        if e > lb.exponent(p):  # so lb's exponent of p is finite
            return a.nth_term(first_level_divisible(a, p ** (int(lb.exponent(p)) + 1)))
    return None


def _witnesses(a: FrequencyChain, b: FrequencyChain, entries: int) -> tuple[tuple[int, int], ...]:
    """``(n, m)`` for a's first ``entries`` entries n, m the first entry of b that n divides."""
    depth = entries if a.rule else min(entries, len(a.prefix))
    return tuple((n, b.nth_term(first_level_divisible(b, n))) for n in a.terms(depth))


_CERT_ENTRIES = 8


def hulls_isomorphic(a: FrequencyChain, b: FrequencyChain) -> HullComparison:
    """Decide whether two chains present isomorphic hulls, with a certificate.

    The verdict is equality of the supernatural limits.  The certificate gives,
    for each of the first ``_CERT_ENTRIES`` entries on each side, an entry of the
    other chain it divides; when the hulls differ it gives one concrete entry
    that no entry of the other chain dominates.
    """
    la, lb = a.limit(), b.limit()
    if la != lb:
        blocker_a = _find_blocker(a, la, lb)
        if blocker_a is not None:
            return HullComparison(False, la, lb, blocker=("a", blocker_a))
        return HullComparison(False, la, lb, blocker=("b", _find_blocker(b, lb, la)))
    forward, backward = _witnesses(a, b, _CERT_ENTRIES), _witnesses(b, a, _CERT_ENTRIES)
    return HullComparison(True, la, lb, forward, backward)


def bohr_coefficient(d: Callable[[int], float], q: int, window: int) -> complex:
    """Symmetric Birkhoff average ``(1/(2N + 1)) sum_{k=-N..N} d(k) exp(-2 pi i k / q)``.

    A nonvanishing limit at q certifies that 2*pi/q belongs to the frequency
    module of d.  No tapering is applied; the finite-window value differs from
    the limit by O(1/N) for limit-periodic input.
    """
    if q < 1:
        raise ValueError(f"q must be a positive integer, got {q}")
    if window < q:
        raise ValueError(f"window {window} must be at least q = {q}")
    # The phase factor has period q in k, so precompute one cycle.
    phases = [cmath.exp(-2j * math.pi * (t % q) / q) for t in range(q)]
    total = 0 + 0j
    for k in range(-window, window + 1):
        total += d(k) * phases[k % q]
    return total / (2 * window + 1)
