"""Supernatural numbers: prime factorizations with exponents in {1, 2, ...} or infinity.

A supernatural number is a formal product ``prod p^e(p)`` over primes, where each
exponent is a positive integer or ``INF``.  They order procyclic groups: two such
groups are isomorphic exactly when their supernatural orders are equal, so most of
the hull classification in this package reduces to arithmetic in this module.

Divisibility, gcd and lcm are pointwise on exponents (min / max), with the usual
conventions ``e <= INF`` for every ``e`` and ``INF <= INF``.
"""

import math
from dataclasses import dataclass
from typing import Mapping, Union

INF = math.inf

Exponent = Union[int, float]  # positive int, or INF

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13: Miller-Rabin to the first 13 prime bases is exact below it
# (Sorenson and Webster, Math. Comp. 2017); about 3.3e24, or 2**81.4.
_PRIME_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test for ``n < psi_13 = 3317044064679887385961981``.

    Miller-Rabin to the bases 2, 3, ..., 41 decides every n below psi_13 with
    no probabilistic step; larger inputs without a small factor are rejected.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n >= _PRIME_LIMIT:
        raise ValueError(
            f"primality testing is limited to integers below {_PRIME_LIMIT} (psi_13), got {n}"
        )
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # This witness set decides primality for every n < psi_13.
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_RHO_BATCH = 128


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n, by Brent's variant of Pollard rho.

    The walk is x -> x*x + c mod n (Brent, BIT 1980): y runs ahead of a point
    x saved at each power of two, and the differences |x - y| are multiplied
    mod n in batches, one gcd per batch.  A batch whose gcd is n is replayed
    step by step from its saved point; if that too gives n, the next c is tried.
    """
    for c in range(1, 64):
        y, r, q, d = 2, 1, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                saved = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                d = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if d == n:
            d = 1
            while d == 1:
                saved = (saved * saved + c) % n
                d = math.gcd(abs(x - saved), n)
        if d != n:
            return d
    raise ArithmeticError(f"failed to find a factor of {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {prime: exponent}.

    Trial division to 1000 comes first, so a smooth n of any size factors, and
    Pollard rho (Brent's variant) splits the cofactor left.  A cofactor at or
    above psi_13 = 3317044064679887385961981 (about 2**81.4) is refused by
    ``is_prime``.
    """
    if n < 1:
        raise ValueError(f"cannot factor non-positive integer {n}")
    factors: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    p = 49
    while p * p <= n and p < 1000:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return factors


@dataclass(frozen=True)
class Supernatural:
    """Canonical formal product ``prod p^e(p)``, stored as sorted (prime, exponent) pairs."""

    pairs: tuple[tuple[int, Exponent], ...]

    def __post_init__(self) -> None:
        seen = set()
        for p, e in self.pairs:
            if p in seen:
                raise ValueError(f"duplicate prime {p}")
            seen.add(p)
            if not is_prime(p):
                raise ValueError(f"base {p} is not prime")
            if e == INF:
                continue
            if not isinstance(e, int) or e < 1:
                raise ValueError(f"exponent of {p} must be a positive integer or INF, got {e!r}")
        if tuple(sorted(self.pairs)) != self.pairs:
            raise ValueError("pairs must be sorted by prime")

    @classmethod
    def from_factors(cls, factors: Mapping[int, Exponent]) -> "Supernatural":
        pairs = tuple(sorted((p, e) for p, e in factors.items() if e != 0))
        return cls(pairs)

    def format(self) -> str:
        if not self.pairs:
            return "1"
        parts = []
        for p, e in self.pairs:
            parts.append(f"{p}^inf" if e == INF else f"{p}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        return self.format()

    def exponent(self, p: int) -> Exponent:
        for q, e in self.pairs:
            if q == p:
                return e
        return 0

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)

    def divides(self, other: "Supernatural") -> bool:
        return all(e <= other.exponent(p) for p, e in self.pairs)

    def lcm(self, other: "Supernatural") -> "Supernatural":
        factors: dict[int, Exponent] = dict(self.pairs)
        for p, e in other.pairs:
            factors[p] = max(factors.get(p, 0), e)
        return Supernatural.from_factors(factors)

    def gcd(self, other: "Supernatural") -> "Supernatural":
        factors: dict[int, Exponent] = {}
        for p, e in self.pairs:
            m = min(e, other.exponent(p))
            if m != 0:
                factors[p] = m
        return Supernatural.from_factors(factors)
