"""Concrete procyclic groups as compatible residue vectors over a frequency chain.

An element is a truncation of an inverse-limit point: residues ``x_1, ..., x_J``
with ``x_j mod n_i = x_i`` for ``i <= j``.  Integer points have ``x_j = k mod n_j``
and are dense; everything here computes with truncations at an explicit level J,
with metric statements carrying a tail bound of ``2**-J``.  A level-J truncation
is the group ``Z/n_J``: the top residue ``x_J`` decides every lower one, so sums,
negatives and quotients are all built from it by ``ProcyclicElement.from_int``.

The metric is the standard product-topology metric with discrete factors:
``dist(x, y) = sum_j 2**-j * [x_j != y_j] / 2`` as an exact dyadic rational.
"""

import math
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple, Optional

from .frequency import FrequencyChain, first_level_divisible


class ProcyclicElement(namedtuple("ProcyclicElement", "chain level residues")):
    __slots__ = ()

    def __new__(
        cls, chain: FrequencyChain, level: int, residues: tuple[int, ...]
    ) -> "ProcyclicElement":
        residues = tuple(residues)
        if level < 1:
            raise ValueError("level must be >= 1")
        if len(residues) != level:
            raise ValueError(f"expected {level} residues, got {len(residues)}")
        moduli = chain.terms(level)
        for x, n in zip(residues, moduli):
            if not 0 <= x < n:
                raise ValueError(f"residue {x} out of range for modulus {n}")
        for i in range(1, level):
            if residues[i] % moduli[i - 1] != residues[i - 1]:
                raise ValueError(
                    f"incompatible residues at levels {i} and {i + 1}: "
                    f"{residues[i]} mod {moduli[i - 1]} != {residues[i - 1]}"
                )
        return super().__new__(cls, chain, level, residues)

    @classmethod
    def from_int(cls, chain: FrequencyChain, level: int, k: int) -> "ProcyclicElement":
        """The image of the integer point k at truncation level ``level``."""
        if level < 1:
            raise ValueError("level must be >= 1")
        return cls(chain, level, tuple(k % n for n in chain.terms(level)))

    @classmethod
    def identity(cls, chain: FrequencyChain, level: int) -> "ProcyclicElement":
        return cls.from_int(chain, level, 0)

    def _check_compatible(self, other: "ProcyclicElement") -> None:
        if self.chain != other.chain:
            raise ValueError("elements live over different chains")
        if self.level != other.level:
            raise ValueError(f"levels differ: {self.level} vs {other.level}")

    def __add__(self, other: "ProcyclicElement") -> "ProcyclicElement":
        self._check_compatible(other)
        return ProcyclicElement.from_int(
            self.chain, self.level, self.residues[-1] + other.residues[-1]
        )

    def __neg__(self) -> "ProcyclicElement":
        return ProcyclicElement.from_int(self.chain, self.level, -self.residues[-1])

    def __sub__(self, other: "ProcyclicElement") -> "ProcyclicElement":
        return self + (-other)

    def restrict(self, level: int) -> "ProcyclicElement":
        if not 1 <= level <= self.level:
            raise ValueError(f"cannot restrict level {self.level} element to level {level}")
        if level == self.level:
            return self
        return ProcyclicElement(self.chain, level, self.residues[:level])


class MetricResult(NamedTuple):
    value: Fraction
    tail_bound: Fraction


def metric(a: ProcyclicElement, b: ProcyclicElement) -> MetricResult:
    """Exact dyadic distance between two truncations, with a ``2**-J`` tail bound.

    Elements at different levels are compared at the coarser common level.
    """
    if a.chain != b.chain:
        raise ValueError("elements live over different chains")
    level = min(a.level, b.level)
    a0, b0 = a.restrict(level), b.restrict(level)
    value = Fraction(0)
    for j, (x, y) in enumerate(zip(a0.residues, b0.residues), start=1):
        if x != y:
            value += Fraction(1, 2 ** (j + 1))
    return MetricResult(value, Fraction(1, 2**level))


class GeneratorWitness(NamedTuple):
    kind: str  # "entry" or "ratio"
    value: int
    level: Optional[int]


class GeneratorCheck(NamedTuple):
    ok: bool
    witness: Optional[GeneratorWitness]


def is_generator(chain: FrequencyChain, k: int, depth: int) -> GeneratorCheck:
    """Whether the diagonal point of k topologically generates the group.

    k generates iff it is coprime to every chain entry.  Coprimality to the whole
    prefix plus every rule ratio decides all levels at once, so the verdict is
    total even though only finitely many entries are probed; ``depth`` controls
    how many materialized entries are scanned for a witness.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    levels = max(depth, len(chain.prefix)) if chain.rule else len(chain.prefix)
    for j in range(1, levels + 1):
        n = chain.nth_term(j)
        if math.gcd(k, n) != 1:
            return GeneratorCheck(False, GeneratorWitness("entry", n, j))
    for r in chain.rule:
        if math.gcd(k, r) != 1:
            return GeneratorCheck(False, GeneratorWitness("ratio", r, None))
    return GeneratorCheck(True, None)


def orbit_residues(chain: FrequencyChain, k: int, level: int, steps: int) -> list[int]:
    """Level-``level`` residues of 0, k, 2k, ... for ``steps`` translation steps."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    n = chain.nth_term(level)
    return [(m * k) % n for m in range(steps)]


class QuotientMap(NamedTuple):
    """Reduction onto a procyclic quotient, aligned level by level.

    Each target level t is matched with the first source level whose modulus the
    target modulus divides.  When x reaches every matched level, each target
    modulus divides n at x's level, so applying the map reduces x's top residue.
    """

    source: FrequencyChain
    target: FrequencyChain

    def source_level_for(self, t: int) -> int:
        m = self.target.nth_term(t)
        j = first_level_divisible(self.source, m)
        if j is None:
            raise ValueError(f"target modulus {m} divides no source entry")
        return j

    def apply(self, x: ProcyclicElement, level: Optional[int] = None) -> ProcyclicElement:
        if x.chain != self.source:
            raise ValueError("element lives over a different chain than the map source")
        if level is None:
            level = 0
            top = None if self.target.rule else len(self.target.prefix)
            while level != top and self.source_level_for(level + 1) <= x.level:
                level += 1
            if level == 0:
                raise ValueError("element level too shallow for any target level")
        for t in range(1, level + 1):
            if self.source_level_for(t) > x.level:
                raise ValueError(f"element level {x.level} cannot reach target level {t}")
        return ProcyclicElement.from_int(self.target, level, x.residues[-1])

    def alignment(self, depth: int) -> list[tuple[int, int]]:
        return [(t, self.source_level_for(t)) for t in range(1, depth + 1)]


def quotient(chain: FrequencyChain, target: FrequencyChain) -> QuotientMap:
    """Quotient map onto the hull presented by ``target``.

    Valid exactly when the target's supernatural order divides the source's.
    """
    if not target.limit().divides(chain.limit()):
        raise ValueError(
            f"target order {target.limit()} does not divide source order {chain.limit()}"
        )
    return QuotientMap(chain, target)
