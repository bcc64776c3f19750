"""Limit-periodic potentials from sampling functions on a procyclic hull.

A sampling function is a tower of periodic layers, one per chain level; a
potential is the sampling function read along a translation orbit.  All series
evaluations carry certified absolute tails: the stored layers are exact, and
``residual_bound`` bounds the sup-norm of whatever the tower truncates away.

Every layered potential is stored the same way, as a ``SamplingFunction``
read along an orbit together with its certified per-level tails.  Two explicit
families are built in.  The sawtooth tower sums ``(k mod n_j) / n_j**3`` over
levels (wire kind "remark"), and the distance tower sums
``2**-(j+1) * [k mod n_j != 0]`` (wire kind "metric"), which is the distance
from the k-th orbit point to the identity.  Its hull is the full group only
along a minimal translation: from base 5 in steps of 3 on the chain 2, 6, 18,
... no orbit index is a multiple of 3, so it has period 2 at every level.
Explicit towers carry the wire kind "layers".  A tower of finite depth is
exactly periodic along its orbit, so every finite-period kind (the three towers
and "periodic") is read from one stored period of length ``pot.period``, and
evaluation never branches on which kind a potential has.
"""

import math
import operator
import random
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, islice
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .frequency import FrequencyChain
from .procyclic import ProcyclicElement


@dataclass(frozen=True)
class PeriodicLayer:
    period: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if len(self.values) != self.period:
            raise ValueError(f"expected {self.period} values, got {len(self.values)}")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("layer values must be finite")

    def sup_norm(self) -> float:
        return max(abs(v) for v in self.values)


@dataclass(frozen=True)
class SamplingFunction:
    """Finite layer tower over a chain, plus a certified bound on the missing tail."""

    chain: FrequencyChain
    layers: tuple[PeriodicLayer, ...]
    residual_bound: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.residual_bound < 0 or not math.isfinite(self.residual_bound):
            raise ValueError("residual bound must be finite and >= 0")
        moduli = self.chain.terms(len(self.layers)) if self.layers else []
        for layer, n in zip(self.layers, moduli):
            if layer.period != n:
                raise ValueError(
                    f"layer period {layer.period} does not match chain entry {n}"
                )

    @property
    def depth(self) -> int:
        return len(self.layers)

    def tail_bound(self, level: int) -> float:
        """Certified bound on the sup-norm of everything above ``level``.

        The sup norms are summed exactly and the total rounded up, so the
        float is never below the true sum.
        """
        if level < 0:
            raise ValueError("level must be >= 0")
        exact = sum(
            (Fraction(layer.sup_norm()) for layer in self.layers[level:]),
            Fraction(self.residual_bound),
        )
        return _float_up(exact)


def periodize(f: SamplingFunction, level: int) -> SamplingFunction:
    """Average every layer finer than chain level ``level`` over its cosets.

    This is the Haar average over the index-``n_level`` subgroup: each finer
    layer is replaced, coset by coset, with its mean, making the result
    ``n_level``-periodic along every orbit.  Averaged layers keep their storage
    period (the means tile), so the tower shape is unchanged.
    """
    n_coarse = f.chain.nth_term(level)
    new_layers = []
    for layer in f.layers:
        if layer.period <= n_coarse:
            new_layers.append(layer)
            continue
        means = []
        for t in range(n_coarse):
            coset = layer.values[t :: n_coarse]
            means.append(sum(coset) / len(coset))
        new_layers.append(
            PeriodicLayer(layer.period, tuple(means[s % n_coarse] for s in range(layer.period)))
        )
    return SamplingFunction(f.chain, tuple(new_layers), f.residual_bound)


_FLOAT_MAX = Fraction(sys.float_info.max)


def _float_up(x: Fraction) -> float:
    """The least float at or above ``x``: a certified bound must not round down."""
    if x > _FLOAT_MAX:
        return math.inf
    f = float(x)
    return f if Fraction(f) >= x else math.nextafter(f, math.inf)


def sawtooth_tail(chain: FrequencyChain, depth: int) -> Fraction:
    """Exact sup-norm tail ``sum_{j > depth} (n_j - 1) / n_j**3`` of the sawtooth tower.

    Past the prefix and ``depth`` a ruled chain grows by the rule's product
    every cycle, so the rest of the tail, ``sum n**-2 - n**-3``, sums as two
    geometric series.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    total = Fraction(0)
    start = max(depth, len(chain.prefix)) if chain.rule else len(chain.prefix)
    for j in range(depth + 1, start + 1):
        n = chain.nth_term(j)
        total += Fraction(n - 1, n**3)
    if not chain.rule:
        return total
    cycle_product = math.prod(chain.rule)
    for s, sign in ((2, 1), (3, -1)):
        head = sum(
            Fraction(1, chain.nth_term(start + 1 + i) ** s) for i in range(len(chain.rule))
        )
        total += sign * head / (1 - Fraction(1, cycle_product**s))
    return total


@dataclass(frozen=True)
class Potential:
    """A two-sided sequence ``n -> V(n)`` with certified evaluation error.

    ``kind`` matches the manifest wire names: "remark" (sawtooth tower),
    "metric" (distance tower), "layers" (explicit tower), "periodic" (one
    explicit period).  The three tower kinds share one representation:
    ``sampling`` read at orbit index ``base + n * generator``, with
    ``tails[l - 1]`` the certified tail of the level-l approximant for l in
    ``1..depth``.  Every kind stores one period of finite values in ``values``
    (a tower's orbit, read once) and V(n) is ``values[n % period]``.  Seeded
    noise, which stores no period, is the subclass ``NoisePotential``.
    """

    kind: str
    tol: float
    base: int = 0
    generator: int = 1
    sampling: Optional[SamplingFunction] = None
    tails: tuple[float, ...] = ()
    values: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.values is not None and not all(map(math.isfinite, self.values)):
            raise ValueError("potential values must be finite")

    @property
    def chain(self) -> Optional[FrequencyChain]:
        return self.sampling.chain if self.sampling is not None else None

    @property
    def depth(self) -> Optional[int]:
        return self.sampling.depth if self.sampling is not None else None

    @property
    def period(self) -> Optional[int]:
        return len(self.values) if self.values is not None else None

    def value(self, n: int) -> float:
        return self.values[n % len(self.values)]

    __call__ = value

    def window(self, start: int, stop: int) -> "PeriodicWindow":
        """``V(n)`` for n in ``range(start, stop)``: the stored period rotated to ``start``."""
        r = start % len(self.values)
        return PeriodicWindow(self.values[r:] + self.values[:r], max(stop - start, 0))

    def _sites(self, start: int, stop: int) -> Iterator[float]:
        """V at ``start, ..., stop - 1``, lazily: the window's period, cycled."""
        return iter(self.window(start, stop))

    def _check_level(self, level: int) -> None:
        if self.sampling is None:
            raise ValueError(f"potential kind {self.kind!r} has no layer structure")
        if not 1 <= level <= self.sampling.depth:
            raise ValueError(f"level {level} outside the tower levels 1..{self.sampling.depth}")

    def level_tail(self, level: int) -> float:
        """Certified ``sup_n |V(n) - V_level(n)|`` for the level-``level`` approximant."""
        self._check_level(level)
        return self.tails[level - 1]

    def level_values(self, level: int) -> list[float]:
        """One period of the level-``level`` periodic approximant along this orbit."""
        self._check_level(level)
        return _orbit_table(self.sampling.layers[:level], self.base, self.generator)


@dataclass(frozen=True, kw_only=True)
class NoisePotential(Potential):
    """Seeded uniform noise between ``low`` and ``high``: wire kind "iid", a negative control."""

    seed: int
    low: float
    high: float

    def value(self, n: int) -> float:
        # a bare generator: __init__ would seed it from the OS first
        return self._iid_site(random.Random.__new__(random.Random), n)

    __call__ = value

    def window(self, start: int, stop: int) -> list[float]:
        """``[V(n) for n in range(start, stop)]`` as one list: noise has no period to hold."""
        return list(self._sites(start, stop))

    def _sites(self, start: int, stop: int) -> Iterator[float]:
        """V at ``start, ..., stop - 1``, lazily: one generator reseeded per site."""
        rng = random.Random()
        return (self._iid_site(rng, n) for n in range(start, stop))

    def _iid_site(self, rng: random.Random, n: int) -> float:
        """The noise at site n: ``rng`` reseeded with "seed:n", one uniform draw, scaled."""
        rng.seed(f"{self.seed}:{n}")
        return self.low + (self.high - self.low) * rng.random()


@dataclass(frozen=True, eq=False)
class PeriodicWindow:
    """``length`` consecutive sites of a p-periodic sequence, held as one period.

    Site i of the window is ``values[i % p]``, the very float stored there, so
    a window of any length takes memory for one period.  It reads like the list
    of its sites (``len``, iteration, integer indexing from either end), and
    ``spectral.eigenvalue_count`` reads the period itself.
    """

    values: tuple[float, ...]
    length: int

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[float]:
        return islice(cycle(self.values), self.length)

    def __getitem__(self, i: int) -> float:
        j = operator.index(i)
        if j < 0:
            j += self.length
        if not 0 <= j < self.length:
            raise IndexError(f"window index {i} out of range for length {self.length}")
        return self.values[j % len(self.values)]


def read_window(V: Callable[[int], float], start: int, stop: int) -> Iterator[float]:
    """V at ``start, ..., stop - 1``, yielded one site at a time for a single pass.

    A ``Potential`` streams its stored period, or its seeded draws, and holds
    nothing else, so a pass over N sites takes memory independent of N.  Any
    other V is called site by site.  ``Potential.window`` is the indexable form.
    """
    return V._sites(start, stop) if isinstance(V, Potential) else map(V, range(start, stop))


def _orbit_table(layers: Sequence[PeriodicLayer], base: int, generator: int) -> list[float]:
    """One period of ``n -> sum of the layers at base + n * generator``, in layer order.

    Chain entries divide, so each level's orbit period divides the next and its
    table tiles the next one: the cost is the sum of the orbit periods.
    """
    table = [0.0]
    for layer in layers:
        n, vals, prev = layer.period, layer.values, len(table)
        table = [
            table[i % prev] + vals[(base + i * generator) % n]
            for i in range(n // math.gcd(n, generator))
        ]
    return table


def _tower_potential(
    kind: str,
    f: SamplingFunction,
    base: int,
    generator: int,
    tail: Callable[[int], float],
) -> Potential:
    """Read ``f`` at orbit index ``base + n * generator``; ``tail(l)`` certifies level l."""
    return Potential(
        kind=kind,
        tol=f.residual_bound,
        base=base,
        generator=generator,
        sampling=f,
        tails=tuple(tail(level) for level in range(1, f.depth + 1)),
        values=tuple(_orbit_table(f.layers, base, generator)),
    )


def periodic_potential(values: Sequence[float]) -> Potential:
    vals = tuple(float(v) for v in values)
    if not vals:
        raise ValueError("periodic potential needs at least one value")
    return Potential(kind="periodic", tol=0.0, values=vals)


_LAYER_PERIOD_GUARD = 1_000_000

# wire kind: (the value ``(t, n, j)`` at residue t of the level-j layer, whose
# period is n = n_j; the certified tail ``(chain, l)`` of the level-l approximant)
_FAMILIES = {
    "remark": (lambda t, n, j: t / n**3, lambda chain, l: _float_up(sawtooth_tail(chain, l))),
    "metric": (lambda t, n, j: 0.0 if t == 0 else 2.0 ** -(j + 1), lambda chain, l: 2.0**-l),
}


def _family_potential(
    kind: str, chain: FrequencyChain, depth: int, base: int, generator: int
) -> Potential:
    """The explicit tower ``kind`` to ``depth``, read from ``base`` in steps of ``generator``."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    value, tail = _FAMILIES[kind]
    layers = []
    for j, n in enumerate(chain.terms(depth), start=1):
        if n > _LAYER_PERIOD_GUARD:
            raise ValueError(f"period {n} too large to materialize")
        layers.append(PeriodicLayer(n, tuple(value(t, n, j) for t in range(n))))
    f = SamplingFunction(chain, tuple(layers), tail(chain, depth))
    return _tower_potential(kind, f, base, generator, lambda level: tail(chain, level))


def sawtooth_potential(
    chain: FrequencyChain, depth: int, base: int = 0, generator: int = 1
) -> Potential:
    return _family_potential("remark", chain, depth, base, generator)


def metric_potential(
    chain: FrequencyChain, depth: int, base: int = 0, generator: int = 1
) -> Potential:
    return _family_potential("metric", chain, depth, base, generator)


def sampled_potential(
    f: SamplingFunction, omega: ProcyclicElement, k: int, tol: float
) -> Potential:
    """Wrap ``n -> f(omega + n*k)`` as a potential; the tower tail must certify tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if f.residual_bound >= tol:
        raise ValueError(f"tower tail {f.residual_bound} cannot certify tolerance {tol}")
    if omega.chain != f.chain:
        raise ValueError("base point lives over a different chain")
    if omega.level < f.depth:
        raise ValueError(f"base point level {omega.level} below tower depth {f.depth}")
    base = omega.residues[f.depth - 1] if f.depth else 0
    return _tower_potential("layers", f, base, k, f.tail_bound)


def iid_uniform_potential(seed: int, low: float = 0.0, high: float = 1.0) -> NoisePotential:
    """Seeded uniform noise; deterministic per (seed, n) and order-independent."""
    if high < low:
        raise ValueError("high must be >= low")
    if not math.isfinite(high - low):
        raise ValueError("high - low must be finite")
    return NoisePotential(
        kind="iid",
        tol=0.0,
        seed=seed,
        low=low,
        high=high,
    )


class GordonMargin(NamedTuple):
    j: int
    q: int
    max_diff: float
    log_max_diff: float
    log_threshold: float
    log_margin: float
    passed: bool


class GordonReport(NamedTuple):
    passed: bool
    margins: tuple[GordonMargin, ...]


def gordon_check(V: Potential, q_list: Sequence[int]) -> GordonReport:
    """Check the Gordon periodic-approximation condition along the scales q_list.

    Scale j passes when ``max_{1 <= n <= q_j} |V(n) - V(n +- q_j)| <= j**-q_j``.
    Thresholds are compared in log space since ``j**-q_j`` underflows doubles
    once ``q_j * log(j)`` passes about 700.  The j = 1 threshold is 1 and is
    applied literally.  V is read once, in one window, after q_list is checked.
    """
    if not q_list:
        raise ValueError("q_list must be nonempty")
    if any(q <= prev for q, prev in zip(q_list, (0, *q_list))):
        raise ValueError("q_list must be strictly increasing positive integers")
    q_max = q_list[-1]
    # w[q_max - 1 + n] is V(n), packed: 8 bytes a site where distinct floats take 32
    w = array("d", read_window(V, 1 - q_max, 2 * q_max + 1))
    margins = []
    all_ok = True
    for j, q in enumerate(q_list, start=1):
        max_diff = 0.0
        for n in range(q_max, q_max + q):
            v = w[n]
            max_diff = max(max_diff, abs(v - w[n + q]), abs(v - w[n - q]))
        log_thr = -q * math.log(j) + 0.0
        log_diff = math.log(max_diff) if max_diff > 0 else -math.inf
        ok = log_diff <= log_thr
        all_ok = all_ok and ok
        margins.append(
            GordonMargin(j, q, max_diff, log_diff, log_thr, log_thr - log_diff, ok)
        )
    return GordonReport(all_ok, tuple(margins))
