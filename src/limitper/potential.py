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
from the k-th orbit point to the identity and generates a potential whose hull
is the full group.  Explicit towers carry the wire kind "layers".  These three
kinds are only labels for manifests and the CLI; evaluation never branches on
which of them a potential has.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

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

    def value_at(self, n: int) -> float:
        return self.values[n % self.period]


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
        """Certified bound on the sup-norm of everything above ``level``."""
        if level < 0:
            raise ValueError("level must be >= 0")
        stored = sum(layer.sup_norm() for layer in self.layers[level:])
        return stored + self.residual_bound

    def sup_bound(self) -> float:
        return self.tail_bound(0)

    def value_at(self, omega: ProcyclicElement) -> float:
        """Evaluate the stored tower at a group element (layer j reads residue x_j)."""
        if omega.chain != self.chain:
            raise ValueError("element lives over a different chain")
        if omega.level < self.depth:
            raise ValueError(f"element level {omega.level} below tower depth {self.depth}")
        return sum(
            layer.values[omega.residues[j]] for j, layer in enumerate(self.layers)
        )


def sample(
    f: SamplingFunction, omega: ProcyclicElement, k: int, n: int, tol: float
) -> float:
    """The potential value ``f(omega + n*k)`` with certified absolute error below tol."""
    return sampled_potential(f, omega, k, tol)(n)


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


class ValueTail(NamedTuple):
    value: float
    tail_bound: float


def _geometric_layer_tail(chain: FrequencyChain, depth: int, power_terms) -> Fraction:
    """Exact ``sum_{j > depth} g(n_j)`` where g is given per power via ``power_terms``.

    ``power_terms`` maps an entry n to a Fraction; it must be a finite linear
    combination of powers n**-s so the ruled tail sums as geometric series.
    Used with g(n) = (n-1)/n**3 = n**-2 - n**-3 for the sawtooth tower.
    """
    total = Fraction(0)
    plen = len(chain.prefix)
    finite_top = plen if not chain.rule else max(depth, plen)
    for j in range(depth + 1, finite_top + 1):
        total += power_terms(chain.nth_term(j))
    if not chain.rule:
        return total
    cycle = len(chain.rule)
    start = max(depth, plen)
    cycle_product = math.prod(chain.rule)
    for s, sign in ((2, 1), (3, -1)):
        head = sum(
            Fraction(1, chain.nth_term(start + 1 + i) ** s) for i in range(cycle)
        )
        total += sign * head / (1 - Fraction(1, cycle_product**s))
    return total


def sawtooth_tail(chain: FrequencyChain, depth: int) -> Fraction:
    """Exact sup-norm tail ``sum_{j > depth} (n_j - 1) / n_j**3`` of the sawtooth tower."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return _geometric_layer_tail(
        chain, depth, lambda n: Fraction(n - 1, n**3)
    )


def sawtooth_value(chain: FrequencyChain, depth: int, k: int) -> ValueTail:
    """Partial sum ``sum_{j <= depth} (k mod n_j) / n_j**3`` with its exact tail bound.

    The full series is the canonical explicit limit-periodic sequence attached
    to a chain; each term is below ``1/n_j**2`` so ruled chains converge
    geometrically.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    value = 0.0
    for n in chain.terms(depth):
        value += (k % n) / n**3
    return ValueTail(value, float(sawtooth_tail(chain, depth)))


def metric_value(chain: FrequencyChain, depth: int, k: int) -> tuple[Fraction, Fraction]:
    """Exact dyadic distance from the k-th orbit point to the identity, with tail 2**-depth."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    value = Fraction(0)
    for j, n in enumerate(chain.terms(depth), start=1):
        if k % n != 0:
            value += Fraction(1, 2 ** (j + 1))
    return value, Fraction(1, 2**depth)


_LAYER_PERIOD_GUARD = 1_000_000


def sawtooth_sampling(chain: FrequencyChain, depth: int) -> SamplingFunction:
    """Materialized sawtooth tower; periods above the guard are rejected."""
    layers = []
    for n in chain.terms(depth):
        if n > _LAYER_PERIOD_GUARD:
            raise ValueError(f"period {n} too large to materialize")
        layers.append(PeriodicLayer(n, tuple(t / n**3 for t in range(n))))
    return SamplingFunction(chain, tuple(layers), float(sawtooth_tail(chain, depth)))


def metric_sampling(chain: FrequencyChain, depth: int) -> SamplingFunction:
    layers = []
    for j, n in enumerate(chain.terms(depth), start=1):
        if n > _LAYER_PERIOD_GUARD:
            raise ValueError(f"period {n} too large to materialize")
        weight = 2.0 ** -(j + 1)
        layers.append(PeriodicLayer(n, tuple(0.0 if t == 0 else weight for t in range(n))))
    return SamplingFunction(chain, tuple(layers), 2.0**-depth)


@dataclass(frozen=True)
class Potential:
    """A two-sided sequence ``n -> V(n)`` with certified evaluation error and sup bound.

    ``kind`` matches the manifest wire names: "remark" (sawtooth tower),
    "metric" (distance tower), "layers" (explicit tower), "periodic" (one
    explicit period), "iid" (seeded noise, for negative controls).  The three
    tower kinds share one representation: ``sampling`` read at orbit index
    ``base + n * generator``, with ``tails[l - 1]`` the certified tail of the
    level-l approximant for l in ``1..depth``.
    """

    kind: str
    tol: float
    sup_bound: float
    period: Optional[int] = None
    base: int = 0
    generator: int = 1
    sampling: Optional[SamplingFunction] = None
    tails: tuple[float, ...] = ()
    values: Optional[tuple[float, ...]] = None
    seed: Optional[int] = None
    low: float = 0.0
    high: float = 1.0

    @property
    def chain(self) -> Optional[FrequencyChain]:
        return self.sampling.chain if self.sampling is not None else None

    @property
    def depth(self) -> Optional[int]:
        return self.sampling.depth if self.sampling is not None else None

    def value(self, n: int) -> float:
        if self.kind == "periodic":
            return self.values[n % self.period]
        if self.sampling is not None:
            k = self.base + n * self.generator
            return sum(layer.values[k % layer.period] for layer in self.sampling.layers)
        if self.kind == "iid":
            return self.low + (self.high - self.low) * random.Random(
                f"{self.seed}:{n}"
            ).random()
        raise ValueError(f"unknown potential kind {self.kind!r}")

    __call__ = value

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
        layers = self.sampling.layers[:level]
        n_level = layers[-1].period
        out = []
        for n in range(n_level // math.gcd(n_level, self.generator)):
            k = self.base + n * self.generator
            out.append(sum(layer.values[k % layer.period] for layer in layers))
        return out


def _tower_potential(
    kind: str,
    f: SamplingFunction,
    base: int,
    generator: int,
    tail: Callable[[int], float],
) -> Potential:
    """Read ``f`` at orbit index ``base + n * generator``; ``tail(l)`` certifies level l."""
    n_depth = f.layers[-1].period if f.layers else 1
    return Potential(
        kind=kind,
        tol=f.residual_bound,
        sup_bound=f.sup_bound(),
        period=n_depth // math.gcd(n_depth, generator),
        base=base,
        generator=generator,
        sampling=f,
        tails=tuple(tail(level) for level in range(1, f.depth + 1)),
    )


def periodic_potential(values: Sequence[float]) -> Potential:
    vals = tuple(float(v) for v in values)
    if not vals:
        raise ValueError("periodic potential needs at least one value")
    return Potential(
        kind="periodic",
        tol=0.0,
        sup_bound=max(abs(v) for v in vals),
        period=len(vals),
        values=vals,
    )


def sawtooth_potential(
    chain: FrequencyChain, depth: int, base: int = 0, generator: int = 1
) -> Potential:
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return _tower_potential(
        "remark",
        sawtooth_sampling(chain, depth),
        base,
        generator,
        lambda level: float(sawtooth_tail(chain, level)),
    )


def metric_potential(
    chain: FrequencyChain, depth: int, base: int = 0, generator: int = 1
) -> Potential:
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return _tower_potential(
        "metric", metric_sampling(chain, depth), base, generator, lambda level: 2.0**-level
    )


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


def iid_uniform_potential(seed: int, low: float = 0.0, high: float = 1.0) -> Potential:
    """Seeded uniform noise; deterministic per (seed, n) and order-independent."""
    if high < low:
        raise ValueError("high must be >= low")
    return Potential(
        kind="iid",
        tol=0.0,
        sup_bound=max(abs(low), abs(high)),
        seed=seed,
        low=low,
        high=high,
    )


class ExtractionResult(NamedTuple):
    sampling: SamplingFunction
    residual_sup: float
    within_tol: bool


def sampling_from_potential(
    values: Sequence[float],
    chain: FrequencyChain,
    level: int,
    tol: float,
    start: int = 0,
) -> ExtractionResult:
    """Greedy layer extraction from an explicit window of potential values.

    Level by level, the layer is the mean of the current residual over each
    residue class mod ``n_j``; window positions are ``start, start + 1, ...``.
    For a genuinely limit-periodic input built over the same chain the final
    residual is at most the level tail plus window error, while generic input
    leaves a large residual and is flagged as not limit-periodic at ``tol``.
    """
    window = [float(v) for v in values]
    n_level = chain.nth_term(level)
    if len(window) < n_level:
        raise ValueError(f"window of {len(window)} values shorter than period {n_level}")
    layers = []
    for n in chain.terms(level):
        sums = [0.0] * n
        counts = [0] * n
        for idx, v in enumerate(window):
            t = (start + idx) % n
            sums[t] += v
            counts[t] += 1
        layer_vals = tuple(sums[t] / counts[t] for t in range(n))
        layers.append(PeriodicLayer(n, layer_vals))
        for idx in range(len(window)):
            window[idx] -= layer_vals[(start + idx) % n]
    residual = max(abs(v) for v in window)
    return ExtractionResult(
        SamplingFunction(chain, tuple(layers)), residual, residual <= tol
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


def gordon_check(
    V: Potential,
    q_list: Sequence[int],
    log_threshold: Optional[Callable[[int, int], float]] = None,
) -> GordonReport:
    """Check the Gordon periodic-approximation condition along the scales q_list.

    Scale j passes when ``max_{1 <= n <= q_j} |V(n) - V(n +- q_j)| <= j**-q_j``.
    Thresholds are compared in log space since ``j**-q_j`` underflows doubles
    once ``q_j * log(j)`` passes about 700.  ``log_threshold(j, q)`` overrides
    the default rule ``-q * log(j)``.  The j = 1 threshold is 1 and is applied
    literally.
    """
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
        log_thr = log_threshold(j, q) if log_threshold else -q * math.log(j) + 0.0
        log_diff = math.log(max_diff) if max_diff > 0 else -math.inf
        ok = log_diff <= log_thr
        all_ok = all_ok and ok
        margins.append(
            GordonMargin(j, q, max_diff, log_diff, log_thr, log_thr - log_diff, ok)
        )
    return GordonReport(all_ok, tuple(margins))
