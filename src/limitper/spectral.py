"""Spectral measurements for ``[Hu](n) = u(n+1) + u(n-1) + V(n) u(n)``.

Transfer-matrix products are rescaled at norm 2**512 with an accumulated
log-scale, so Lyapunov exponents are computed overflow-free.  Each step tests
only the two entries it computes (the other two are last step's, already in
range), and a NaN or out-of-range entry runs the full check.  Periodic spectra
come from the discriminant (trace of the one-period transfer matrix): the
spectrum is exactly ``{E : |Delta(E)| <= 2}``.  Delta runs the two-solution
recurrence over the period in a plain loop, the same arithmetic as the
transfer product without its per-step rescale test, and falls back to the
rescaled product only when one period grows past the rescale threshold.  Each
band is bracketed by two neighbouring Dirichlet eigenvalues (one per gap),
found together by multisection on the Sturm count: fences still sharing a
bracket share each count.  A fence alone in its bracket ends where bisection
on the count would end, found without bisecting: a safeguarded secant on the
Dirichlet determinant locates the float where the count reaches the fence's
index, and the bisection is replayed against that float.  This relies on the
count being monotone in E, which a zero pivot nudged to -5e-324 keeps, so
only fences where it need not be (for ||V|| near the float range) are
bisected on counts.  Band edges are localized by bisection on Delta,
which stays stable where explicit polynomial coefficients would not.  The
integrated density of states uses the symmetric tridiagonal inertia count,
O(N) per energy with integer-valued counts.
"""

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

from .frequency import FrequencyChain
from .potential import PeriodicLayer, Potential, read_window

_RESCALE = 2.0**512
_RESCALE_LOG = 512.0 * math.log(2.0)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class TransferState:
    """2x2 transfer product, stored descaled with an accumulated log-scale factor."""

    m11: float
    m12: float
    m21: float
    m22: float
    log_scale: float = 0.0

    def norm(self) -> float:
        """Max-abs-entry norm; spectrally equivalent to the operator norm for 2x2."""
        return max(abs(self.m11), abs(self.m12), abs(self.m21), abs(self.m22))


def transfer_product(
    V: Callable[[int], float], E: float, n_start: int, n_end: int
) -> TransferState:
    """Ordered product of one-step matrices ``[[E - V(n), -1], [1, 0]]`` over [n_start, n_end).

    New steps multiply on the left, propagating (u(n+1), u(n)).  An empty range
    returns the identity with log-scale 0.  V is streamed by ``read_window``, one
    site per step, so the memory taken does not grow with the range.
    """
    if n_start > n_end:
        raise ValueError(f"n_start {n_start} must be <= n_end {n_end}")
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    log_scale = 0.0
    R = _RESCALE
    for n, v in enumerate(read_window(V, n_start, n_end), n_start):
        a = E - v
        m11, m21 = a * m11 - m21, m11
        m12, m22 = a * m12 - m22, m12
        # m21 and m22 were m11 and m12 a step ago, within R; NaN fails the test
        if -R <= m11 <= R and -R <= m12 <= R:
            continue
        mag = max(abs(m11), abs(m12), abs(m21), abs(m22))
        while mag > _RESCALE:
            if mag == math.inf:
                raise ValueError(f"transfer matrix overflowed at site {n}, E = {E!r}")
            m11 /= _RESCALE
            m12 /= _RESCALE
            m21 /= _RESCALE
            m22 /= _RESCALE
            log_scale += _RESCALE_LOG
            mag /= _RESCALE
    return TransferState(m11, m12, m21, m22, log_scale)


def lyapunov_estimate(V: Callable[[int], float], E: float, N: int) -> float:
    """Finite-size Lyapunov estimate ``log ||T_N|| / N`` over sites 1..N.

    Reported raw: small negative values are possible at finite N and are not
    clamped, so exact shift identities survive.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    state = transfer_product(V, E, 1, N + 1)
    return (state.log_scale + math.log(state.norm())) / N


_PeriodValues = Union[PeriodicLayer, Sequence[float]]


def _period_values(v: _PeriodValues) -> tuple[float, ...]:
    if isinstance(v, PeriodicLayer):
        return v.values
    vals = tuple(map(float, v))
    if not vals:
        raise ValueError("period values must be nonempty")
    return vals


def discriminant(v_period: _PeriodValues, E: float) -> float:
    """Trace of the one-period transfer matrix (a degree-p monic polynomial in E).

    The product's columns are two solutions of ``u(n+1) = (E - V(n)) u(n) -
    u(n-1)``: phi runs down (m11, m21) and theta down (m12, m22), with the same
    operations in the same order as ``transfer_product``, so the trace
    ``phi + theta_prev`` is bitwise its value whenever that product never
    rescales.  A period whose entries end above the rescale threshold (or
    overflow) is redone by the rescaled product; a trace past the float range
    comes back as a signed infinity.
    """
    vals = _period_values(v_period)
    phi, phi_prev, theta, theta_prev = 1.0, 0.0, 0.0, 1.0
    for v in vals:
        a = E - v
        phi, phi_prev = a * phi - phi_prev, phi
        theta, theta_prev = a * theta - theta_prev, theta
    # NaN fails every comparison, so this also catches an overflowed product.
    if all(abs(m) <= _RESCALE for m in (phi, phi_prev, theta, theta_prev)):
        return phi + theta_prev
    state = transfer_product(vals.__getitem__, E, 0, len(vals))
    trace = state.m11 + state.m22
    if trace == 0.0:
        return trace
    log_mag = math.log(abs(trace)) + state.log_scale
    if log_mag > _LOG_FLOAT_MAX:
        return math.copysign(math.inf, trace)
    if state.log_scale < _LOG_FLOAT_MAX:
        return trace * math.exp(state.log_scale)
    return math.copysign(math.exp(log_mag), trace)


@dataclass(frozen=True)
class BandSet:
    """Finite union of disjoint closed intervals, sorted ascending."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "intervals", tuple((float(a), float(b)) for a, b in self.intervals)
        )
        prev_hi = -math.inf
        for lo, hi in self.intervals:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("band endpoints must be finite")
            if hi < lo:
                raise ValueError(f"empty interval [{lo}, {hi}]")
            if lo <= prev_hi:
                raise ValueError("intervals must be disjoint and ascending")
            prev_hi = hi

    def measure(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)

    def to_json_dict(self) -> dict:
        return {"bands": [[lo, hi] for lo, hi in self.intervals]}


def _midpoint(lo: float, hi: float) -> float:
    """``(lo + hi) / 2``, or the sum of the halves where the sum overflows."""
    mid = (lo + hi) / 2.0
    return lo / 2.0 + hi / 2.0 if math.isinf(mid) else mid


def _point_distance(x: float, intervals: Sequence[tuple[float, float]]) -> float:
    best = math.inf
    for lo, hi in intervals:
        if x < lo:
            best = min(best, lo - x)
        elif x > hi:
            best = min(best, x - hi)
        else:
            return 0.0
    return best


def _directed_hausdorff(a: BandSet, b: BandSet) -> float:
    # Over a union of intervals, distance-to-b peaks at interval endpoints of a
    # or at gap midpoints of b that fall inside an interval of a.
    candidates = [p for lo, hi in a.intervals for p in (lo, hi)]
    for (lo1, hi1), (lo2, _) in zip(b.intervals, b.intervals[1:]):
        mid = _midpoint(hi1, lo2)
        if any(lo <= mid <= hi for lo, hi in a.intervals):
            candidates.append(mid)
    return max(_point_distance(x, b.intervals) for x in candidates)


def hausdorff_dist(a: BandSet, b: BandSet) -> float:
    """Symmetric Hausdorff distance between two finite interval unions, from endpoints."""
    if not a.intervals and not b.intervals:
        return 0.0
    if not a.intervals or not b.intervals:
        return math.inf
    return max(_directed_hausdorff(a, b), _directed_hausdorff(b, a))


def _bisect(side: Callable[[float], int], lo: float, hi: float, width: float = 0.0) -> float:
    """Halve ``[lo, hi]`` towards a target point and return the last midpoint.

    ``side(x)`` is negative left of the target, positive right of it, and 0 on
    it, which ends the search at x.  Otherwise the search runs until the
    bracket is at most ``width`` wide or cannot be split in floating point.
    """
    while hi - lo > width:
        mid = _midpoint(lo, hi)
        if not lo < mid < hi:
            break
        s = side(mid)
        if s == 0:
            return mid
        if s < 0:
            lo = mid
        else:
            hi = mid
    return _midpoint(lo, hi)


def _sturm_det(values: Sequence[float], E: float) -> tuple[int, float]:
    """``eigenvalue_count(values, E)`` and the product of the same pivots.

    The product is the Dirichlet determinant ``det(H - E)``, so its sign is
    ``(-1)**count``.  It may underflow to 0 or overflow to infinity on long
    periods, and it is infinite or NaN after an exact zero pivot.
    """
    count = 0
    det = 1.0
    d = math.inf
    for v in values:
        d = (v - E) - 1.0 / d
        if d < 0.0:
            count += 1
        elif d == 0.0:
            d = -5e-324
            count += 1
        det *= d
    return count, det


def _flip_point(
    dirichlet: Sequence[float], k: int, a: float, fa: float, b: float, fb: float
) -> float:
    """Least float of ``(a, b]`` with at least k eigenvalues of ``dirichlet`` at or below it.

    Needs counts below k at a and at least k at b, with determinants fa and fb.
    The count at each guess decides which end it replaces; the determinants
    only propose the guess, by a secant step with the Illinois halving of an
    end kept twice.  A guess that lands on an end (its determinant is tiny
    beside the other) moves to that end's neighbouring float.  The guess is
    the midpoint when a determinant is zero or not finite, and after three
    guesses in a row have failed to halve the bracket.  The search ends at
    adjacent floats.
    """
    kept = 0  # 1 when b moved last, -1 when a did
    stalled = 0  # guesses since the bracket last halved
    halved_at = b - a
    while True:
        mid = _midpoint(a, b)
        if not a < mid < b:
            return b
        x = mid
        if stalled < 3 and 0.0 < abs(fa) < math.inf and 0.0 < abs(fb) < math.inf:
            x = b - fb * ((b - a) / (fb - fa))
            if x >= b:
                x = math.nextafter(b, a)
            elif x <= a:
                x = math.nextafter(a, b)
        c, f = _sturm_det(dirichlet, x)
        if c >= k:
            b, fb = x, f
            if kept == 1:
                fa /= 2.0
            kept = 1
        else:
            a, fa = x, f
            if kept == -1:
                fb /= 2.0
            kept = -1
        if b - a <= halved_at / 2.0:
            halved_at, stalled = b - a, 0
        else:
            stalled += 1


def _dirichlet_fences(vals: Sequence[float]) -> list[float]:
    """``[-outer, mu_1, ..., mu_{p-1}, outer]`` for the period ``vals``, ``outer = 3 + ||V||``.

    mu_k is where bisection of ``[-outer, outer]`` on "at least k Dirichlet
    eigenvalues of sites 0..p-2 lie at or below E" ends.  Fences whose
    bisections have taken the same turns so far share one bracket, so one
    Sturm count at its midpoint sends fences 1..c left and the rest right; a
    bracket that floating point cannot split puts all its fences at its
    midpoint.  Every fence sees the same midpoints and the same counts as its
    own bisection from ``[-outer, outer]``.

    A bracket left with one fence k is not bisected on counts.  The floating
    point Sturm count is monotone in E (Kahan 1966; Demmel, Dhillon and Ren
    1995), so each remaining step of that bisection turns on whether its
    midpoint lies at or above the flip point, the least float whose count is
    at least k.  ``_flip_point`` finds that float by a safeguarded secant on
    the determinant, and the bisection is replayed against it with no count.
    So the fences are bitwise those of p - 1 separate bisections.

    Monotonicity needs pivots that do not overflow.  So a fence is bisected on
    counts instead when ||V|| is within a factor 2 of the float range and when
    its bracket's end counts do not straddle k, which monotonicity rules out.
    """
    p = len(vals)
    outer = 3.0 + max(abs(v) for v in vals)
    dirichlet = vals[:-1]
    fences = [-outer] * p + [outer]
    searchable = outer < 2.0**1023  # so that no V - E overflows
    # brackets (left, right, first, last) with (E, count, det) at each end
    bottom = (-outer, *_sturm_det(dirichlet, -outer))
    top = (outer, *_sturm_det(dirichlet, outer))
    stack = [(bottom, top, 1, p - 1)]  # p = 1: one count, no fence
    while stack:
        left, right, first, last = stack.pop()
        lo, hi = left[0], right[0]
        mid = _midpoint(lo, hi)
        if not lo < mid < hi:
            fences[first : last + 1] = [mid] * (last - first + 1)
            continue
        if first == last:
            k = first
            flip = math.nan  # fails the test below: bisect on counts
            if searchable and left[1] < k <= right[1]:
                flip = _flip_point(dirichlet, k, lo, left[2], hi, right[2])
            if not math.isnan(flip):
                fences[k] = _bisect(lambda e: 1 if e >= flip else -1, lo, hi)
            else:
                above = lambda e: 1 if eigenvalue_count(dirichlet, e) >= k else -1
                fences[k] = _bisect(above, lo, hi)
            continue
        at_mid = (mid, *_sturm_det(dirichlet, mid))
        c = at_mid[1]
        if first <= c:
            stack.append((left, at_mid, first, min(c, last)))
        if c < last:
            stack.append((at_mid, right, max(c + 1, first), last))
    return fences


def bands(v_period: _PeriodValues, tol: float = 1e-9) -> BandSet:
    """Spectrum ``{E : |Delta(E)| <= 2}`` of a periodic potential as a BandSet.

    Interlacing fixes one bracket per band.  The Dirichlet eigenvalues
    mu_1 < ... < mu_{p-1} of sites 0..p-2 (zeros of the lower-left monodromy
    entry) lie one in the closure of each gap, so with the outer fences
    ``-(3 + ||V||)`` and ``3 + ||V||`` band j is the only part of
    ``[mu_{j-1}, mu_j]`` where |Delta| <= 2.  Right of it Delta has the sign
    ``(-1)**(p - j)``, left of it the opposite sign, so bisection on that sign
    finds a point inside the band, and bisection on |Delta| <= 2 from that
    point out to each fence finds its edges to width ``tol``.  The fences are
    the ends of Sturm-count bisections run to float resolution
    (``_dirichlet_fences``): a fence off by ``tol`` could sit inside a
    neighbouring band.  Every band is
    found; bands separated by less than ``tol`` (a closed gap) merge into one
    interval.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    vals = _period_values(v_period)
    p = len(vals)
    # A layer is converted once here; discriminant reads its values as they are.
    layer = PeriodicLayer(p, vals)
    fences = _dirichlet_fences(vals)

    merged: list[list[float]] = []
    for j in range(1, p + 1):
        right_sign = (-1) ** (p - j)  # sign of Delta right of band j

        def side(e: float) -> int:
            d = discriminant(layer, e)
            return 0 if abs(d) <= 2.0 else (1 if d * right_sign > 0.0 else -1)

        lo, hi = fences[j - 1], fences[j]
        seed = _bisect(side, lo, hi)
        left = _bisect(lambda e: side(e) or 1, lo, seed, tol)
        right = _bisect(lambda e: side(e) or -1, seed, hi, tol)
        if merged and left - merged[-1][1] < tol:
            merged[-1][1] = max(merged[-1][1], right)
        else:
            merged.append([left, right])
    return BandSet(tuple((lo, hi) for lo, hi in merged))


def eigenvalue_count(values: Sequence[float], E: float) -> int:
    """Eigenvalues <= E of the Dirichlet truncation with diagonal ``values``.

    Sturm inertia count on the symmetric tridiagonal matrix with unit
    off-diagonals: negative pivots of ``d_i = (V(i) - E) - 1/d_{i-1}``.  A zero
    pivot means E is exactly an eigenvalue of a leading minor; it is nudged to
    -5e-324 so the eigenvalue is counted.  Then the next pivot is +inf and the
    one after is exact: IEEE arithmetic's own treatment of a zero pivot, for
    which the count is monotone in E (Demmel, Dhillon and Ren 1995).  The pivot
    before the first is taken as infinite, so the first pivot is exactly
    ``V(0) - E``.
    """
    count = 0
    d = math.inf
    for v in values:
        d = (v - E) - 1.0 / d
        if d < 0.0:
            count += 1
        elif d == 0.0:
            d = -5e-324
            count += 1
    return count


def ids(V: Callable[[int], float], E: float, N: int = 10_000) -> float:
    """Integrated density of states at E from the N-site Dirichlet truncation."""
    return ids_curve(V, (E,), N).values[0]


@dataclass(frozen=True)
class IDSCurve:
    energies: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.energies) != len(self.values):
            raise ValueError("energies and values must have equal length")
        if any(b < a for a, b in zip(self.energies, self.energies[1:])):
            raise ValueError("energy grid must be ascending")


def ids_curve(V: Callable[[int], float], energies: Sequence[float], N: int = 10_000) -> IDSCurve:
    """IDS sampled on an ascending grid; the potential window is built once."""
    if N < 1:
        raise ValueError("N must be >= 1")
    window = list(read_window(V, 1, N + 1))
    grid = tuple(float(e) for e in energies)
    vals = tuple(eigenvalue_count(window, e) / N for e in grid)
    return IDSCurve(grid, vals)


def log_holder_report(curve: IDSCurve) -> dict:
    """Qualitative log-Holder modulus of an IDS curve.

    For adjacent grid energies, reports ``|dk| * log(1/|dE|)``; log-Holder
    continuity keeps this bounded, so large values flag near-violations worth
    inspecting at finer resolution.
    """
    rows = []
    worst = 0.0
    for (e1, k1), (e2, k2) in zip(
        zip(curve.energies, curve.values), zip(curve.energies[1:], curve.values[1:])
    ):
        de = e2 - e1
        if de <= 0:
            continue
        product = abs(k2 - k1) * math.log(1.0 / de) if de < 1.0 else 0.0
        worst = max(worst, product)
        rows.append({"E": _midpoint(e1, e2), "dk": k2 - k1, "dE": de, "log_holder": product})
    return {"max_log_holder": worst, "pairs": rows}


@dataclass(frozen=True)
class SpectrumApprox:
    band_set: BandSet
    tail_bound: float
    level: int
    period: int

    def to_json_dict(self) -> dict:
        out = self.band_set.to_json_dict()
        out["tail_bound"] = self.tail_bound
        out["level"] = self.level
        out["period"] = self.period
        return out


def spectrum_approx(V: Potential, level: int, tol: float = 1e-9) -> SpectrumApprox:
    """Band set of the level-``level`` periodic approximant, with a Hausdorff certificate.

    The true spectrum lies within Hausdorff distance ``tail_bound`` of the
    returned set: replacing V by its approximant is a self-adjoint perturbation
    of that sup-norm size, and spectra of self-adjoint operators move by at
    most the perturbation norm.
    """
    values = V.level_values(level)
    tail = V.level_tail(level)
    return SpectrumApprox(bands(values, tol), tail, level, len(values))


class ConditionAReport(NamedTuple):
    witness: int
    sup_log_ratio: float
    scope: str  # "all-levels" for ruled chains, "prefix-only" otherwise
    unbounded_trend: bool
    log_ratios: tuple[float, ...]


def condition_a_check(chain: FrequencyChain, depth: int) -> ConditionAReport:
    """Uniform bound on ``log m_{j+1} / log m_j`` along the chain entries.

    The witness is the least integer m >= 2 with ``m_{j+1} <= m_j**m``
    everywhere, found by exact integer comparisons.  For ruled chains the
    cyclic ratios bound every level, so the witness covers the whole chain
    (internally the scan is extended through one full cycle past the prefix).
    A bare prefix only supports a witness for the listed entries; that case
    is flagged, along with a strictly increasing trend in the log-ratios,
    which suggests the continuation is unbounded.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2 to form a ratio")
    if chain.rule:
        scan = max(depth, len(chain.prefix) + len(chain.rule) + 1)
        scope = "all-levels"
    else:
        scan = min(depth, len(chain.prefix))
        scope = "prefix-only"
    entries = chain.terms(scan)
    entries = [n for n in entries if n > 1]  # a leading 1 carries no frequency content
    if len(entries) < 2:
        raise ValueError("need at least two entries above 1")
    witness = 2
    log_ratios = []
    for a, b in zip(entries, entries[1:]):
        log_ratios.append(math.log(b) / math.log(a))
        e = 1
        power = a
        while power < b:
            power *= a
            e += 1
        witness = max(witness, e)
    reported = tuple(log_ratios[: max(depth - 1, 1)])
    trend = len(reported) >= 2 and all(
        x < y for x, y in zip(reported, reported[1:])
    )
    return ConditionAReport(
        witness=witness,
        sup_log_ratio=max(log_ratios),
        scope=scope,
        unbounded_trend=scope == "prefix-only" and trend,
        log_ratios=reported,
    )
