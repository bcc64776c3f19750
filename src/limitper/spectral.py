"""Spectral measurements for ``[Hu](n) = u(n+1) + u(n-1) + V(n) u(n)``.

Transfer-matrix products are rescaled at norm 2**512 with an accumulated
log-scale, so Lyapunov exponents are computed overflow-free.  Each step tests
only the two entries it computes (the other two are last step's, already in
range), and an out-of-range entry runs the full check; an infinite or NaN
entry restarts the product, rescaled before each step.  Periodic
spectra come from the discriminant (trace of the one-period transfer matrix): the
spectrum is exactly ``{E : |Delta(E)| <= 2}``.  Delta runs the two-solution
recurrence over the period in a plain loop, the same arithmetic as the
transfer product without its per-step rescale test, and falls back to the
rescaled product only when one period overflows, scaling its trace back by
the power of two it was rescaled by.  Each
band is bracketed by two neighbouring Dirichlet eigenvalues (one per gap),
found together by multisection on the Sturm count: fences still sharing a
bracket share each count.  A fence alone in its bracket ends where bisection
on the count would end, found without bisecting: a safeguarded secant on the
Dirichlet determinant locates the float where the count reaches the fence's
index, and the fence is its midpoint with the float below.  Between ends that
count k - 1 and k, the determinant's sign alone tells the count at a guess.
This relies on the count being monotone in E, which a zero pivot nudged to
-5e-324 keeps, so only fences where it need not be (for ||V|| near the float
range) are bisected on counts.  The two edges of a gap come from a quadratic
model of Delta at its fence, each checked to lie within tol/2 of where
``|Delta| <= 2`` changes and polished only if that check fails, by Newton
steps from the two values of Delta the check computed; the outer edges, and
a gap whose check still fails, are bisected on Delta.  Both evaluate Delta
by its recurrence, which stays stable where explicit polynomial
coefficients would not.  The integrated density of
states uses the symmetric tridiagonal inertia count, O(N) per energy with
integer-valued counts; sites with no stored period are read once, in chunks,
each chunk advancing every energy's count.  On a window that holds its
period (``PeriodicWindow``) the same count comes in O(p) per energy from the
Floquet closed form, certified against the rounding of both computations,
and the O(N) count runs only where the certificate fails.
"""

import math
from collections import namedtuple
from itertools import islice
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .frequency import FrequencyChain
from .potential import PeriodicWindow, Potential, read_window

_RESCALE = 2.0**512
_RESCALE_LOG = 512.0 * math.log(2.0)
_LOG_2 = math.log(2.0)


class TransferState(NamedTuple):
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

    Rescaling after a step cannot save a step whose |E - V(n)| is so large
    (about 1.3e154 or more) that its product with the rescaled entries
    overflows.  So the first infinite or NaN entry restarts the product in
    ``_prescaled_transfer``, which rescales before such a step; a site or
    energy that is itself infinite or NaN raises there.
    """
    if n_start > n_end:
        raise ValueError(f"n_start {n_start} must be <= n_end {n_end}")
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    log_scale = 0.0
    R = _RESCALE
    for v in read_window(V, n_start, n_end):
        a = E - v
        m11, m21 = a * m11 - m21, m11
        m12, m22 = a * m12 - m22, m12
        # m21 and m22 were m11 and m12 a step ago, within R; NaN fails the test
        if -R <= m11 <= R and -R <= m12 <= R:
            continue
        if not (abs(m11) < math.inf and abs(m12) < math.inf):
            return _prescaled_transfer(V, E, n_start, n_end)
        # a finite entry is below 2**1024, so one division brings it within R
        m11, m12, m21, m22 = m11 / R, m12 / R, m21 / R, m22 / R
        log_scale += _RESCALE_LOG
    return TransferState(m11, m12, m21, m22, log_scale)


def _prescaled_transfer(
    V: Callable[[int], float], E: float, n_start: int, n_end: int
) -> TransferState:
    """``transfer_product`` with each step rescaled before it, for huge |E - V(n)|.

    A step takes ``h = (E - V(n))/2``, finite whenever E and V(n) are.  Where
    ``max|entry| * (|h| + 1)`` passes 2**1000, the entries are first scaled by
    a power of two that brings it into (2**998, 2**1000], so ``2 h m - m'``
    cannot overflow.  An entry the scaling pushes below 2**-1022 is then less
    than 2**-995 of the largest, so what it loses is far below the rounding of
    the step.  The first site n where V(n) or E is infinite or NaN raises.
    """
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    log_scale = 0.0
    for n, v in enumerate(read_window(V, n_start, n_end), n_start):
        h = 0.5 * E - 0.5 * v
        if not math.isfinite(h):
            raise ValueError(f"transfer step at site {n} is not finite: V = {v!r}, E = {E!r}")
        mag = max(abs(m11), abs(m12), abs(m21), abs(m22))
        if mag * (abs(h) + 1.0) > 2.0**1000:
            shift = math.frexp(mag)[1] + math.frexp(abs(h) + 1.0)[1] - 1000
            m11, m12 = math.ldexp(m11, -shift), math.ldexp(m12, -shift)
            m21, m22 = math.ldexp(m21, -shift), math.ldexp(m22, -shift)
            log_scale += shift * _LOG_2
        m11, m21 = 2.0 * (h * m11) - m21, m11
        m12, m22 = 2.0 * (h * m12) - m22, m12
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


def discriminant(vals: Sequence[float], E: float) -> float:
    """Trace of the one-period transfer matrix (a degree-p monic polynomial in E).

    ``vals`` is one nonempty period, read as given and never copied.  The
    product's columns are two solutions of ``u(n+1) = (E - V(n)) u(n) -
    u(n-1)``: phi runs down (m11, m21) and theta down (m12, m22), with the same
    operations in the same order as ``transfer_product``, so the trace
    ``phi + theta_prev`` is bitwise its value whenever that product never
    rescales, and is kept whenever both its terms are finite.  A period where
    one overflows is redone by the rescaled product.  That product rescales
    by powers of two only, so ``math.ldexp`` scales its trace back with no
    rounding; a trace past the float range comes back as a signed infinity.
    """
    if not vals:
        raise ValueError("period values must be nonempty")
    phi, phi_prev, theta, theta_prev = 1.0, 0.0, 0.0, 1.0
    for v in vals:
        a = E - v
        phi, phi_prev = a * phi - phi_prev, phi
        theta, theta_prev = a * theta - theta_prev, theta
    if abs(phi) < math.inf and abs(theta_prev) < math.inf:  # NaN fails too
        return phi + theta_prev
    state = transfer_product(vals.__getitem__, E, 0, len(vals))
    trace = state.m11 + state.m22
    try:
        return math.ldexp(trace, round(state.log_scale / _LOG_2))
    except OverflowError:
        return math.copysign(math.inf, trace)


class BandSet(namedtuple("BandSet", "intervals")):
    """Finite union of disjoint closed intervals, sorted ascending."""

    __slots__ = ()

    def __new__(cls, intervals: Iterable[tuple[float, float]]) -> "BandSet":
        intervals = tuple((float(a), float(b)) for a, b in intervals)
        prev_hi = -math.inf
        for lo, hi in intervals:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("band endpoints must be finite")
            if hi < lo:
                raise ValueError(f"empty interval [{lo}, {hi}]")
            if lo <= prev_hi:
                raise ValueError("intervals must be disjoint and ascending")
            prev_hi = hi
        return super().__new__(cls, intervals)

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


def _pivot_product(values: Sequence[float], E: float) -> float:
    """``_sturm_det(values, E)[1]`` with no count, where no pivot is exactly zero.

    The same pivots multiplied in the same order, so the product is bitwise
    ``_sturm_det``'s.  A zero pivot before the last raises ZeroDivisionError,
    and a last one makes the product 0.
    """
    det = 1.0
    d = math.inf
    for v in values:
        d = (v - E) - 1.0 / d
        det *= d
    return det


def _count_flip(dirichlet: Sequence[float], k: int, lo: float, hi: float) -> float:
    """Where bisection of ``[lo, hi]`` on "at least k eigenvalues at or below E" ends."""
    return _bisect(lambda e: 1 if eigenvalue_count(dirichlet, e) >= k else -1, lo, hi)


def _flip_point(
    dirichlet: Sequence[float],
    k: int,
    left: tuple[float, int, float],
    right: tuple[float, int, float],
) -> float:
    """``_count_flip`` of ``[a, b]``, read from determinant signs alone.

    ``left`` and ``right`` are ``(E, count, det)`` at a and b, with counts
    k - 1 and k.  The count is monotone in E, and a midpoint lies strictly
    between two floats while a float does, so the bisection ends on the
    midpoint of the flip point, the least float of ``(a, b]`` whose count is
    at least k, and the float below it, from any bracket that holds the flip
    point.  Every count inside ``[a, b]`` is k - 1 or k, and the sign of the
    determinant, ``(-1)**count``, tells which: a guess takes
    ``_pivot_product`` alone.  The determinants also propose the guess, by a
    secant step with the Anderson-Bjorck scaling of an end kept twice (BIT 13,
    1973).  A guess that lands on an end (its determinant is tiny beside the
    other) moves to that end's neighbouring float.  The guess is the midpoint
    when a determinant is zero or not finite, and after three guesses in a
    row have failed to halve the bracket.  A guess with a zero pivot, or a
    product that is 0, infinite or NaN, ends the secant, and the bracket
    reached so far is bisected on counts.
    """
    a, _, fa = left
    b, _, fb = right
    odd = k % 2 == 1  # a determinant below 0 has an odd count
    kept = 0  # 1 when b moved last, -1 when a did
    stalled = 0  # guesses since the bracket last halved
    halved_at = b - a
    while a < (x := _midpoint(a, b)) < b:
        if stalled < 3 and 0.0 < abs(fa) < math.inf and 0.0 < abs(fb) < math.inf:
            x = b - fb * ((b - a) / (fb - fa))
            if x >= b:
                x = math.nextafter(b, a)
            elif x <= a:
                x = math.nextafter(a, b)
        try:
            f = _pivot_product(dirichlet, x)
        except ZeroDivisionError:
            break
        if not 0.0 < abs(f) < math.inf:
            break
        if (f < 0.0) == odd:
            if kept == 1:
                scale = 1.0 - f / fb
                fa *= scale if scale > 0.0 else 0.5
            b, fb = x, f
            kept = 1
        else:
            if kept == -1:
                scale = 1.0 - f / fa
                fb *= scale if scale > 0.0 else 0.5
            a, fa = x, f
            kept = -1
        if b - a <= halved_at / 2.0:
            halved_at, stalled = b - a, 0
        else:
            stalled += 1
    return _count_flip(dirichlet, k, a, b)


def _dirichlet_fences(vals: Sequence[float]) -> list[float]:
    """``[-outer, mu_1, ..., mu_{p-1}, outer]`` for the period ``vals``, ``outer = 3 + ||V||``.

    mu_k is where bisection of ``[-outer, outer]`` on "at least k Dirichlet
    eigenvalues of sites 0..p-2 lie at or below E" ends.  Fences whose
    bisections have taken the same turns so far share one bracket, so one
    Sturm count at its midpoint sends fences 1..c left and the rest right; a
    bracket that floating point cannot split puts all its fences at its
    midpoint.  Every fence sees the same midpoints and the same counts as its
    own bisection from ``[-outer, outer]``.

    A bracket left with one fence k whose end counts are k - 1 and k is not
    bisected on counts.  The floating point Sturm count is monotone in E
    (Kahan 1966; Demmel, Dhillon and Ren 1995), so ``_flip_point`` returns
    where that bisection ends from a safeguarded secant on the determinant,
    whose sign gives the count.  So the fences are bitwise those of p - 1
    separate bisections.  At p = 256 on the sawtooth tower a fence takes
    about 8 passes over the period, 7 of them without the count.

    Monotonicity needs pivots that do not overflow, so a fence is bisected on
    counts instead when ||V|| is within a factor 2 of the float range, and so
    is one whose end counts are off, as where ``3 + ||V||`` rounds to ||V||
    and ``(-1e20, 0.0, 5.0)`` counts 1 at -outer.
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
            if searchable and left[1] == k - 1 and right[1] == k:
                fences[k] = _flip_point(dirichlet, k, left, right)
            else:
                fences[k] = _count_flip(dirichlet, k, lo, hi)
            continue
        at_mid = (mid, *_sturm_det(dirichlet, mid))
        c = at_mid[1]
        if first <= c:
            stack.append((left, at_mid, first, min(c, last)))
        if c < last:
            stack.append((at_mid, right, max(c + 1, first), last))
    return fences


def _taylor2(vals: tuple[float, ...], E: float) -> Optional[tuple[float, float, float]]:
    """Delta, Delta' and Delta'' at E, or None where an entry ends past 2**512.

    The loop of ``discriminant``, with each solution's first and second
    derivatives in E run alongside it: differentiating ``u(n+1) = a u(n) -
    u(n-1)`` with ``da/dE = 1`` gives ``u'(n+1) = a u'(n) + u(n) - u'(n-1)`` and
    ``u''(n+1) = a u''(n) + 2 u'(n) - u''(n-1)``.  The entries are tested at
    the end, as in ``discriminant``: an overflow stays infinite or turns NaN,
    and NaN fails the test.
    """
    f, f0, g, g0 = 1.0, 0.0, 0.0, 1.0
    f1 = f10 = g1 = g10 = f2 = f20 = g2 = g20 = 0.0
    for v in vals:
        a = E - v
        f2, f20 = a * f2 + 2.0 * f1 - f20, f2
        g2, g20 = a * g2 + 2.0 * g1 - g20, g2
        f1, f10 = a * f1 + f - f10, f1
        g1, g10 = a * g1 + g - g10, g1
        f, f0 = a * f - f0, f
        g, g0 = a * g - g0, g
    R = _RESCALE
    if all(-R <= m <= R for m in (f, f0, g, g0, f1, f10, g1, g10, f2, f20, g2, g20)):
        return f + g0, f1 + g10, f2 + g20
    return None


def _gap_edges(
    vals: tuple[float, ...], lo: float, mu: float, hi: float, tol: float
) -> Optional[tuple[float, float]]:
    """Edges (l, r) of the gap around the Dirichlet fence mu, or None where the model fails.

    ``lo`` and ``hi`` are the fences either side of mu.  Delta's Taylor
    quadratic at mu, set equal to 2 s with s the sign of Delta(mu), gives one
    root each side of mu.  A root e passes if ``lo + tol/2 < e < hi - tol/2``
    and the float test ``|Delta| <= 2`` holds tol/2 into the band beside it
    and fails tol/2 into the gap.  Only a root that fails is polished, by up
    to three Newton steps, each checked again.  A step reads Delta and its
    slope at e from the check's two values tol/2 either side of e, their mean
    and their central difference, so it costs no Delta beyond the check's.
    A root out of range or NaN fails at once.  The pair is kept if
    both pass and ``l <= mu <= r``: then each edge lies within tol/2 of a
    change of the test, in the band beside it, as bisection would leave it.
    A wide gap, where the quadratic is a poor model, fails these checks.
    """
    taylor = _taylor2(vals, mu)
    if taylor is None:
        return None
    d0, d1, d2 = taylor
    target = 2.0 if d0 > 0.0 else -2.0
    c, a = d0 - target, 0.5 * d2
    disc = d1 * d1 - 4.0 * a * c
    if a == 0.0 or not disc >= 0.0:
        return None
    q = -0.5 * (d1 + math.copysign(math.sqrt(disc), d1))
    if q == 0.0:
        return None
    half = 0.5 * tol
    edges = []
    for h, into in zip(sorted((q / a, c / q)), (-half, half)):  # into the edge's band
        e = mu + h
        for steps in range(4):
            if not lo + half < e < hi - half:  # also refuses NaN
                return None
            d_in, d_out = discriminant(vals, e + into), discriminant(vals, e - into)
            if abs(d_in) <= 2.0 and not abs(d_out) <= 2.0:
                break
            slope = (d_in - d_out) / (2.0 * into)
            if steps == 3 or slope == 0.0:
                return None
            e -= (0.5 * (d_in + d_out) - target) / slope
        edges.append(e)
    l, r = edges
    return (l, r) if l <= mu <= r else None


def bands(v_period: Sequence[float], tol: float = 1e-9) -> BandSet:
    """Spectrum ``{E : |Delta(E)| <= 2}`` of a periodic potential as a BandSet.

    Interlacing fixes one bracket per band.  The Dirichlet eigenvalues
    mu_1 < ... < mu_{p-1} of sites 0..p-2 (zeros of the lower-left monodromy
    entry) lie one in the closure of each gap, so with the outer fences
    ``-(3 + ||V||)`` and ``3 + ||V||`` band j is the only part of
    ``[mu_{j-1}, mu_j]`` where |Delta| <= 2.  The fences are the ends of
    Sturm-count bisections run to float resolution (``_dirichlet_fences``): a
    fence off by ``tol`` could sit inside a neighbouring band.

    The two edges of gap j come from a quadratic model of Delta at mu_j
    (``_gap_edges``), each checked to lie within tol/2 of where the float
    test ``|Delta| <= 2`` changes and, only where that fails, polished by
    Newton steps from the check's two discriminants.  Where the check still
    fails (a wide gap), and at the two outer edges, the band's edges are
    bisected as follows.  Right of band j Delta has
    the sign ``(-1)**(p - j)``, left of it the opposite sign, so bisection on
    that sign finds a point inside the band, and bisection on |Delta| <= 2
    from that point out to each fence finds its edges to width ``tol``.  A
    model edge on the wrong side of that point, which its check allows when
    ``tol`` is coarse or the band narrow, is bisected too.  At p = 256 on the
    sawtooth tower this takes about 0.07 s, with 5.5 discriminants per band
    besides the model's pass, polishing included (47 bisecting every edge;
    2-core x86_64, Python 3.11).

    Every band is found; bands separated by less than ``tol`` (a closed gap)
    merge into one interval.  The period is converted to a tuple of floats
    once, here, and must be nonempty and finite.
    """
    if not 0 < tol < math.inf:  # also refuses NaN
        raise ValueError("tol must be positive and finite")
    vals = tuple(map(float, v_period))
    if not vals:
        raise ValueError("period values must be nonempty")
    if not all(map(math.isfinite, vals)):
        raise ValueError("period values must be finite")
    p = len(vals)
    fences = _dirichlet_fences(vals)

    merged: list[list[float]] = []
    next_left = None  # left edge of band j from the model of gap j - 1
    for j in range(1, p + 1):
        right_sign = (-1) ** (p - j)  # sign of Delta right of band j

        def side(e: float) -> int:
            d = discriminant(vals, e)
            return 0 if abs(d) <= 2.0 else (1 if d * right_sign > 0.0 else -1)

        lo, hi = fences[j - 1], fences[j]
        left, right, next_left = next_left, None, None
        if j < p and (edges := _gap_edges(vals, lo, hi, fences[j + 1], tol)):
            right, next_left = edges
        if left is None or right is None or right < left:
            seed = _bisect(side, lo, hi)
            if left is None or not left <= seed:
                left = _bisect(lambda e: side(e) or 1, lo, seed, tol)
            if right is None or not seed <= right:
                right = _bisect(lambda e: side(e) or -1, seed, hi, tol)
        if merged and left - merged[-1][1] < tol:
            merged[-1][1] = right  # band j - 1 ends at or below fence j - 1 <= right
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

    A ``PeriodicWindow`` (``Potential.window``) of N sites and period p is
    counted in O(p) from the Floquet closed form, with the result of this loop
    over all N sites; where rounding leaves that in doubt, the loop runs.
    """
    if isinstance(values, PeriodicWindow):
        count = _periodic_count(values.values, len(values), E)
        if count is not None:
            return count
    return _pivot_count(values, E)[0]


_CHUNK = 4096  # sites ``eigenvalue_counts`` holds at a time


def eigenvalue_counts(sites: Iterable[float], energies: Sequence[float]) -> list[int]:
    """``eigenvalue_count(list(sites), E)`` for each E in ``energies``, reading ``sites`` once.

    The sites are read in chunks of ``_CHUNK``, and each energy's pivot
    recurrence runs over a chunk from the pivot it ended the last one on, so
    every count is bitwise the one the loop gives over the whole list, and the
    memory taken is one chunk whatever the number of sites.
    """
    counts = [0] * len(energies)
    pivots = [math.inf] * len(energies)
    sites = iter(sites)
    while chunk := list(islice(sites, _CHUNK)):
        for i, E in enumerate(energies):
            count, pivots[i] = _pivot_count(chunk, E, pivots[i])
            counts[i] += count
    return counts


def _pivot_count(values: Iterable[float], E: float, d: float = math.inf) -> tuple[int, float]:
    """Negative pivots of ``d_i = (V(i) - E) - 1/d_{i-1}`` over ``values``, from the pivot d.

    Returns the count and the last pivot, from which the recurrence continues.
    """
    count = 0
    for v in values:
        d = (v - E) - 1.0 / d
        if d < 0.0:
            count += 1
        elif d == 0.0:
            d = -5e-324
            count += 1
    return count, d


_U = 2.0**-53  # unit roundoff


def _periodic_count(period: Sequence[float], N: int, E: float) -> Optional[int]:
    """``_pivot_count`` of N sites cycling ``period``, in O(p); None where not certified.

    Sites are 1..N with V(j) = period[(j - 1) % p].  phi solves
    ``phi(j+1) = (E - V(j)) phi(j) - phi(j-1)`` from phi(0) = 0, phi(1) = 1, so
    ``det(H_j - E) = (-1)**j phi(j+1)`` and the pivots are
    ``d_j = -phi(j+1)/phi(j)``.  The monodromy M = T_p...T_1 has trace
    Delta = 2x, and ``M**m = U_{m-1}(x) M - U_{m-2}(x) I`` with Chebyshev U.
    Take k = (N + 1) // p >= 2 and K = kp - 1 (Teschl, *Jacobi Operators and
    Completely Integrable Nonlinear Lattices*, AMS 2000, ch. 7):

    - ``phi(kp) = U_{k-1}(x) phi(p)``, so the K-site box has as eigenvalues the
      p - 1 Dirichlet eigenvalues mu of sites 1..p-1 (zeros of phi(p) = M21)
      and, in each band, the k - 1 roots of U_{k-1}(x).
    - c mu's lie at or below E, and the bands interlace with the mu's, so E is
      in band c + 1 or in a gap beside it.  ``s x`` with ``s = (-1)**(p-c-1)``
      runs from -1 to 1 across band c + 1.  In a gap the bands wholly below E
      number ``B = c + [s x > 1]``, and the K-site count is
      ``C = c + (k - 1) B``.  In the band ``psi = arccos(-s x)`` runs from 0
      to pi with the roots at ``psi = i pi / k``, i = 1..k-1, so
      ``C = c + (k - 1) c + min(floor(k psi / pi), k - 1)``.
    - The last ``t = N - K < p`` sites continue the pivots from
      ``d_K = -phi(kp)/phi(kp - 1)``.  ``(phi(kp), phi(kp - 1))`` is
      ``T_{p-1}...T_1 M**(k-1) e1``, and ``M**(k-1) e1`` comes from
      U_{k-2}(x) and U_{k-3}(x) in closed form, in O(1) for any k.

    Certificate.  The loop's pivots are, up to positive factors, the exact
    pivots of a tridiagonal matrix with the same diagonal and off-diagonals
    within 2.01u of 1 (each pivot carries three roundings), so by Weyl's
    inequality its count lies between the true counts at E - ETA and E + ETA,
    ``ETA = 4.02u + 2**-1000`` (the last term covers pivots in the subnormal
    range).  Each decision below is accepted only with a margin that covers
    that shift of E together with its own rounding, so the true count is the
    same all over ``[E - ETA, E + ETA]`` and equals the loop's.  The bounds are
    first order in u, doubled to cover the terms they drop (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., 2002, ch. 3).
    """
    p = len(period)
    k = (N + 1) // p
    L = abs(E) + max(map(abs, period)) + 1.0  # >= |E - V(j)| + 1, up to rounding
    if k < 2 or not L < 2.0**500:
        return None
    c = _pivot_count(islice(period, p - 1), E)[0]  # bitwise the loop's first p - 1 pivots
    # P_j = T_j...T_1 by the loop of ``discriminant``.  The second row of P_j
    # is the first row of P_{j-1}, so big[j] bounds every entry of P_j.
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    big, row = [1.0], 1.0
    for v in islice(period, p - 1):
        a = E - v
        m11, m21 = a * m11 - m21, m11
        m12, m22 = a * m12 - m22, m12
        r = abs(m11) + abs(m12)
        big.append(r if r > row else row)
        row = r
    q11, q12, q21, q22 = m11, m12, m21, m22  # P_{p-1}
    a = E - period[-1]
    m11, m21 = a * m11 - m21, m11
    m12, m22 = a * m12 - m22, m12
    # Error of M.  Step j rounds E - V(j), then one product and one difference
    # per new entry, so the computed P_j is T_j P_{j-1} + F_j, where F_j is
    # nonzero in its first row only and ||F_j||_1 <= 3.01u L big[j-1].  F_j
    # reaches M through S_{j+1} = T_p...T_{j+1}, so no entry of M is off by
    # more than sum_j ||S_{j+1}||_1 ||F_j||_1.  And dT_j/dE = e1 e1^T, so
    # moving E by ETA moves no entry by more than ETA sum_j ||S_{j+1}||_1
    # big[j-1].  Both, doubled: ``err = 8u (L + 2) sum_j ||S_{j+1}||_1
    # big[j-1]``.  For P_{p-1} = T_p^-1 M the sum stops at p - 1 and each
    # term gains ||T_p^-1||_1 <= L.  S_j = S_{j+1} T_j moves its first
    # column, negated, into the second, so ||S_j||_1 is the larger of the
    # last two first-column sums.
    x1, x2, y1, y2 = 1.0, 0.0, 0.0, 1.0
    col, prev, total = 1.0, 1.0, 0.0
    for v, b in zip(reversed(period), reversed(big)):
        total += (col if col > prev else prev) * b
        a = E - v
        x1, y1 = a * x1 + y1, -x1
        x2, y2 = a * x2 + y2, -x2
        prev, col = col, abs(x1) + abs(x2)
    err = 8.0 * _U * (L + 2.0) * total
    # No overflow check: a non-finite entry of P_j stays so and makes big[p-1],
    # a term of total, and err non-finite, which fails the next test.  A finite
    # err bounds P_{p-1}, so m21 and m22 are finite; a non-finite m11 fails the
    # margin of x, and m12 is not read again.
    # c: no zero of M21 within reach, so no mu within ETA of E, and the
    # loop's c is the true count of mu's all over [E - ETA, E + ETA].
    if not abs(m21) > err:
        return None
    x = 0.5 * (m11 + m22)
    ax = abs(x)
    err_x = err + 2.0 * _U * ax
    # Band or gap: the two formulas agree at a band edge only when the first
    # root lies farther inside than the error of x, so x must clear 1.
    if not abs(ax - 1.0) > err_x:
        return None
    s = 1.0 if (p - c) % 2 else -1.0  # (-1)**(p - c - 1)
    if ax < 1.0:
        # |d arccos(y)/dy| = 1/sqrt(1 - y*y) is largest at |y| = ax + err_x
        # over the interval y can lie in; acos itself is good to 4u.  Only
        # roots i = 1..k-1 can flip r: 0 and k are band edges.
        d_angle = err_x / math.sqrt(1.0 - (ax + err_x) ** 2) + 4.0 * _U
        q = k * math.acos(-s * x) / math.pi
        e_q = k * d_angle / math.pi + 4.0 * _U * q
        if max(math.floor(q - e_q) + 1, 1) <= min(math.floor(q + e_q), k - 1):
            return None  # a root i pi / k within reach of psi
        count = k * c + min(math.floor(q), k - 1)
    else:
        count = k * c + (k - 1) * (s * x > 0.0)
    t = N - k * p + 1
    if t == 0:
        return count
    # d_K.  In the band, with x = cos(theta), U_m = sin((m+1) theta)/sin(theta)
    # and sin(theta) > 0 drops out of the ratio; sin((k-1) theta) is off by
    # (k-1) d_angle from theta, by (k-1) 4u from forming its argument, and by
    # 2u from sin.  In a gap, with |x| = cosh(tau), the ratio
    # rho = U_{k-3}/U_{k-2} = sign(x) sinh((k-2) tau)/sinh((k-1) tau)
    # satisfies |d rho/d tau| <= max(k - 1, 1/tau), and tau is off by
    # err_x/sqrt((|x| - err_x)**2 - 1) plus 2u tau from acosh.
    if ax < 1.0:
        theta = math.acos(x)
        s1, s2 = math.sin((k - 1) * theta), math.sin((k - 2) * theta)
        e_s = (k - 1) * (d_angle + 4.0 * _U) + 2.0 * _U
        y1, y2 = s1 * m11 - s2, s1 * m21
        e_y1 = e_s * (abs(m11) + 1.0) + abs(s1) * err + 2.0 * _U * (abs(s1 * m11) + abs(s2))
        e_y2 = e_s * abs(m21) + abs(s1) * err + _U * abs(y2)
    else:
        tau = math.acosh(ax)
        e_tau = err_x / math.sqrt((ax - err_x) ** 2 - 1.0) + 2.0 * _U * tau
        ratio = math.exp(-tau) * math.expm1(-2 * (k - 2) * tau) / math.expm1(-2 * (k - 1) * tau)
        y1, y2 = m11 - math.copysign(ratio, x), m21
        e_y1 = err + max(k - 1, 1.0 / tau) * e_tau + 8.0 * _U + _U * abs(y1)
        e_y2 = err
    # w = P_{p-1} y: the errors of P_{p-1} and of y, and 2u |P_{p-1}| |y| of rounding
    e_y1 += 2.0 * _U * abs(y1)
    e_y2 += 2.0 * _U * abs(y2)
    e_part = L * err * (abs(y1) + abs(y2))
    w1, w2 = q11 * y1 + q12 * y2, q21 * y1 + q22 * y2
    e_w1 = e_part + abs(q11) * e_y1 + abs(q12) * e_y2
    e_w2 = e_part + abs(q21) * e_y1 + abs(q22) * e_y2
    if not abs(w2) > e_w2:
        return None
    d = -w1 / w2
    e_d = (e_w1 + abs(d) * e_w2) / (abs(w2) - e_w2) + 4.0 * _U * abs(d)
    if not abs(d) > e_d:
        return None
    # Tail.  With its sign fixed, the number of negative pivots after a pivot
    # d is nonincreasing in d and nondecreasing in E (inertia of the matrix
    # whose first diagonal entry is d), and a computed count is a true count
    # within ETA of its energy.  So the ends of the box [d - e_d, d + e_d] x
    # [E - 2 ETA, E + 2 ETA], counted, bound every true tail count inside it.
    tail = [period[-1], *islice(period, t - 1)]
    shift = 16.0 * _U + 2.0 * math.ulp(E)
    low = _pivot_count(tail, E - shift, d + e_d)[0]
    if low != _pivot_count(tail, E + shift, d - e_d)[0]:
        return None
    return count + low


def ids(V: Callable[[int], float], E: float, N: int = 10_000) -> float:
    """Integrated density of states at E from the N-site Dirichlet truncation."""
    return ids_curve(V, (E,), N).values[0]


class IDSCurve(namedtuple("IDSCurve", "energies values")):
    __slots__ = ()

    def __new__(cls, energies: tuple[float, ...], values: tuple[float, ...]) -> "IDSCurve":
        if len(energies) != len(values):
            raise ValueError("energies and values must have equal length")
        _check_ascending(energies)
        return super().__new__(cls, energies, values)


def _check_ascending(energies: Sequence[float]) -> None:
    if any(b < a for a, b in zip(energies, energies[1:])):
        raise ValueError("energy grid must be ascending")


def ids_curve(V: Callable[[int], float], energies: Sequence[float], N: int = 10_000) -> IDSCurve:
    """IDS sampled on an ascending grid; the potential is read once.

    A stored-period potential's window is its period, counted in O(p) per
    energy (``eigenvalue_count``).  Any other V, such as seeded noise, is read
    site by site in one pass that advances every energy's count
    (``eigenvalue_counts``), so memory does not grow with N.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    grid = tuple(float(e) for e in energies)
    _check_ascending(grid)
    if isinstance(V, Potential) and V.period is not None:
        window = V.window(1, N + 1)
        counts = [eigenvalue_count(window, e) for e in grid]
    else:
        counts = eigenvalue_counts(read_window(V, 1, N + 1), grid)
    return IDSCurve(grid, tuple(c / N for c in counts))


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
        # 1 / dE overflows below about 5.6e-309; elsewhere keep log(1 / dE)'s bits
        log_inv = math.log(1.0 / de) if 1.0 / de < math.inf else -math.log(de)
        product = abs(k2 - k1) * log_inv if de < 1.0 else 0.0
        worst = max(worst, product)
        rows.append({"E": _midpoint(e1, e2), "dk": k2 - k1, "dE": de, "log_holder": product})
    return {"max_log_holder": worst, "pairs": rows}


class SpectrumApprox(NamedTuple):
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
