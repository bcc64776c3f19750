"""Independent output checker for the limitper benchmark.

Nothing here imports limitper.  Potential values come from the closed forms of
each kind, the discriminant from the three-term recurrence of two solutions,
eigenvalue counts from the LDL^T pivot signs, and Lyapunov values of periodic
potentials from a power of the one-period monodromy.  Every check returns a
list of human-readable problems; an empty list means the output passed.
"""

import math
import random

# ---------------------------------------------------------------- potentials


def tower_value(kind, moduli, k):
    """Closed form of the depth-``len(moduli)`` tower at orbit index k.

    "remark" and the stored "layers" tower (which stores the sawtooth layers)
    sum ``(k mod m) / m**3``; "metric" sums ``2**-(j+1)`` over levels j whose
    modulus does not divide k.  Terms are added in level order.
    """
    total = 0.0
    if kind == "metric":
        for j, m in enumerate(moduli, start=1):
            if k % m:
                total += 2.0 ** -(j + 1)
        return total
    for m in moduli:
        total += (k % m) / m**3
    return total


def iid_value(seed, n, low=0.0, high=1.0):
    """Seeded uniform noise, one independent stream per (seed, n)."""
    return low + (high - low) * random.Random(f"{seed}:{n}").random()


def sawtooth_tail(level):
    """Exact ``sum_{j > level} (2**j - 1) / 8**j`` for the dyadic chain 2, 4, 8, ..."""
    return 4.0**-level / 3.0 - 8.0**-level / 7.0


# ------------------------------------------------------------ periodic tools


def discriminant(vals, E):
    """Trace of the one-period transfer matrix, from two recurrence solutions.

    phi starts (u(0), u(-1)) = (1, 0) and theta starts (0, 1); the monodromy
    is [[phi(p), theta(p)], [phi(p-1), theta(p-1)]].
    """
    phi_prev, phi = 0.0, 1.0
    theta_prev, theta = 1.0, 0.0
    for v in vals[:-1]:
        a = E - v
        phi_prev, phi = phi, a * phi - phi_prev
        theta_prev, theta = theta, a * theta - theta_prev
    a = E - vals[-1]
    return (a * phi - phi_prev) + theta


def sturm_count(diag, E):
    """Eigenvalues <= E of the tridiagonal matrix with ``diag`` and unit off-diagonals."""
    count = 0
    d = None
    for v in diag:
        d = v - E if d is None else (v - E) - 1.0 / d
        if d == 0.0:
            d = -1e-300
        if d < 0.0:
            count += 1
    return count


def dirichlet_eigenvalues(diag, tol=1e-13):
    """All eigenvalues of the unit-off-diagonal tridiagonal matrix, by bisection.

    Each eigenvalue is bracketed between consecutive Sturm counts and bisected
    to absolute width ``tol`` (or until the interval stops shrinking).
    """
    lo = min(diag) - 2.0 - 1e-9
    hi = max(diag) + 2.0 + 1e-9
    out = []
    stack = [(lo, 0, hi, len(diag))]
    while stack:
        a, ca, b, cb = stack.pop()
        if ca == cb:
            continue
        if cb - ca == 1:
            while b - a > tol:
                mid = 0.5 * (a + b)
                if mid <= a or mid >= b:
                    break
                if sturm_count(diag, mid) > ca:
                    b = mid
                else:
                    a = mid
            out.append(0.5 * (a + b))
            continue
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            out.extend([mid] * (cb - ca))
            continue
        cm = sturm_count(diag, mid)
        stack.append((a, ca, mid, cm))
        stack.append((mid, cm, b, cb))
    return sorted(out)


def _bisect(fn, a, b, iterations=200):
    """Root of fn on [a, b] given fn(a) and fn(b) of opposite sign (or zero)."""
    fa = fn(a)
    for _ in range(iterations):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        fm = fn(mid)
        if (fm < 0.0) == (fa < 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def band_structure(vals):
    """Dirichlet eigenvalues mu_1..mu_{p-1} and one zero of the discriminant per band.

    The mu_j are eigenvalues of the p-1 sites 0..p-2 and interlace with the
    bands: exactly one lies in the closure of each gap, so band j holds the
    only zero of Delta between mu_{j-1} and mu_j.
    """
    p = len(vals)
    reach = max(abs(v) for v in vals) + 3.0
    mus = dirichlet_eigenvalues(vals[:-1]) if p > 1 else []
    fences = [-reach] + mus + [reach]
    delta = lambda e: discriminant(vals, e)
    centers = [_bisect(delta, a, b) for a, b in zip(fences, fences[1:])]
    return mus, centers


def audit_bands(vals, bands, edge_tol, gap_tol):
    """Check a reported band set for the periodic potential ``vals``.

    Returns ``(problems, missed, widest)``.  Each edge must sit within
    ``edge_tol`` of a sign change of |Delta| - 2, and every band of the true
    spectrum (found through its discriminant zero) must be covered by a
    reported band.  Gap j is missed when |Delta(mu_j)| > 2, so the gap is open
    at mu_j, mu_j still lies inside a reported band by more than ``edge_tol``,
    and the gap is wider than ``gap_tol`` (narrower gaps may merge by design).
    ``widest`` is the width of the widest missed gap.
    """
    problems = []
    g = lambda e: abs(discriminant(vals, e)) - 2.0
    prev_hi = -math.inf
    for i, (lo, hi) in enumerate(bands):
        if not (prev_hi < lo <= hi):
            problems.append(f"band {i} [{lo}, {hi}] not ascending and disjoint")
            prev_hi = hi
            continue
        inner = min(edge_tol, (hi - lo) / 2.0)
        outer = min(edge_tol, (lo - prev_hi) / 2.0)
        if not (g(lo - outer) > 0.0 and min(g(lo), g(lo + inner)) <= 0.0):
            problems.append(f"band {i} lower edge {lo} is not a band edge")
        nxt = bands[i + 1][0] if i + 1 < len(bands) else math.inf
        outer = min(edge_tol, (nxt - hi) / 2.0)
        if not (g(hi + outer) > 0.0 and min(g(hi), g(hi - inner)) <= 0.0):
            problems.append(f"band {i} upper edge {hi} is not a band edge")
        prev_hi = hi
    mus, centers = band_structure(vals)
    for j, c in enumerate(centers, start=1):
        if not any(lo - edge_tol <= c <= hi + edge_tol for lo, hi in bands):
            problems.append(f"band {j} of {len(vals)} (around E={c:.9g}) is missing")
    missed, widest = 0, 0.0
    for j, mu in enumerate(mus):
        if g(mu) > 0.0 and any(lo + edge_tol < mu < hi - edge_tol for lo, hi in bands):
            width = _bisect(g, mu, centers[j + 1]) - _bisect(g, centers[j], mu)
            if width > gap_tol:
                missed += 1
                widest = max(widest, width)
    return problems, missed, widest


# ------------------------------------------------------------ Lyapunov tools


def _mul(a, b):
    """Product of two scaled 2x2 matrices (entries, log_scale), renormalized."""
    (a11, a12, a21, a22), la = a
    (b11, b12, b21, b22), lb = b
    m = (
        a11 * b11 + a12 * b21,
        a11 * b12 + a12 * b22,
        a21 * b11 + a22 * b21,
        a21 * b12 + a22 * b22,
    )
    big = max(abs(x) for x in m)
    return tuple(x / big for x in m), la + lb + math.log(big)


def _steps(vals, E):
    """Scaled product A(len-1)...A(0) of one-step matrices [[E - v, -1], [1, 0]]."""
    state = ((1.0, 0.0, 0.0, 1.0), 0.0)
    for v in vals:
        state = _mul(((E - v, -1.0, 1.0, 0.0), 0.0), state)
    return state


def _log_norm(state):
    entries, log_scale = state
    return log_scale + math.log(max(abs(x) for x in entries))


def lyapunov_periodic(period_vals, E, N):
    """``log ||A(N)...A(1)||_max / N`` for V periodic with V(n) = period_vals[(n-1) % P].

    Uses T_N = (A(r)...A(1)) * M**m with M the one-period monodromy, N = mP + r.
    """
    P = len(period_vals)
    m, r = divmod(N, P)
    power = ((1.0, 0.0, 0.0, 1.0), 0.0)
    base = _steps(period_vals, E)
    while m:
        if m & 1:
            power = _mul(base, power)
        base = _mul(base, base)
        m >>= 1
    return _log_norm(_mul(_steps(period_vals[:r], E), power)) / N


def lyapunov_direct(values, E):
    """``log ||A(N)...A(1)||_max / N`` by the direct product over V(1..N) = values."""
    m11, m12, m21, m22 = 1.0, 0.0, 0.0, 1.0
    log_scale = 0.0
    for v in values:
        a = E - v
        m11, m12, m21, m22 = a * m11 - m21, a * m12 - m22, m11, m12
        big = max(abs(m11), abs(m12), abs(m21), abs(m22))
        if big > 1e100:
            m11, m12, m21, m22 = m11 / big, m12 / big, m21 / big, m22 / big
            log_scale += math.log(big)
    return (log_scale + math.log(max(abs(m11), abs(m12), abs(m21), abs(m22)))) / len(values)


def gordon_max_diff(V, q):
    """``max_{1 <= n <= q} max(|V(n) - V(n+q)|, |V(n) - V(n-q)|)``."""
    best = 0.0
    for n in range(1, q + 1):
        v = V(n)
        best = max(best, abs(v - V(n + q)), abs(v - V(n - q)))
    return best
