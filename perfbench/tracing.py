"""Spans and counters recorded from outside the library, for the traced run.

``Tracer.installed`` replaces module attributes of limitper with wrappers for
the duration of a ``with`` block and restores them afterwards.  Library entry
points get spans (name, start, end, parent); per-site and per-call functions
only get counters, so tracing adds a few hundred nanoseconds per call.
Per-site costs come from ``probes``, which time whole blocks untraced.
"""

import collections
import contextlib
import functools
import statistics
import time

# Spans whose time is library work when they sit directly under a CLI call.
LIBRARY_SPANS = {
    "potential.build",
    "spectral.spectrum_approx",
    "spectral.lyapunov_estimate",
    "spectral.eigenvalue_count",
    "spectral.log_holder_report",
    "potential.gordon_check",
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, attrs]
        self.counts = collections.Counter()
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """Record a span; its attrs get the counter increments made inside it."""
        before = self.counts.copy()
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, attrs]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()
            attrs["counts"] = self.counts - before

    def _spanned(self, name, fn, attrs=None, outcome=None):
        """Wrap ``fn`` in a span; ``attrs(*args)`` and ``outcome(result)`` add attributes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, **(attrs(*args) if attrs else {})) as rec:
                result = fn(*args, **kwargs)
            if outcome:
                rec[4].update(outcome(result))
            return result

        return wrapper

    def _counted(self, name, fn, amount=None):
        counts = self.counts
        if amount is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += amount(*args)
                return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self, lp):
        """Wrap the library calls the CLI makes; ``lp`` is the imported limitper package."""
        cli, spectral, potential = lp.cli, lp.spectral, lp.potential
        Pot = potential.Potential
        counted_value = self._counted("potential.value_calls", Pot.value)
        patches = [
            (Pot, "value", counted_value),
            (Pot, "__call__", counted_value),
            (Pot, "level_values", self._spanned("potential.level_values", Pot.level_values)),
            (lp.frequency.FrequencyChain, "terms",
             self._counted("frequency.terms_calls", lp.frequency.FrequencyChain.terms)),
            (spectral, "transfer_product", self._counted(
                "spectral.transfer_steps", spectral.transfer_product, lambda V, E, a, b: b - a)),
            (spectral, "discriminant",
             self._counted("spectral.discriminant_calls", spectral.discriminant)),
            (spectral, "bands", self._spanned(
                "spectral.bands", spectral.bands, lambda vals, *rest: {"p": len(vals)},
                lambda band_set: {"bands": len(band_set.intervals)})),
            (cli, "build_potential", self._spanned("potential.build", cli.build_potential)),
            (cli, "spectrum_approx", self._spanned("spectral.spectrum_approx", cli.spectrum_approx)),
            (cli, "lyapunov_estimate",
             self._spanned("spectral.lyapunov_estimate", cli.lyapunov_estimate)),
            (cli, "eigenvalue_count", self._spanned(
                "spectral.eigenvalue_count", cli.eigenvalue_count,
                lambda values, E: {"sites": len(values)})),
            (cli, "log_holder_report",
             self._spanned("spectral.log_holder_report", cli.log_holder_report)),
            (cli, "gordon_check", self._spanned("potential.gordon_check", cli.gordon_check)),
            (cli, "_write_csv", self._spanned("cli.write", cli._write_csv)),
            (cli, "_write_json", self._spanned("cli.write", cli._write_json)),
        ]
        saved = [(obj, name, obj.__dict__[name]) for obj, name, _ in patches]
        try:
            for obj, name, wrapper in patches:
                setattr(obj, name, wrapper)
            yield self
        finally:
            for obj, name, original in saved:
                setattr(obj, name, original)

    def to_json(self):
        return {
            "counts": dict(self.counts),
            "spans": [
                {"name": n, "start": a, "end": b, "parent": p,
                 "attrs": {**attrs, "counts": dict(attrs["counts"])}}
                for n, a, b, p, attrs in self.spans
            ],
        }


def summarize(tracer, calls):
    """Span and counter metrics of the CLI calls ``calls`` (indices of ``cli.main`` spans)."""
    spans = tracer.spans
    root = []
    for i, (_, _, _, parent, _) in enumerate(spans):
        root.append(i if parent is None else root[parent])
    calls = set(calls)
    mine = [s for i, s in enumerate(spans) if root[i] in calls]
    children = collections.defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] in calls:
            children[s[3]].append(s)
    counts = collections.Counter()
    for i in calls:
        counts.update(spans[i][4]["counts"])

    def total(name, where=lambda attrs: True):
        return sum((s[2] - s[1] for s in mine if s[0] == name and where(s[4])), 0.0)

    def per_site_block(kids):
        # ids builds its window and synth its rows between building the
        # potential and the next library or write span, reading V site by site.
        for a, b in zip(kids, kids[1:]):
            if a[0] == "potential.build" and b[0] in ("spectral.eigenvalue_count", "cli.write"):
                return b[1] - a[2]
        return 0.0

    overhead = window = 0.0
    for i in calls:
        kids = children[i]
        block = per_site_block(kids)
        lib = sum(s[2] - s[1] for s in kids if s[0] in LIBRARY_SPANS)
        overhead += spans[i][2] - spans[i][1] - lib - block
        if any(s[0] == "spectral.eigenvalue_count" for s in kids):
            window += block
    bands = [s[4] for s in mine if s[0] == "spectral.bands"]
    found = sum(a["bands"] for a in bands)
    p_total = sum(a["p"] for a in bands)
    disc = counts["spectral.discriminant_calls"]
    out = {
        f"spectral.bands_s.p{p}": (total("spectral.bands", lambda a, p=p: a["p"] == p), "s")
        for p in (64, 128, 256)
    }
    out.update({
        "spectral.discriminant_calls": (disc, "count"),
        "spectral.discriminant_calls_per_band": (disc / found if found else 0.0, "ratio"),
        "spectral.bands_found_ratio": (found / p_total if p_total else 0.0, "ratio"),
        "potential.value_calls": (counts["potential.value_calls"], "count"),
        "frequency.terms_calls": (counts["frequency.terms_calls"], "count"),
        "spectral.transfer_steps": (counts["spectral.transfer_steps"], "count"),
        "spectral.sturm_sites": (sum(
            s[4]["sites"] for s in mine if s[0] == "spectral.eigenvalue_count"), "count"),
        "potential.window_s": (window, "s"),
        "potential.level_values_s": (total("potential.level_values"), "s"),
        "cli.overhead_s": (overhead, "s"),
    })
    return out


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probes(lp, pots, period_values, E, sites=20_000, repeats=5):
    """Per-site and per-call costs from untraced block timings, as (value, unit).

    ``pots`` maps a kind to a built potential; ``period_values`` is one period
    of the level-8 approximant, used for the discriminant and as a cheap V.
    """
    spectral = lp.spectral
    drain = collections.deque(maxlen=0).extend
    out = {}
    for kind, pot in pots.items():
        t = _median_time(lambda: drain(map(pot, range(1, sites + 1))), repeats)
        out[f"potential.value_ns.{kind}"] = (t / sites * 1e9, "ns")
    table = [period_values[n % len(period_values)] for n in range(sites)]
    V = table.__getitem__
    t_all = _median_time(lambda: spectral.transfer_product(V, E, 0, sites), repeats)
    t_v = _median_time(lambda: drain(map(V, range(sites))), repeats)
    out["spectral.transfer_ns_per_step"] = ((t_all - t_v) / sites * 1e9, "ns")
    t = _median_time(lambda: spectral.eigenvalue_count(table, E), repeats)
    out["spectral.sturm_ns_per_site"] = (t / sites * 1e9, "ns")
    calls = 50
    grid = [E + 1e-3 * i for i in range(calls)]
    t = _median_time(lambda: [spectral.discriminant(period_values, e) for e in grid], repeats)
    out["spectral.discriminant_us"] = (t / calls * 1e6, "us")
    return out
