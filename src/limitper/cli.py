"""Command-line driver for reproducible experiments.

Each subcommand declares its fields and their defaults once, in ``_COMMANDS``;
``_FIELDS`` gives every field's type and range.  A run resolves in one pass to
an explicit config of values (flags, then the config file, the file winning,
then the defaults; JSON text parsed, chain and potential objects defaulted)
whose canonical-JSON sha256 is embedded in every output file, so outputs are
byte-reproducible from the config alone.  CSV files carry the hash as a
leading ``# config_hash=...`` comment line; JSON outputs carry a
``config_hash`` field.
"""

import argparse
import contextlib
import csv
import hashlib
import json
import math
import sys
from types import SimpleNamespace
from typing import Optional, Sequence

from .frequency import FrequencyChain, hulls_isomorphic, maximal_chain, bohr_coefficient
from .potential import (
    PeriodicLayer,
    Potential,
    SamplingFunction,
    gordon_check,
    iid_uniform_potential,
    metric_potential,
    periodic_potential,
    sampled_potential,
    sawtooth_potential,
)
from .procyclic import ProcyclicElement, orbit_residues, quotient
from .spectral import (
    IDSCurve,
    condition_a_check,
    eigenvalue_count,
    ids_curve,
    log_holder_report,
    lyapunov_estimate,
    spectrum_approx,
)


class CliError(Exception):
    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


class ExperimentConfig(SimpleNamespace):
    """Fully resolved run: the command and every field it takes, defaults included.

    Identical configs produce identical bytes.
    """

    def to_dict(self) -> dict:
        return {key: val for key, val in vars(self).items() if val is not None}

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


# kind: (parser of the flag text, what a value must be, the type test once
# JSON and int-list text is parsed); kinds with no parser occur only in objects
_KINDS = {
    "int": (int, "an integer", lambda v: type(v) is int),
    # abs(v) <= float max compares exactly, so a huge int cannot overflow here.
    "number": (float, "a finite number",
               lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max),
    "chain": (str, "a chain object or its JSON text", lambda v: isinstance(v, dict)),
    "potential": (str, "a potential object or its JSON text", lambda v: isinstance(v, dict)),
    "ints": (str, "comma-separated integers or a list of integers",
             lambda v: isinstance(v, list) and all(type(x) is int for x in v)),
    "path": (str, "a path", lambda v: isinstance(v, str) and v != ""),
    "numbers": (None, "a nonempty list of numbers", lambda v: isinstance(v, list) and v != []),
    "layers": (None, "a nonempty list of layers", lambda v: isinstance(v, list) and v != []),
}

_COUNT = (lambda v: v >= 1, ">= 1")

# field: (kind, range as (test, text) or None)
_FIELDS = {
    "seed": ("int", (lambda v: 0 <= v < 2**64, "in 0..2**64-1")),
    "out": ("path", None),
    "chain": ("chain", None),
    "chain_b": ("chain", None),
    "target": ("chain", None),
    "potential": ("potential", None),
    "q": ("ints", (lambda v: v != [] and min(v) >= 1, "a nonempty list of integers >= 1")),
    "depth": ("int", _COUNT),
    "level": ("int", _COUNT),
    "size": ("int", _COUNT),
    "window": ("int", _COUNT),
    "energy_points": ("int", _COUNT),
    "steps": ("int", (lambda v: v >= 0, ">= 0")),
    "k": ("int", None),
    "nmin": ("int", None),
    "nmax": ("int", None),
    "tol": ("number", (lambda v: v > 0, "> 0")),
    "energy_min": ("number", None),
    "energy_max": ("number", None),
    # fields of potential, layer and chain objects only
    "base": ("int", None),
    "generator": ("int", None),
    "low": ("number", None),
    "high": ("number", None),
    "residual_bound": ("number", (lambda v: v >= 0, ">= 0")),
    "values": ("numbers", None),
    "layers": ("layers", None),
    "period": ("int", _COUNT),
    "prefix": ("ints", None),
    "rule": ("ints", None),
}

REQUIRED = object()  # the default of a field that has none


def _typed(path: str, kind: str, value):
    """``value`` if it fits ``kind``, else a CliError naming ``path``.

    An int is an int that is not a bool; a number a finite int or float,
    returned as float so a flag and a file give the same config; a chain or a
    potential an object or its JSON text, returned parsed; an int list
    comma-separated text or a list of ints.  Numbers and layers are typed entry
    by entry, at ``path[i]``, and a chain or a potential by its fields, defaults
    included.  Typing a typed value gives back an equal value.
    """
    if kind in ("chain", "potential") and isinstance(value, str):
        try:
            value = json.loads(value)
        except ValueError as exc:
            raise CliError(path, f"invalid JSON ({exc})") from None
    if kind == "ints" and isinstance(value, str):
        try:
            value = [int(part) for part in value.split(",") if part.strip()]
        except ValueError:
            pass  # the text is reported below
    _, expected, fits = _KINDS[kind]
    if not fits(value):
        raise CliError(path, f"expected {expected}, got {json.dumps(value)}")
    if kind == "numbers":
        return [_typed(f"{path}[{i}]", "number", v) for i, v in enumerate(value)]
    if kind == "layers":
        return [_resolve(f"{path}[{i}]", _LAYER, v, "a layer") for i, v in enumerate(value)]
    if kind == "chain":
        return _resolve(path, _CHAIN, value, "a chain")
    if kind == "potential":
        name = value.get("kind")
        if not isinstance(name, str) or name not in _POTENTIALS:
            raise CliError(f"{path}.kind", f"unknown kind {name!r}")
        fields = {key: v for key, v in value.items() if key != "kind"}
        return {"kind": name, **_resolve(path, _POTENTIALS[name][1], fields, f"kind {name!r}")}
    return float(value) if kind == "number" else value


def _resolve(path: str, fields: dict, values, owner: str) -> dict:
    """``values`` typed, defaulted and range-checked against ``fields`` (name: default).

    Serves a command (``path`` is "", fields go by their bare names and a key
    that is not a field can only come from the config file), a chain object, a
    potential object and a layer object; ``owner`` names what the fields belong
    to.  A range tests the whole value, so a list's range is a test of the list.
    """
    if not isinstance(values, dict):
        raise CliError(path, f"expected {owner} object")
    for key in values:
        if key not in fields:
            raise CliError(f"{path or 'config'}.{key}", f"not a field of {owner}")
    resolved = {}
    for name, default in fields.items():
        where = f"{path}.{name}" if path else name
        kind, bound = _FIELDS[name]
        value = values.get(name)
        if value is not None:
            value = _typed(where, kind, value)
        elif default is REQUIRED:
            raise CliError(where, f"required for {owner if path else 'this command'}")
        else:
            value = default
        if value is not None and bound is not None:
            test, text = bound
            if not test(value):
                raise CliError(where, f"must be {text}, got {json.dumps(value)}")
        resolved[name] = value
    return resolved


@contextlib.contextmanager
def _blame(path: str, *also: type):
    """Report a ValueError (or an ``also`` error) raised in the block as a bad ``path``."""
    try:
        yield
    except (ValueError, *also) as exc:
        raise CliError(path, str(exc)) from None


def _build_chain(data: dict, path: str) -> FrequencyChain:
    with _blame(path):
        return FrequencyChain(**data)


def _classifiable_chain(data: dict, path: str) -> FrequencyChain:
    """The chain at ``path``, refused there when a factor too large to certify hides its order."""
    chain = _build_chain(data, path)
    with _blame(path):
        chain.limit()
    return chain


def build_potential(descriptor, seed: int) -> Potential:
    """The potential of an object or its JSON text, resolved or not; errors name field paths."""
    args = _typed("potential", "potential", descriptor)
    make = _POTENTIALS[args.pop("kind")][0]
    if "seed" in args and args["seed"] is None:  # an iid object draws with the run's seed
        args["seed"] = seed
    if "chain" in args:
        args["chain"] = _build_chain(args["chain"], "potential.chain")
    with _blame("potential"):
        return make(**args)


def _energy_grid(config: ExperimentConfig) -> list[float]:
    emin, emax, points = config.energy_min, config.energy_max, config.energy_points
    if emax < emin:
        raise CliError("energy_max", "must be >= energy_min")
    if math.isinf(emax - emin):
        raise CliError("energy_max", "energy_max - energy_min must be a finite number")
    if points == 1:
        if emax != emin:
            raise CliError("energy_max", "must equal energy_min when energy_points is 1")
        return [emin]
    return [_grid_point(emin, emax, i, points - 1) for i in range(points - 1)] + [emax]


def _grid_point(emin: float, emax: float, i: int, steps: int) -> float:
    """``emin + (emax - emin) * i / steps``; if that product overflows, ``i / steps`` goes first.

    The second form adds at most ``emax - emin`` to emin, which may round past emax.
    """
    span = (emax - emin) * i
    if math.isfinite(span):
        return emin + span / steps
    return min(emin + (emax - emin) * (i / steps), emax)


# CPython 3.10.7 and later refuse to print an int of more than 4300 decimal
# digits by default; an output refuses such an entry itself on every version.
_MAX_DIGITS = 4300


def _printable(n: int, what: str) -> int:
    """``n``, or a ValueError naming ``what`` when it has too many digits to print."""
    if n >= 10**_MAX_DIGITS:
        raise ValueError(f"{what} has more than {_MAX_DIGITS} decimal digits")
    return n


def _json_safe(obj):
    # json.dumps would emit bare Infinity/NaN tokens, which are not JSON.
    if isinstance(obj, float) and not math.isfinite(obj):
        return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _open_out(path: str, **kwargs):
    with _blame("out", OSError):  # an --out path that cannot be written is a bad field
        return open(path, "w", **kwargs)


def _write_json(obj: dict, out: Optional[str]) -> None:
    text = json.dumps(_json_safe(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out:
        with _open_out(out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(header: Sequence[str], rows, out: Optional[str], config_hash: str) -> None:
    target = _open_out(out, newline="") if out else sys.stdout
    try:
        target.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(target, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if out:
            target.close()


def cmd_classify(config: ExperimentConfig) -> None:
    a = _classifiable_chain(config.chain, "chain")
    b = _classifiable_chain(config.chain_b, "chain_b")
    comparison = hulls_isomorphic(a, b)
    if comparison.isomorphic:
        cert = {"forward": comparison.forward, "backward": comparison.backward}
        # a forward pair is (entry of a, entry of b), a backward pair the reverse
        sided = ((comparison.forward, "ab"), (comparison.backward, "ba"))
        entries = [entry for pairs, sides in sided for pair in pairs for entry in zip(sides, pair)]
    else:
        side, entry = comparison.blocker
        cert = {"blocker": {"side": side, "entry": entry}}
        entries = [comparison.blocker]
    for side, entry in entries:
        with _blame("chain" if side == "a" else "chain_b"):
            _printable(entry, "a certificate entry")
    out = {
        "config_hash": config.config_hash(),
        "isomorphic": comparison.isomorphic,
        "order_a": comparison.order_a.format(),
        "order_b": comparison.order_b.format(),
        "certificate": cert,
    }
    _write_json(out, config.out)


def cmd_maximal_chain(config: ExperimentConfig) -> None:
    chain = _classifiable_chain(config.chain, "chain")
    with _blame("depth"):
        refined = maximal_chain(chain, config.depth)
        _printable(refined.prefix[-1], "the refined chain's last entry")
    _write_json(
        {"config_hash": config.config_hash(), "chain": refined.to_json_dict()},
        config.out,
    )


def cmd_synth(config: ExperimentConfig) -> None:
    pot = build_potential(config.potential, config.seed)
    nmin, nmax = config.nmin, config.nmax
    if nmax < nmin:
        raise CliError("nmax", "must be >= nmin")
    rows = ((n, pot(n)) for n in range(nmin, nmax + 1))  # streamed to the CSV, never held
    chash = config.config_hash()
    _write_csv(("n", "value"), rows, config.out, chash)
    manifest = {
        "config_hash": chash,
        "kind": pot.kind,
        "base_point": pot.base,
        "generator": pot.generator,
        "tolerance": pot.tol,
        "window": [nmin, nmax],
    }
    if pot.chain is not None:
        manifest["chain"] = pot.chain.to_json_dict()
        manifest["depth"] = pot.depth
    _write_json(manifest, config.out + ".manifest.json")


def cmd_detect_frequency(config: ExperimentConfig) -> None:
    pot = build_potential(config.potential, config.seed)
    with _blame("window"):  # the window is shorter than some q
        coeffs = [(q, bohr_coefficient(pot, q, config.window)) for q in config.q]
    rows = [(q, c.real, c.imag, abs(c)) for q, c in coeffs]
    _write_csv(("q", "re", "im", "magnitude"), rows, config.out, config.config_hash())


def cmd_orbit(config: ExperimentConfig) -> None:
    chain = _build_chain(config.chain, "chain")
    with _blame("level"):
        modulus = _printable(chain.nth_term(config.level), f"chain entry {config.level}")
    residues = orbit_residues(chain, config.k, config.level, config.steps)
    _write_json(
        {
            "config_hash": config.config_hash(),
            "modulus": modulus,
            "residues": residues,
            "distinct": len(set(residues)),
        },
        config.out,
    )


def cmd_quotient(config: ExperimentConfig) -> None:
    source = _classifiable_chain(config.chain, "chain")
    target = _classifiable_chain(config.target, "target")
    with _blame("target"):
        qmap = quotient(source, target)
    depth = config.depth if config.depth is not None else min(4, len(target.prefix))
    with _blame("depth"):
        alignment = qmap.alignment(depth)
    _write_json(
        {
            "config_hash": config.config_hash(),
            "order_source": source.limit().format(),
            "order_target": target.limit().format(),
            "alignment": [list(pair) for pair in alignment],
        },
        config.out,
    )


def cmd_spectrum(config: ExperimentConfig) -> None:
    pot = build_potential(config.potential, config.seed)
    with _blame("level" if pot.depth is not None and config.level > pot.depth else "potential"):
        approx = spectrum_approx(pot, config.level, config.tol)
    out = approx.to_json_dict()
    out["config_hash"] = config.config_hash()
    _write_json(out, config.out)


def cmd_ids(config: ExperimentConfig) -> None:
    pot = build_potential(config.potential, config.seed)
    grid = _energy_grid(config)
    if pot.period is None:
        curve = ids_curve(pot, grid, config.size)
    else:
        # ``ids_curve``'s stored-period branch, counted through this module's
        # ``eigenvalue_count``, the name the benchmark's tracer wraps.  It can
        # merge into ``ids_curve`` once ROADMAP item 3's benchmark change moves
        # that hook into ``spectral``.
        window = pot.window(1, config.size + 1)
        curve = IDSCurve(tuple(grid), tuple(eigenvalue_count(window, e) / config.size for e in grid))
    chash = config.config_hash()
    _write_csv(("E", "ids"), zip(curve.energies, curve.values), config.out, chash)
    report = log_holder_report(curve)
    _write_json(
        {
            "config_hash": chash,
            "max_log_holder": report["max_log_holder"],
            "worst_pairs": sorted(
                report["pairs"], key=lambda r: -r["log_holder"]
            )[:10],
        },
        None,
    )


def cmd_lyapunov(config: ExperimentConfig) -> None:
    pot = build_potential(config.potential, config.seed)
    grid = _energy_grid(config)
    with _blame("potential"):  # a site or energy that is not finite
        rows = [(e, lyapunov_estimate(pot, e, config.size), config.size) for e in grid]
    _write_csv(("E", "lyapunov", "N"), rows, config.out, config.config_hash())


def cmd_gordon(config: ExperimentConfig) -> None:
    pot = build_potential(config.potential, config.seed)
    with _blame("q"):
        report = gordon_check(pot, config.q)
    _write_json(
        {
            "config_hash": config.config_hash(),
            "passed": report.passed,
            "margins": [m._asdict() for m in report.margins],
        },
        config.out,
    )


def cmd_condition_a(config: ExperimentConfig) -> None:
    chain = _build_chain(config.chain, "chain")
    with _blame("depth"):
        report = condition_a_check(chain, config.depth)
    out = report._asdict()
    out["log_ratios"] = list(out["log_ratios"])
    out["config_hash"] = config.config_hash()
    _write_json(out, config.out)


def _takes(**defaults) -> dict:
    """A command's fields and defaults; None is unset (or derived by the command).

    Only a command that takes a potential takes a seed, which its iid objects draw with.
    """
    seed = {"seed": 0} if "potential" in defaults else {}
    return {**seed, "out": None, **defaults}


_SWEEP = {"potential": REQUIRED, "energy_min": REQUIRED, "energy_max": REQUIRED,
          "energy_points": 101}

_COMMANDS = {
    "classify": (cmd_classify, _takes(chain=REQUIRED, chain_b=REQUIRED)),
    "maximal-chain": (cmd_maximal_chain, _takes(chain=REQUIRED, depth=None)),
    "synth": (cmd_synth, _takes(potential=REQUIRED, nmin=-16, nmax=16, out=REQUIRED)),
    "detect-frequency":
        (cmd_detect_frequency, _takes(potential=REQUIRED, q=REQUIRED, window=4096)),
    "orbit": (cmd_orbit, _takes(chain=REQUIRED, k=REQUIRED, level=REQUIRED, steps=REQUIRED)),
    "quotient": (cmd_quotient, _takes(chain=REQUIRED, target=REQUIRED, depth=None)),
    "spectrum": (cmd_spectrum, _takes(potential=REQUIRED, level=REQUIRED, tol=1e-9)),
    "ids": (cmd_ids, _takes(**_SWEEP, size=10_000, out=REQUIRED)),
    "lyapunov": (cmd_lyapunov, _takes(**_SWEEP, size=100_000)),
    "gordon": (cmd_gordon, _takes(potential=REQUIRED, q=REQUIRED)),
    "condition-a": (cmd_condition_a, _takes(chain=REQUIRED, depth=8)),
}


def _layer_tower(chain, layers, residual_bound, base, generator) -> Potential:
    """The ``layers`` kind: explicit layer tables read from ``base`` in steps of ``generator``."""
    f = SamplingFunction(chain, tuple(PeriodicLayer(**layer) for layer in layers), residual_bound)
    return sampled_potential(f, ProcyclicElement.from_int(chain, f.depth, base), generator)


_TOWER = {"chain": REQUIRED, "depth": 8, "base": 0, "generator": 1}

# kind: (constructor, its fields and their defaults); an iid object's seed
# defaults to the run's
_POTENTIALS = {
    "remark": (sawtooth_potential, _TOWER),
    "metric": (metric_potential, _TOWER),
    "layers": (_layer_tower, {"chain": REQUIRED, "layers": REQUIRED, "residual_bound": 0.0,
                              "base": 0, "generator": 1}),
    "periodic": (periodic_potential, {"values": REQUIRED}),
    "iid": (iid_uniform_potential, {"seed": None, "low": 0.0, "high": 1.0}),
}

_LAYER = {"period": REQUIRED, "values": REQUIRED}
_CHAIN = {"prefix": REQUIRED, "rule": []}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limitper",
        description="Classify limit-periodic hulls and measure spectra of the "
        "associated discrete Schrodinger operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, defaults) in _COMMANDS.items():
        p = sub.add_parser(command, allow_abbrev=False)  # a flag is its field name, spelled out
        p.add_argument("--config", default=None, help="JSON config file; overrides flags")
        for name in defaults:  # flag text is typed in _resolve_config
            p.add_argument(f"--{name.replace('_', '-')}", dest=name, default=None)
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Flags, then the config file (which wins), then ``_resolve``."""
    fields = _COMMANDS[args.command][1]
    values = {}
    for name in fields:
        text = getattr(args, name)
        if text == []:  # argparse reads the text of "--name=--" as []
            text = "--"
        if text is not None:
            parse, expected, _ = _KINDS[_FIELDS[name][0]]
            try:
                values[name] = parse(text)
            except ValueError:
                raise CliError(name, f"expected {expected}, got {json.dumps(text)}") from None
    if args.config:
        try:
            with open(args.config) as fh:
                file_conf = json.load(fh)
        except OSError as exc:
            raise CliError("config", str(exc)) from None
        except ValueError as exc:
            raise CliError("config", f"invalid JSON ({exc})") from None
        if not isinstance(file_conf, dict):
            raise CliError("config", "config file must hold a JSON object")
        values.update(file_conf)  # null leaves a field unset
    return ExperimentConfig(command=args.command, **_resolve("", fields, values, args.command))


def _glue_negative_numbers(argv: Sequence[str]) -> list[str]:
    """``--flag -1e308`` as ``--flag=-1e308``; argparse would read ``-1e308`` as an option."""
    flags = {"--config", *(f"--{name.replace('_', '-')}" for name in _FIELDS)}
    out: list[str] = []
    for token in argv:
        if out and out[-1] in flags and token.startswith("-"):
            with contextlib.suppress(ValueError):
                float(token)
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_glue_negative_numbers(sys.argv[1:] if argv is None else argv))
    try:
        _COMMANDS[args.command][0](_resolve_config(args))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
