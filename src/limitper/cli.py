"""Command-line driver for reproducible experiments.

Every run resolves to an explicit config (defaults, then flags, then config
file, the file winning) whose canonical-JSON sha256 is embedded in every
output file, so outputs are byte-reproducible from the config alone.  CSV
files carry the hash as a leading ``# config_hash=...`` comment line; JSON
outputs carry a ``config_hash`` field.
"""

import argparse
import csv
import hashlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
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
    log_holder_report,
    lyapunov_estimate,
    spectrum_approx,
)


class CliError(Exception):
    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass
class ExperimentConfig:
    """Fully resolved run parameters; identical configs produce identical bytes."""

    command: str = ""
    seed: int = 0
    threads: int = 1
    out: Optional[str] = None
    chain: Optional[dict] = None
    chain_b: Optional[dict] = None
    target: Optional[dict] = None
    potential: Optional[dict] = None
    level: Optional[int] = None
    size: Optional[int] = None
    tol: Optional[float] = None
    depth: Optional[int] = None
    energy_min: Optional[float] = None
    energy_max: Optional[float] = None
    energy_points: Optional[int] = None
    q: Optional[list[int]] = None
    window: Optional[int] = None
    steps: Optional[int] = None
    k: Optional[int] = None
    nmin: Optional[int] = None
    nmax: Optional[int] = None

    def to_dict(self) -> dict:
        return {key: val for key, val in asdict(self).items() if val is not None}

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def _parse_json_flag(text, path: str):
    if not isinstance(text, str):
        return text
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(path, f"invalid JSON ({exc})") from None


def _parse_int_list(text, path: str) -> list[int]:
    if isinstance(text, list):
        return [int(x) for x in text]
    try:
        return [int(part) for part in str(text).split(",") if part.strip()]
    except ValueError:
        raise CliError(path, f"expected comma-separated integers, got {text!r}") from None


def _require(config: ExperimentConfig, name: str):
    value = getattr(config, name)
    if value is None:
        raise CliError(name, "required for this command")
    return value


def _positive(config: ExperimentConfig, name: str, default: int) -> int:
    """The integer field ``name``, or ``default`` when it is unset; 0 is not unset."""
    value = getattr(config, name)
    if value is None:
        return default
    if not isinstance(value, int) or value < 1:
        raise CliError(name, "must be an integer >= 1")
    return value


def _build_chain(obj, path: str) -> FrequencyChain:
    data = _parse_json_flag(obj, path)
    if not isinstance(data, dict):
        raise CliError(path, "expected a chain object {\"prefix\": [...], \"rule\": [...]}")
    try:
        return FrequencyChain.from_json_dict(data)
    except (ValueError, TypeError) as exc:
        raise CliError(path, str(exc)) from None


def build_potential(descriptor, seed: int, path: str = "potential") -> Potential:
    """Construct a potential from its config object, reporting errors with field paths."""
    data = _parse_json_flag(descriptor, path)
    if not isinstance(data, dict):
        raise CliError(path, "expected a potential object")
    kind = data.get("kind")
    try:
        if kind in ("remark", "metric"):
            chain = _build_chain(data.get("chain"), f"{path}.chain")
            depth = int(data.get("depth", 8))
            base = int(data.get("base", 0))
            generator = int(data.get("generator", 1))
            make = sawtooth_potential if kind == "remark" else metric_potential
            return make(chain, depth, base, generator)
        if kind == "layers":
            chain = _build_chain(data.get("chain"), f"{path}.chain")
            raw_layers = data.get("layers")
            if not isinstance(raw_layers, list) or not raw_layers:
                raise CliError(f"{path}.layers", "expected a nonempty list of layers")
            layers = tuple(
                PeriodicLayer(int(entry["period"]), tuple(entry["values"]))
                for entry in raw_layers
            )
            f = SamplingFunction(chain, layers, float(data.get("residual_bound", 0.0)))
            omega = ProcyclicElement.from_int(chain, f.depth, int(data.get("base", 0)))
            tol = float(data.get("tol", 1e-9))
            return sampled_potential(f, omega, int(data.get("generator", 1)), tol)
        if kind == "periodic":
            values = data.get("values")
            if not isinstance(values, list) or not values:
                raise CliError(f"{path}.values", "expected a nonempty list of numbers")
            return periodic_potential(values)
        if kind == "iid":
            return iid_uniform_potential(
                int(data.get("seed", seed)),
                float(data.get("low", 0.0)),
                float(data.get("high", 1.0)),
            )
    except CliError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise CliError(path, str(exc)) from None
    raise CliError(f"{path}.kind", f"unknown kind {kind!r}")


def _energy_grid(config: ExperimentConfig) -> list[float]:
    emin = _require(config, "energy_min")
    emax = _require(config, "energy_max")
    points = _positive(config, "energy_points", 101)
    if points == 1:
        return [emin]
    if emax < emin:
        raise CliError("energy_max", "must be >= energy_min")
    return [emin + (emax - emin) * i / (points - 1) for i in range(points)]


def _json_safe(obj):
    # json.dumps would emit bare Infinity/NaN tokens, which are not JSON.
    if isinstance(obj, float) and not math.isfinite(obj):
        return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _write_json(obj: dict, out: Optional[str]) -> None:
    text = json.dumps(_json_safe(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(header: Sequence[str], rows, out: Optional[str], config_hash: str) -> None:
    target = open(out, "w", newline="") if out else sys.stdout
    try:
        target.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(target, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if out:
            target.close()


def _sweep(fn, grid: list[float], threads: int) -> list:
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, grid))
    return [fn(e) for e in grid]


def cmd_classify(config: ExperimentConfig) -> int:
    a = _build_chain(_require(config, "chain"), "chain")
    b = _build_chain(_require(config, "chain_b"), "chain_b")
    comparison = hulls_isomorphic(a, b)
    cert = comparison.to_json_dict()
    out = {
        "config_hash": config.config_hash(),
        "isomorphic": comparison.isomorphic,
        "order_a": comparison.order_a.format(),
        "order_b": comparison.order_b.format(),
        "certificate": {
            key: cert[key] for key in ("forward", "backward", "blocker") if key in cert
        },
    }
    _write_json(out, config.out)
    return 0


def cmd_maximal_chain(config: ExperimentConfig) -> int:
    chain = _build_chain(_require(config, "chain"), "chain")
    try:
        refined = maximal_chain(chain, config.depth)
    except ValueError as exc:
        raise CliError("depth", str(exc)) from None
    _write_json(
        {"config_hash": config.config_hash(), "chain": refined.to_json_dict()},
        config.out,
    )
    return 0


def cmd_synth(config: ExperimentConfig) -> int:
    pot = build_potential(_require(config, "potential"), config.seed)
    if config.out is None:
        raise CliError("out", "synth writes a CSV file; pass --out")
    nmin = config.nmin if config.nmin is not None else -16
    nmax = config.nmax if config.nmax is not None else 16
    if nmax < nmin:
        raise CliError("nmax", "must be >= nmin")
    rows = [(n, pot(n)) for n in range(nmin, nmax + 1)]
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
    return 0


def cmd_detect_frequency(config: ExperimentConfig) -> int:
    pot = build_potential(_require(config, "potential"), config.seed)
    qs = _parse_int_list(_require(config, "q"), "q")
    window = _positive(config, "window", 4096)
    rows = []
    for q in qs:
        coeff = bohr_coefficient(pot, q, window)
        rows.append((q, coeff.real, coeff.imag, abs(coeff)))
    _write_csv(("q", "re", "im", "magnitude"), rows, config.out, config.config_hash())
    return 0


def cmd_orbit(config: ExperimentConfig) -> int:
    chain = _build_chain(_require(config, "chain"), "chain")
    k = _require(config, "k")
    level = _require(config, "level")
    steps = _require(config, "steps")
    residues = orbit_residues(chain, k, level, steps)
    _write_json(
        {
            "config_hash": config.config_hash(),
            "modulus": chain.nth_term(level),
            "residues": residues,
            "distinct": len(set(residues)),
        },
        config.out,
    )
    return 0


def cmd_quotient(config: ExperimentConfig) -> int:
    source = _build_chain(_require(config, "chain"), "chain")
    target = _build_chain(_require(config, "target"), "target")
    try:
        qmap = quotient(source, target)
    except ValueError as exc:
        raise CliError("target", str(exc)) from None
    depth = _positive(config, "depth", min(4, len(target.prefix)))
    _write_json(
        {
            "config_hash": config.config_hash(),
            "order_source": source.limit().format(),
            "order_target": target.limit().format(),
            "alignment": [list(pair) for pair in qmap.alignment(depth)],
        },
        config.out,
    )
    return 0


def cmd_spectrum(config: ExperimentConfig) -> int:
    pot = build_potential(_require(config, "potential"), config.seed)
    level = _require(config, "level")
    tol = config.tol if config.tol is not None else 1e-9
    try:
        approx = spectrum_approx(pot, level, tol)
    except ValueError as exc:
        raise CliError("potential", str(exc)) from None
    out = approx.to_json_dict()
    out["config_hash"] = config.config_hash()
    _write_json(out, config.out)
    return 0


def cmd_ids(config: ExperimentConfig) -> int:
    pot = build_potential(_require(config, "potential"), config.seed)
    if config.out is None:
        raise CliError("out", "ids writes a CSV file; pass --out")
    grid = _energy_grid(config)
    size = _positive(config, "size", 10_000)
    window = [pot(i) for i in range(1, size + 1)]
    counts = _sweep(lambda e: eigenvalue_count(window, e), grid, config.threads)
    values = [c / size for c in counts]
    chash = config.config_hash()
    _write_csv(("E", "ids"), zip(grid, values), config.out, chash)
    report = log_holder_report(IDSCurve(tuple(grid), tuple(values)))
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
    return 0


def cmd_lyapunov(config: ExperimentConfig) -> int:
    pot = build_potential(_require(config, "potential"), config.seed)
    grid = _energy_grid(config)
    size = _positive(config, "size", 100_000)
    values = _sweep(lambda e: lyapunov_estimate(pot, e, size), grid, config.threads)
    rows = [(e, v, size) for e, v in zip(grid, values)]
    _write_csv(("E", "lyapunov", "N"), rows, config.out, config.config_hash())
    return 0


def cmd_gordon(config: ExperimentConfig) -> int:
    pot = build_potential(_require(config, "potential"), config.seed)
    qs = _parse_int_list(_require(config, "q"), "q")
    try:
        report = gordon_check(pot, qs)
    except ValueError as exc:
        raise CliError("q", str(exc)) from None
    _write_json(
        {
            "config_hash": config.config_hash(),
            "passed": report.passed,
            "margins": [m._asdict() for m in report.margins],
        },
        config.out,
    )
    return 0


def cmd_condition_a(config: ExperimentConfig) -> int:
    chain = _build_chain(_require(config, "chain"), "chain")
    depth = _positive(config, "depth", 8)
    try:
        report = condition_a_check(chain, depth)
    except ValueError as exc:
        raise CliError("depth", str(exc)) from None
    out = report._asdict()
    out["log_ratios"] = list(out["log_ratios"])
    out["config_hash"] = config.config_hash()
    _write_json(out, config.out)
    return 0


_COMMANDS = {
    "classify": cmd_classify,
    "maximal-chain": cmd_maximal_chain,
    "synth": cmd_synth,
    "detect-frequency": cmd_detect_frequency,
    "orbit": cmd_orbit,
    "quotient": cmd_quotient,
    "spectrum": cmd_spectrum,
    "ids": cmd_ids,
    "lyapunov": cmd_lyapunov,
    "gordon": cmd_gordon,
    "condition-a": cmd_condition_a,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limitper",
        description="Classify limit-periodic hulls and measure spectra of the "
        "associated discrete Schrodinger operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, *flags: str) -> None:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file; overrides flags")
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        for flag in flags:
            kind = _FLAG_TYPES[flag]
            p.add_argument(f"--{flag.replace('_', '-')}", dest=flag, type=kind, default=None)

    add("classify", "chain", "chain_b")
    add("maximal-chain", "chain", "depth")
    add("synth", "potential", "nmin", "nmax")
    add("detect-frequency", "potential", "q", "window")
    add("orbit", "chain", "k", "level", "steps")
    add("quotient", "chain", "target", "depth")
    add("spectrum", "potential", "level", "tol")
    add("ids", "potential", "energy_min", "energy_max", "energy_points", "size")
    add("lyapunov", "potential", "energy_min", "energy_max", "energy_points", "size")
    add("gordon", "potential", "q")
    add("condition-a", "chain", "depth")
    return parser


_FLAG_TYPES = {
    "chain": str,
    "chain_b": str,
    "target": str,
    "potential": str,
    "q": str,
    "depth": int,
    "level": int,
    "steps": int,
    "k": int,
    "size": int,
    "window": int,
    "nmin": int,
    "nmax": int,
    "tol": float,
    "energy_min": float,
    "energy_max": float,
    "energy_points": int,
}


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    field_names = {f.name for f in fields(ExperimentConfig)}
    resolved: dict = {"command": args.command}
    for name in field_names - {"command"}:
        value = getattr(args, name, None)
        if value is not None:
            resolved[name] = value
    if args.config:
        try:
            with open(args.config) as fh:
                file_conf = json.load(fh)
        except OSError as exc:
            raise CliError("config", str(exc)) from None
        except json.JSONDecodeError as exc:
            raise CliError("config", f"invalid JSON ({exc})") from None
        if not isinstance(file_conf, dict):
            raise CliError("config", "config file must hold a JSON object")
        for key, value in file_conf.items():
            if key not in field_names or key == "command":
                raise CliError(f"config.{key}", "unknown config field")
            resolved[key] = value
    config = ExperimentConfig(**resolved)
    if config.seed is None:
        config.seed = 0
    if not 0 <= config.seed < 2**64:
        raise CliError("seed", "must fit in an unsigned 64-bit integer")
    if config.threads is None:
        config.threads = 1
    if config.threads < 1:
        raise CliError("threads", "must be >= 1")
    if config.q is not None:
        config.q = _parse_int_list(config.q, "q")
    return config


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        return _COMMANDS[args.command](config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
