"""limitper benchmark: drive ``limitper.cli.main`` on seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweeps --seed 1 --seconds 58 --trace 0

One process, one closed-loop client, no threads: each CLI call starts when
the previous one has returned.  A run sets up (in fresh interpreters, see
setup_probe.py), then repeats passes over the workload's calls until the next
pass would take the time spent in CLI calls past ``--seconds``.  The first pass is checked against
``oracle`` and later passes must reproduce its bytes.  With ``--trace 1`` the
run makes one untraced and one traced pass and reports per-layer metrics.

Human-readable lines go first; the last line of stdout is the JSON result.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_BATCH = 5  # set-ups before each pass, so they sample the whole run
SETUP_REPS = 20
PROBE_ENERGY = 0.3
# Gated times are scaled to the speed at which the calibration block takes
# CALIBRATION_REF_S (README.md, "Noise on a 2-core sandbox, and calibrated times").
CALIBRATION_REF_S = 0.020
CALIBRATION_ROUNDS = 600

import checks  # noqa: E402  (sibling modules of this script)
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def calibration_block(values):
    """Seconds for a fixed piece of benchmark-owned work, timed between CLI calls.

    It converts a period to floats and runs the oracle's discriminant
    recurrence, the same mix of allocation and float arithmetic as the
    library's hot loops, so it slows down with the machine the way they do.
    """
    t0 = time.perf_counter()
    for i in range(CALIBRATION_ROUNDS):
        oracle.discriminant(tuple(float(x) for x in values), 0.1 + i * 1e-4)
    return time.perf_counter() - t0


class CallResult(NamedTuple):
    call: workloads.Call
    seconds: float
    bytes_out: int
    problems: list


class Runner:
    """Runs passes over a workload's calls and checks every output."""

    def __init__(self, cli, inputs, workdir):
        self.cli = cli
        self.inputs = inputs
        self.workdir = workdir
        self.checker = checks.Checker(inputs)
        self.digests = {}  # call index -> sha256 of the first pass's outputs
        self.period = [
            oracle.tower_value("remark", workloads.MODULI, inputs.base + n)
            for n in range(workloads.PERIOD)
        ]
        self.calibration = []  # calibration_block seconds, one before each call

    def speed_factor(self):
        """Reference speed over this run's speed: multiply a raw time by it."""
        return CALIBRATION_REF_S / statistics.mean(self.calibration)

    def _call(self, index, call, tracer):
        self.calibration.append(calibration_block(self.period))
        out = self.workdir / call.out
        paths = [out, Path(str(out) + ".manifest.json")]
        for path in paths:
            path.unlink(missing_ok=True)
        argv = call.argv + ["--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        gc.collect()  # start every call from a collected heap, like a fresh CLI process
        span = tracer.span("cli.main", op=call.op) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crash is a failed call, reported below
                rc = "crash"
                traceback.print_exc()
        seconds = time.perf_counter() - t0
        files = {p.name: p for p in paths if p.exists()}
        text = stdout.getvalue()
        bytes_out = len(text.encode()) + sum(p.stat().st_size for p in files.values())
        if rc != 0 or stderr.getvalue():
            problems = [f"exit {rc}: {stderr.getvalue().strip()[-300:]}"]
        else:
            digest = hashlib.sha256(text.encode())
            for name in sorted(files):
                digest.update(name.encode() + b"\0")
                with open(files[name], "rb") as fh:
                    for chunk in iter(lambda: fh.read(1 << 16), b""):
                        digest.update(chunk)
            digest = digest.digest()
            if index not in self.digests:
                self.digests[index] = digest
                problems = self.checker.check(call, files, text)
            else:
                problems = [] if digest == self.digests[index] else ["output bytes changed"]
        for problem in problems[:3]:
            print(f"check failed: {call.op} ({call.kind}): {problem}", file=sys.stderr)
        return CallResult(call, seconds, bytes_out, problems)

    def run_pass(self, tracer=None):
        results = [self._call(i, c, tracer) for i, c in enumerate(self.inputs.calls)]
        wall = sum(r.seconds for r in results)
        return {"wall": wall, "calls": results}


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, workload):
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_once(inputs, profile=False):
    argv = [sys.executable, str(HERE / "setup_probe.py")] + (["--profile"] if profile else [])
    argv += [str(SRC)] + [json.dumps(d) for d in inputs.descriptors.values()]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(done.stdout)
    if Path(result["limitper"]) != SRC / "limitper":
        raise RuntimeError(f"set-up imported limitper from {result['limitper']}")
    return result


def import_library():
    sys.path.insert(0, str(SRC))
    import limitper
    import limitper.cli

    if Path(limitper.__file__).parent != SRC / "limitper":
        raise RuntimeError(f"imported limitper from {limitper.__file__}, not {SRC}")
    return limitper


def op_medians(passes):
    """Median over passes of each op's summed call time."""
    per_op = {}
    for rec in passes:
        sums = {}
        for r in rec["calls"]:
            sums[r.call.op] = sums.get(r.call.op, 0.0) + r.seconds
        for op, s in sums.items():
            per_op.setdefault(op, []).append(s)
    return {op: statistics.median(v) for op, v in per_op.items()}


def gaps_report(checker):
    lines = {}
    for level, (missed, widest, found) in sorted(checker.gaps.items()):
        lines[f"spectrum.gaps_missed.l{level}"] = (missed, "count")
        lines[f"spectrum.bands_found.l{level}"] = (found, "count")
    if checker.gaps:
        lines["spectrum.gaps_missed"] = (sum(g[0] for g in checker.gaps.values()), "count")
        lines["spectrum.missed_gap_max_width"] = (max(g[1] for g in checker.gaps.values()), "energy")
    return lines


def untraced(runner, inputs, args):
    passes, spent, setup_s = [], 0.0, []

    def set_up():
        for _ in range(min(SETUP_BATCH, SETUP_REPS - len(setup_s))):
            setup_s.append(setup_once(inputs)["setup_s"])

    while True:
        set_up()
        rec = runner.run_pass()
        passes.append(rec)
        spent += rec["wall"]
        if spent + rec["wall"] > args.seconds:
            break
    set_up()
    walls = [p["wall"] for p in passes]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed = runner.speed_factor()
    metrics = {
        "setup_s": (statistics.median(setup_s) * speed, "s"),
        "pass_s": (statistics.median(walls) * speed, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    report = {f"{op}_s": (v * speed, "s") for op, v in op_medians(passes).items()}
    report.update(gaps_report(runner.checker))
    report["passes"] = (len(passes), "count")
    report["setup_reps"] = (len(setup_s), "count")
    report["speed_factor"] = (speed, "ratio")
    report["raw.setup_s"] = (statistics.median(setup_s), "s")
    report["raw.pass_s"] = (statistics.median(walls), "s")
    report["raw.pass_s.samples"] = (" ".join(f"{w:.3f}" for w in walls), "s")
    return passes, metrics, report


def traced(lp, runner, inputs):
    profiled = setup_once(inputs, profile=True)["self_s"]
    plain = runner.run_pass()
    tracer = tracing.Tracer()
    with tracer.installed(lp):
        rec = runner.run_pass(tracer)
    OUT.mkdir(exist_ok=True)
    (OUT / "trace.json").write_text(json.dumps(tracer.to_json()))

    pots = {
        kind: lp.cli.build_potential(workloads.descriptor(kind, inputs.base, inputs.iid_seed), 0)
        for kind in ("remark", "metric", "layers", "iid")
    }
    period = [
        oracle.tower_value("remark", workloads.MODULI, inputs.base + n)
        for n in range(workloads.PERIOD)
    ]
    pots["periodic"] = lp.cli.build_potential({"kind": "periodic", "values": period}, 0)
    metrics = tracing.probes(lp, pots, period, PROBE_ENERGY)

    mains = [i for i, s in enumerate(tracer.spans) if s[0] == "cli.main"]
    metrics.update(tracing.summarize(tracer, mains))
    metrics["cli.bytes_out"] = (sum(r.bytes_out for r in rec["calls"]), "bytes")
    metrics["trace.overhead_pct"] = ((rec["wall"] / plain["wall"] - 1.0) * 100.0, "%")
    for module in ("frequency", "procyclic", "supernatural"):
        metrics[f"{module}.self_s"] = (profiled.get(module, 0.0), "s")
    report = {"untraced_pass_s": (plain["wall"], "s"), "traced_pass_s": (rec["wall"], "s")}
    groups = {tracer.spans[i][4]["op"].split(".")[0] for i in mains}
    if len(groups) > 1:
        for group in sorted(groups):
            part = [i for i in mains if tracer.spans[i][4]["op"].startswith(group + ".")]
            report.update({f"{group}.{k}": v for k, v in tracing.summarize(tracer, part).items()
                           if not k.startswith(("spectral.bands", "spectral.discriminant"))})
    return [plain, rec], metrics, report


def run_workload(lp, workload, args):
    inputs = workloads.make(workload, args.seed)
    print("# env " + json.dumps(environment(args, workload), sort_keys=True))
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(lp.cli, inputs, workdir)
    try:
        if args.trace:
            passes, metrics, report = traced(lp, runner, inputs)
        else:
            passes, metrics, report = untraced(runner, inputs, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results = [r for p in passes for r in p["calls"]]
    failed = sum(1 for r in results if r.problems)
    report["ops_failed_frac"] = (failed / len(results), "ratio")
    for name, (value, unit) in {**metrics, **report}.items():
        shown = f"{value:d}" if isinstance(value, int) else value if isinstance(value, str) else f"{value:.6g}"
        print(f"{name:40s} {shown:>16s} {unit}")
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "limitper" / "__init__.py").is_file():
        print(f"error: no limitper sources under {SRC}", file=sys.stderr)
        return 2
    lp = import_library()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(lp, name, args)
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
