"""Benchmark runner for the kho CLI.

    python3 perfbench/run.py --workload butterfly --seed 0 --seconds 20 --trace 0

Runs the `kho` CLI from this checkout's `src/` (PYTHONPATH=src, as the test
suite does), so every commit is measured without installing it.

--trace 0 runs the workload's CLI invocations as fresh processes, one after
another (a closed loop, never more than one CLI process at a time), repeats
them until --seconds have passed (and at least three times), gates every
output, and prints the end-to-end metrics: median wall and CPU time and
peak RSS of one repeat, and the CLI's cold-start time (setup_s).

--trace 1 replays the same invocations in this process, alternating an
untraced replay with a traced one, and prints the per-layer metrics taken
from the spans of the traced replays (see spans.py).  Workloads with a scan
also run two of their points through `--threads 2` once, to measure the
process pool.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The full record (provenance, per-repeat values, failure reasons)
is written under .perfbench_run/results/.  Thread and BLAS environment
variables are passed through untouched and recorded.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import provenance
import spans
import workloads
from workloads import GateResult, Invocation, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_run"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_REPEATS = 5
MIN_REPEATS = 3
MIN_TRACED_REPEATS = 2
POOL_THREADS = 2
POOL_POINTS = 2


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, failing set-up)."""


@dataclass
class Tally:
    """Gated operations over a whole run, with the bytes of each first repeat."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    reference: dict[str, bytes] = field(default_factory=dict)

    def add(self, result: GateResult, compare: bool = True) -> None:
        if compare:
            workloads.compare_repeats(self.reference, result)
        self.attempted += len(result.ops)
        self.failed += result.failed
        self.reasons.extend(result.reasons())


def _out_args(inv: Invocation, directory: Path) -> list[str]:
    return ["--out", str(directory / inv.out)] if inv.out else []


def _out_path(inv: Invocation, directory: Path) -> Path | None:
    return directory / inv.out if inv.out else None


# ---------------------------------------------------------------------------
# untraced: fresh CLI processes


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_kib: int
    code: int
    stdout: str


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(argv: list[str], cwd: Path, env: dict[str, str]) -> Proc:
    """Run `kho <argv>` to completion; CPU and peak RSS include its children."""
    with open(cwd / "stdout.txt", "w+b") as out, open(cwd / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "kho.cli", *argv], cwd=cwd,
                                env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
        out.seek(0)
        stdout = out.read().decode(errors="replace")
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode, stdout)


def measure_setup(workdir: Path, env: dict[str, str], repeats: int) -> list[float]:
    """Cold starts of `kho resonances`: interpreter, imports, argument parsing."""
    times = []
    target = workdir / "resonances.json"
    for _ in range(repeats):
        p = run_cli(["resonances", "--out", str(target)], workdir, env)
        try:
            table = json.loads(target.read_text())
        except (OSError, ValueError):
            table = None
        if p.code != 0 or not isinstance(table, dict) or "4" not in table:
            raise BenchError(f"`kho resonances` failed (exit {p.code}); see {workdir}")
        times.append(p.wall)
    return times


def run_untraced(wl: Workload, seconds: float, workdir: Path, smoke: bool) -> tuple[dict, Tally, dict]:
    env = cli_env()
    setup = measure_setup(workdir, env, 1 if smoke else SETUP_REPEATS)
    tally = Tally()
    repeats = []
    start = time.perf_counter()
    while True:
        rep = workdir / f"repeat{len(repeats)}"
        rep.mkdir()
        wall = cpu = 0.0
        rss = 0
        for inv in wl.invocations:
            p = run_cli(list(inv.argv) + _out_args(inv, rep), rep, env)
            wall += p.wall
            cpu += p.cpu
            rss = max(rss, p.rss_kib)
            tally.add(workloads.gate(inv, p.code, p.stdout, _out_path(inv, rep)))
        shutil.rmtree(rep)
        repeats.append({"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss / 1024.0})
        if time.perf_counter() - start >= seconds and len(repeats) >= (1 if smoke else MIN_REPEATS):
            break
    metrics = {k: statistics.median(r[k] for r in repeats) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setup)
    raw = {"setup_s": setup, "repeats": repeats}
    return _with_units(metrics, "end_to_end"), tally, raw


# ---------------------------------------------------------------------------
# traced: in-process replay


class Replayer:
    """Calls kho.cli.main in this process, as a fresh CLI process would run."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        start = time.perf_counter()
        import kho.cli
        from kho import specfun
        self.import_s = time.perf_counter() - start
        self.cli = kho.cli
        # the originals, captured before any wrapping
        self.bessel_cache = specfun._cached_table
        self.caches = (specfun._cached_table, specfun.k_cutoff)

    def main(self, argv: list[str]) -> tuple[int, str]:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.cli.main(argv)  # looked up now, so a traced main is used
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, stdout.getvalue()

    def replay(self, invocations, directory: Path, tally: Tally) -> float:
        """Run the invocations with cold caches; return the summed wall time."""
        for cache in self.caches:
            cache.cache_clear()
        wall = 0.0
        for inv in invocations:
            start = time.perf_counter()
            code, stdout = self.main(list(inv.argv) + _out_args(inv, directory))
            wall += time.perf_counter() - start
            tally.add(workloads.gate(inv, code, stdout, _out_path(inv, directory)))
        return wall


def layer_metrics(tracer, traced_wall: float, untraced_wall: float, cache_info) -> dict[str, float]:
    st = tracer.self_times()
    calls = tracer.calls()
    c = tracer.counters

    def self_of(prefix: str) -> float:
        return sum(v for k, v in st.items() if k == prefix or k.startswith(prefix + "."))

    kicks = c["fock.kicks"]
    propagation = st.get("fock.evolve", 0.0) + st.get("fock.kicks_to_energy", 0.0)
    lookups = cache_info.hits + cache_info.misses
    m = {f"{layer}.self_s": self_of(layer) for layer in spans.LAYERS}
    m.update({
        "specfun.displacement_matrix.self_s": st.get("specfun.displacement_matrix", 0.0),
        "specfun.displacement_matrix.calls": calls["specfun.displacement_matrix"],
        "specfun.bessel.self_s": sum(st.get(n, 0.0) for n in spans.BESSEL),
        "specfun.bessel.calls": tracer.outer_calls(spans.BESSEL),
        "specfun.bessel_cache.hit_ratio": cache_info.hits / lookups if lookups else 0.0,
        "fock.build_kick.calls": calls["fock.build_kick"],
        "fock.kicks": kicks,
        "fock.kick_us": 1e6 * propagation / kicks if kicks else 0.0,
        "fock.kick_bytes_computed": c["fock.kick_bytes_computed"],
        "fock.kick_flops_computed": c["fock.kick_flops_computed"],
        "fock.quasienergy_spectrum.calls": calls["fock.quasienergy_spectrum"],
        "fock.quasienergy_spectrum.n_discarded": c["fock.quasienergy_spectrum.n_discarded"],
        "fock.q_function.terms": c["fock.q_function.terms"],
        "fock.doubling_rule.evals": c["fock.doubling_rule.evals"],
        "lattice.step.calls": calls["lattice.step"],
        "lattice.step.coeffs": c["lattice.step.coeffs"],
        "output.bytes": c["output.bytes"],
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.accounted_frac": sum(st.values()) / traced_wall if traced_wall else 0.0,
    })
    for name in ("fock.build_kick", "fock.floquet", "fock.floquet_power", "fock.kick_axis_product",
                 "fock.kick_expansion_matrix", "fock.evolve", "fock.kicks_to_energy",
                 "fock.quasienergy_spectrum", "fock.q_function", "lattice.step",
                 "lattice.to_fock", "lattice.analytic_q6_cycle"):
        m[f"{name}.self_s"] = st.get(name, 0.0)
    return m


def pool_efficiency(rp: Replayer, tracer, wl: Workload, workdir: Path, tally: Tally) -> float:
    """Summed serial per-point time over (workers x pool wall time), on the
    first POOL_POINTS points of the workload's scan; 0 for a workload
    without a scan.  The parallel CSV must match the serial one byte for byte."""
    scans = [inv for inv in wl.invocations if inv.points]
    if not scans:
        return 0.0
    inv = scans[0]
    lo, hi = (workloads._eta2_value(s) for s in inv.scan)
    scan = (inv.scan[0], repr(lo + (hi - lo) / (inv.points - 1)))
    make = (workloads.spectrum_invocation if inv.kind == "spectrum"
            else workloads.energy_scan_invocation)
    worker = "cli._spectrum_point" if inv.kind == "spectrum" else "cli._energy_scan_point"
    outputs, timings = [], []
    for threads in (1, POOL_THREADS):
        d = workdir / f"pool{threads}"
        d.mkdir()
        pinv = make(scan, POOL_POINTS, threads)
        tracer.reset()
        tracer.install(f"{wl.name}-seed{wl.seed}-pool{threads}")
        try:
            code, stdout = rp.main(list(pinv.argv) + _out_args(pinv, d))
        finally:
            tracer.uninstall()
        tally.add(workloads.gate(pinv, code, stdout, _out_path(pinv, d)), compare=False)
        path = _out_path(pinv, d)
        outputs.append(path.read_text() if path.is_file() else "")
        timings.append(sum(tracer.durations(worker)) if threads == 1
                       else sum(tracer.durations("cli._map_points")))
    tally.add(workloads.check_same_bytes(outputs[0], outputs[1]), compare=False)
    serial, pool_wall = timings
    return serial / (POOL_THREADS * pool_wall) if pool_wall else 0.0


def run_traced(wl: Workload, seconds: float, workdir: Path, smoke: bool) -> tuple[dict, Tally, dict]:
    rp = Replayer()
    tracer = spans.Tracer()
    tally = Tally()
    repeats = []
    start = time.perf_counter()
    # first, so that its time counts against --seconds
    efficiency = pool_efficiency(rp, tracer, wl, workdir, tally)
    while True:
        k = len(repeats)
        d = workdir / f"repeat{k}"
        d.mkdir()
        untraced = rp.replay(wl.invocations, d, tally)
        tracer.reset()
        tracer.install(f"{wl.name}-seed{wl.seed}-repeat{k}")
        try:
            traced = rp.replay(wl.invocations, d, tally)
        finally:
            tracer.uninstall()
        shutil.rmtree(d)
        repeats.append(layer_metrics(tracer, traced, untraced, rp.bessel_cache.cache_info()))
        last_trace = tracer.export()
        if time.perf_counter() - start >= seconds and len(repeats) >= (1 if smoke else MIN_TRACED_REPEATS):
            break
    metrics = {k: statistics.median(r[k] for r in repeats) for k in repeats[0]}
    metrics["cli.import_s"] = rp.import_s
    metrics["cli.pool.efficiency"] = efficiency
    return (_with_units(metrics, "per_layer"), tally,
            {"repeats": repeats, "trace": last_trace})


def _with_units(values: dict[str, float], kind: str) -> dict[str, tuple[float, str]]:
    """(value, unit) for every metric BENCHMARK.json lists under `kind`, in its order."""
    return {m["name"]: (values[m["name"]], m["unit"]) for m in SPEC[kind]}


def layer_table(metrics: dict) -> str:
    """Self seconds per layer, largest first, as share of the traced wall time."""
    wall = metrics["trace.wall_s"][0]
    rows = sorted(((metrics[f"{layer}.self_s"][0], layer) for layer in spans.LAYERS), reverse=True)
    lines = [f"{'layer':<10}{'self_s':>12}{'share':>9}"]
    lines += [f"{layer:<10}{v:>12.4f}{v / wall:>9.1%}" for v, layer in rows]
    lines.append(f"{'traced':<10}{wall:>12.4f}   overhead {metrics['trace.overhead_s'][0]:+.4f} s")
    return "\n".join(lines)


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="Benchmark the kho CLI on one workload.")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help="smoke: smallest inputs and a single repeat, for the self-tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kho" / "cli.py").is_file():
        print(f"perfbench: no kho sources under {SRC}", file=sys.stderr)
        return 2
    smoke = args.scale == "smoke"
    wl = workloads.build(args.workload, args.seed, smoke=smoke)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    tag = f"{wl.name}-seed{wl.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT))
    try:
        run = run_traced if args.trace else run_untraced
        metrics, tally, raw = run(wl, args.seconds, workdir, smoke)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "workload": wl.name,
        "seed": wl.seed,
        "trace": args.trace,
        "scale": args.scale,
        "argv": [list(inv.argv) for inv in wl.invocations],
        "provenance": provenance.collect(ROOT, wl.seed),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted if tally.attempted else math.nan,
        "failures": tally.reasons[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    trace_data = raw.pop("trace", None)
    record["raw"] = raw
    record_path = OUT / "results" / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    if trace_data is not None:
        with gzip.open(OUT / "results" / f"{tag}-spans.json.gz", "wt") as fh:
            json.dump(trace_data, fh)
        print(layer_table(metrics), file=sys.stderr)
    for reason in tally.reasons[:20]:
        print(f"perfbench: failed {reason}", file=sys.stderr)
    print(f"# failed_frac={record['failed_frac']:.6g} record={record_path.relative_to(ROOT)}")
    print(f"# provenance {json.dumps(record['provenance'], sort_keys=True)}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
