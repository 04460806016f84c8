"""Command-line front end.

Subcommands: evolve, qfunc, energy-scan, spectrum, resonances, verify.  Exit
status: 0 success, 1 usage error, 2 truncation-unsafe result, 3 verification
failure.  All outputs are deterministic: the same flags produce byte-identical
files under a fixed BLAS thread setting, which is one OpenBLAS thread unless
OPENBLAS_NUM_THREADS says otherwise (see kho/__init__).  Handlers write through
kho.output in one all_or_nothing() block: a failed run removes what it made.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from dataclasses import asdict, replace

# numpy and the numeric modules are imported by the handlers that run them:
# `resonances`, `--help` and a usage error load none of them; `output` loads no numpy
from . import model, output

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TRUNCATION = 2
EXIT_VERIFY = 3

ENERGY_TARGETS = (50.0, 200.0)
UNREACHED = -1  # sentinel for scan points that never hit a target


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"kho: error: {message}\n")

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        # argparse takes the value of "--flag=--" as [], past the flag's type
        for dest, value in vars(parsed).items():
            if value == []:
                self.error(f"argument --{dest.replace('_', '-')}: expected one argument")
        return parsed


def _int_at_least(lo: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lo}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its invalid-value message
    return parse


def _finite_complex(text: str) -> complex:
    value = complex(text)
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _parse_window(text: str) -> tuple[float, float, float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) == 1:
        r = abs(parts[0])
        parts = [-r, r, -r, r]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("window must be R or re_min,re_max,im_min,im_max")
    if not all(map(math.isfinite, parts)):
        raise argparse.ArgumentTypeError(f"window bounds must be finite, got {text}")
    if parts[0] >= parts[1] or parts[2] >= parts[3]:
        raise argparse.ArgumentTypeError(f"window needs min < max on both axes, got {text}")
    if not (math.isfinite(parts[1] - parts[0]) and math.isfinite(parts[3] - parts[2])):
        raise argparse.ArgumentTypeError(f"window width must be finite on both axes, got {text}")
    return tuple(parts)


def _parse_res(text: str) -> tuple[int, int]:
    parts = [int(p) for p in text.split(",")]
    if min(parts) < 2:
        raise argparse.ArgumentTypeError("res needs at least 2 samples per axis")
    if len(parts) == 1:
        return (parts[0], parts[0])
    if len(parts) == 2:
        return tuple(parts)
    raise argparse.ArgumentTypeError("res must be N or n_re,n_im")


# argparse names a type in its invalid-value message
_finite_complex.__name__, _parse_window.__name__, _parse_res.__name__ = "complex", "window", "res"


ETA2_HELP = "eta^2, symbolic: float | pi | pi/2 | 2pi/sqrt3 | phi*pi | a/b*pi"


def _add_system_flags(p):
    """--q, --r, --kappa and --dim.  --eta2 is added only where one system
    runs: a scan takes its eta^2 values from --scan-min and --scan-max."""
    p.add_argument("--q", type=int, default=4, help="kicks per oscillator period")
    p.add_argument("--r", type=int, default=1, help="oscillator periods per q kicks")
    p.add_argument("--kappa", type=float, default=-0.8, help="dimensionless kick strength")
    p.add_argument("--dim", type=_int_at_least(1), default=500, help="Fock basis size")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="kho", description="Quantum delta-kicked harmonic oscillator simulator")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("evolve", help="propagate and emit the energy trace")
    _add_system_flags(pe)
    pe.add_argument("--eta2", default="pi", help=ETA2_HELP)
    pe.add_argument("--kicks", type=_int_at_least(0), default=108)
    pe.add_argument("--alpha", type=_finite_complex, default=0j,
                    help="initial coherent amplitude")
    pe.add_argument("--out", default="evolve.csv")
    pe.add_argument("--state-out", default=None, help="optional final-state JSON path")

    pq = sub.add_parser("qfunc", help="evolve and sample the Husimi Q function")
    _add_system_flags(pq)
    pq.add_argument("--eta2", default=None, help=ETA2_HELP)
    pq.add_argument("--kicks", type=_int_at_least(0), default=None,
                    help="kicks before sampling (default 108); needs --eta2")
    pq.add_argument("--alpha", type=_finite_complex, default=0j)
    pq.add_argument("--window", type=_parse_window, default=_parse_window("16"))
    pq.add_argument("--res", type=_parse_res, default=(101, 101))
    pq.add_argument("--out", default=None,
                    help="output CSV with --eta2 (default qfunc.csv), else the directory "
                         "of the default panel set (default qfunc_out)")

    ps = sub.add_parser("energy-scan", help="kicks needed to reach 50 and 200 hbar*omega vs eta^2")
    _add_system_flags(ps)
    ps.add_argument("--kicks", type=_int_at_least(0), default=2000, help="kick budget per point")
    ps.add_argument("--scan-min", default="0.4*pi")
    ps.add_argument("--scan-max", default="1.6*pi")
    ps.add_argument("--scan-points", type=_int_at_least(1), default=61)
    ps.add_argument("--threads", type=_int_at_least(1), default=None,
                    help="processes (default: every usable CPU, at most one per point)")
    ps.add_argument("--out", default="energy_scan.csv")

    pp = sub.add_parser("spectrum", help="quasienergy spectrum vs eta^2")
    _add_system_flags(pp)
    pp.add_argument("--scan-min", default="0.2*pi")
    pp.add_argument("--scan-max", default="1.8*pi")
    pp.add_argument("--scan-points", type=_int_at_least(1), default=161)
    pp.add_argument("--threads", type=_int_at_least(1), default=None,
                    help="processes (default: every usable CPU, at most one per point)")
    pp.add_argument("--out", default="spectrum.csv")

    pr = sub.add_parser("resonances", help="resonance table and z_n enumeration")
    pr.add_argument("--q-min", type=int, default=3)
    pr.add_argument("--q-max", type=int, default=8)
    pr.add_argument("--out", default=None, help="write JSON here instead of stdout")

    pv = sub.add_parser("verify", help="run the self-verification suite")
    pv.add_argument("--verify-level", choices=("quick", "full"), default="quick")

    return p


def _system_params(args, eta2_text: str) -> model.SystemParams:
    return model.SystemParams(r=args.r, q=args.q, kappa=args.kappa,
                              eta_sq=model.parse_eta2(eta2_text))


def _config_echo(args, keys) -> dict:
    return {k: getattr(args, k.replace("-", "_")) for k in keys}


def cmd_evolve(args) -> int:
    from . import fock

    if args.state_out and os.path.realpath(args.state_out) == os.path.realpath(args.out):
        raise ValueError(f"--state-out and --out name the same file: {args.out}")
    params = _system_params(args, args.eta2)
    cfg = _config_echo(args, ["q", "r", "kappa", "eta2", "dim", "kicks", "alpha"])
    cfg["eta2_value"] = output.fmt(params.eta_sq)
    state = fock.coherent_state(args.alpha, args.dim)
    result = fock.evolve(state, params, args.kicks)
    extra = []
    if result.truncation_unsafe:
        extra.append(f"warning: truncation-unsafe from kick {result.first_unsafe_kick}")
    if args.state_out is not None:
        amps = [[a.real, a.imag] for a in result.state.amps]
        output._write(args.state_out, json.dumps(
            {"schema": output.SCHEMA_VERSION, "dim": result.state.dim, "amps": amps}))
    output.write_csv(args.out, "evolve", cfg, ["kick", "mean_energy"],
                     enumerate(result.energies.tolist()), extra)
    if result.truncation_unsafe:
        print(f"kho evolve: truncation-unsafe from kick {result.first_unsafe_kick}; "
              f"trace written to {args.out}", file=sys.stderr)
    return EXIT_TRUNCATION if result.truncation_unsafe else EXIT_OK


_QFUNC_PANELS = {"pi": (36, 108), "phi*pi": (36, 108)}  # eta^2 -> kick counts


def cmd_qfunc(args) -> int:
    from . import fock

    if args.out is not None:
        out = args.out
    else:
        out = "qfunc.csv" if args.eta2 is not None else "qfunc_out"
    if args.eta2 is not None:
        panels = {args.eta2: [(108 if args.kicks is None else args.kicks, out)]}
    elif args.kicks is not None:
        raise ValueError("--kicks needs --eta2: the default panel set runs its own "
                         "kick counts, N=36 and N=108")
    else:
        output.make_dirs(out)
        panels = {}
        for eta2, counts in _QFUNC_PANELS.items():
            name = eta2.replace("*", "")
            panels[eta2] = [(kicks, os.path.join(out, f"qfunc_eta2-{name}_N{kicks}.csv"))
                            for kicks in counts]
    systems = [(eta2, _system_params(args, eta2), group) for eta2, group in panels.items()]
    state = fock.coherent_state(args.alpha, args.dim)
    runs = []  # (eta2, params, kicks, path, EvolveResult): one propagation per eta^2
    for eta2, params, group in systems:
        results = fock.evolve_at(state, params, [kicks for kicks, _ in group])
        runs += [(eta2, params, kicks, path, result)
                 for (kicks, path), result in zip(group, results)]
    # one coherent-amplitude walk for every panel
    grids = fock.q_functions([result.state for *_, result in runs], args.window, args.res)
    status = EXIT_OK
    for (eta2, params, kicks, path, result), grid in zip(runs, grids):
        cfg = _config_echo(args, ["q", "r", "kappa", "dim", "alpha"])
        cfg.update(eta2=eta2, kicks=kicks)
        cfg["eta2_value"] = output.fmt(params.eta_sq)
        riemann_sum = grid.riemann_sum()
        extra = [f"riemann_sum={output.fmt(riemann_sum)}"]
        if result.truncation_unsafe:
            extra.append(f"warning: truncation-unsafe from kick {result.first_unsafe_kick}")
            print(f"kho qfunc: truncation-unsafe from kick {result.first_unsafe_kick} "
                  f"for {path}", file=sys.stderr)
            status = EXIT_TRUNCATION
        if riemann_sum < 0.99:
            extra.append("warning: window too small, probability mass outside grid")
            print(f"kho qfunc: window misses probability mass "
                  f"(sum={riemann_sum:.3f}) for {path}", file=sys.stderr)
        elif riemann_sum > 1.01:
            extra.append("warning: grid coarser than Q, Riemann sum overestimates the mass")
            print(f"kho qfunc: grid too coarse to resolve Q "
                  f"(sum={riemann_sum:.3g}) for {path}", file=sys.stderr)
        output.write_qgrid(path, cfg, grid, extra)
    return status


def _scan_grid(args) -> list[model.SystemParams]:
    """One system per eta^2 of a scan, once both bounds pass as systems."""
    import numpy as np

    lo, hi = (_system_params(args, text) for text in (args.scan_min, args.scan_max))
    return [replace(lo, eta_sq=float(eta_sq))
            for eta_sq in np.linspace(lo.eta_sq, hi.eta_sq, args.scan_points)]


def _energy_scan_point(payload):
    from . import fock

    params, dim, n_max = payload
    res = fock.kicks_to_energy(params, max(ENERGY_TARGETS), n_max, dim=dim)
    return fock.energy_crossings(res.energies, list(ENERGY_TARGETS)), res.truncation_unsafe


_TOKEN = 4  # bytes per chunk index in the task pipe of _map_points
# a pipe buffer holds at least one 4 KiB page, where the parent's one write
# cannot block; a longer scan sends chunks of consecutive points
_PIPE_TOKENS = 4096 // _TOKEN


def _map_points(worker, payloads, threads):
    """worker(payload) for each payload, results in payload order, run on at
    most `threads` processes: this one and up to threads - 1 children, at
    most one process per payload.  One process forks nothing.

    Every process runs the same pull loop: it takes point indices from one
    pipe, filled before any fork, until the pipe is empty.  A point can cost
    20 times another, and a fixed split would leave a process idle.  The
    handler imports the numerics before it calls here, so no child imports
    them again.  Each child pickles its (index, result) pairs back through
    its own pipe and leaves by os._exit; a child whose parent has died stops
    pulling points and leaves too.  The first failure a process meets
    empties the index pipe, so the others stop after their current point,
    and a lone process runs no point after a failed one.  The parent reaps
    every child, also when its own share fails, then raises the lowest-index
    failure; a child that dies before reporting a lower index ends the run
    in ChildProcessError.  Every point runs the same single-threaded code,
    so the results do not depend on the process count.

    A forked run places each process on a CPU of its own as it starts: the
    kernel often starts a child on its parent's CPU and leaves both there for
    the whole run.  Slot 0, this process, and slot i, the i-th child, each
    move onto cpus[slot % len(cpus)], cpus = sorted(os.sched_getaffinity(0)),
    then restore the mask they read, so the kernel can still balance them.
    A process whose os.sched_setaffinity is missing or raises OSError stays
    where the kernel put it."""
    import pickle

    n = len(payloads)
    chunk = max(1, -(-n // _PIPE_TOKENS))  # points per index: 1 up to 1,024 points
    tasks, feed = os.pipe()
    os.write(feed, b"".join(i.to_bytes(_TOKEN, "little") for i in range(0, n, chunk)))
    os.close(feed)  # a read of the emptied pipe then returns b""

    parent = os.getpid()

    def place(slot):
        try:
            mask = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {sorted(mask)[slot % len(mask)]})
            os.sched_setaffinity(0, mask)
        except (AttributeError, OSError):  # no CPU affinity, or refused
            pass

    def share(wanted=lambda: True):
        """(index, result) pairs of the points pulled while wanted(), and
        [(index, exception)] of the first failure, or []."""
        done = []
        while wanted() and (token := os.read(tasks, _TOKEN)):
            start = int.from_bytes(token, "little")
            for i in range(start, min(start + chunk, n)):
                try:
                    done.append((i, worker(payloads[i])))
                except Exception as exc:
                    while os.read(tasks, 4096):  # every index left is higher
                        pass
                    return done, [(i, exc)]
        return done, []

    children, reports, lost = [], [], []  # (pid, read end of its report pipe)
    try:
        procs = min(threads, n)
        if procs > 1:
            place(0)
        for slot in range(1, procs):
            report, sink = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(report)
                    place(slot)
                    with open(sink, "wb") as fh:  # an orphan stops pulling points
                        pickle.dump(share(lambda: os.getppid() == parent), fh)
                    code = 0
                finally:
                    os._exit(code)  # no atexit handler, buffer flush or traceback
            os.close(sink)
            children.append((pid, report))
        reports.append(share())
    finally:
        while os.read(tasks, 4096):  # a failed fork or an interrupt stops the children
            pass
        os.close(tasks)
        for pid, report in children:
            with open(report, "rb") as fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code == 0:
                reports.append(pickle.loads(data))
            else:
                lost.append(f"worker process {pid} "
                            + (f"was killed by signal {-code}" if code < 0
                               else f"exited with status {code}"))
    results, failed = {}, {}
    for done, failure in reports:
        results.update(done)
        failed.update(failure)
    unreported = min(set(range(n)) - results.keys() - failed.keys(), default=n)
    if lost and min(failed, default=n) >= unreported:  # no lower failure reported
        raise ChildProcessError(lost[0])
    if failed:
        raise failed[min(failed)]
    return [results[i] for i in range(n)]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity outside Linux
        return os.cpu_count() or 1


def cmd_energy_scan(args) -> int:
    from . import fock  # noqa: F401  before _map_points forks: no worker imports it

    systems = _scan_grid(args)
    results = _map_points(_energy_scan_point,
                          [(params, args.dim, args.kicks) for params in systems],
                          args.threads or _usable_cpus())
    rows, unsafe_points = [], []
    for idx, (params, (crossings, unsafe)) in enumerate(zip(systems, results)):
        k50, k200 = (UNREACHED if c is None else c for c in crossings)
        rows.append((params.eta_sq, k50, k200))
        if unsafe:
            unsafe_points.append(idx)
    cfg = _config_echo(args, ["q", "r", "kappa", "dim", "kicks",
                              "scan-min", "scan-max", "scan-points"])
    extra = [f"targets={output.fmt(ENERGY_TARGETS[0])},{output.fmt(ENERGY_TARGETS[1])} "
             f"sentinel={UNREACHED}"]
    if unsafe_points:
        extra.append("warning: truncation-unsafe points (indices): "
                     + ",".join(map(str, unsafe_points)))
        print(f"kho energy-scan: {len(unsafe_points)} truncation-unsafe points",
              file=sys.stderr)
    output.write_csv(args.out, "energy-scan", cfg,
                     ["eta_sq", "kicks_to_50", "kicks_to_200"], rows, extra)
    return EXIT_TRUNCATION if unsafe_points else EXIT_OK


def _spectrum_point(payload):
    from . import fock

    params, dim = payload
    res = fock.quasienergy_spectrum(params, dim)
    return [(params.eta_sq, phi, overlap)
            for phi, overlap in zip(res.phi.tolist(), res.ground_overlap.tolist())]


def cmd_spectrum(args) -> int:
    from . import fock  # noqa: F401  before _map_points forks: no worker imports it

    payloads = [(params, args.dim) for params in _scan_grid(args)]
    rows = [row for point_rows in _map_points(_spectrum_point, payloads,
                                              args.threads or _usable_cpus())
            for row in point_rows]
    cfg = _config_echo(args, ["q", "r", "kappa", "dim",
                              "scan-min", "scan-max", "scan-points"])
    output.write_csv(args.out, "spectrum", cfg, ["eta_sq", "phi", "ground_overlap"], rows)
    return EXIT_OK


def _resonance_json(q_min: int, q_max: int):
    """json.dumps(table, indent=2) + "\n" of the q = q_min..q_max table, one
    q per chunk, so no more than one q's z_n is held at a time.  Nothing is
    yielded before the first q passes model's checks, and every later q
    passes them too, so a bad --q-min writes nothing."""
    sep = "{\n"
    for q in range(q_min, q_max + 1):
        entry = asdict(model.resonant_values(q))
        entry["z_values"] = model.z_values(q)
        yield f'{sep}  "{q}": ' + json.dumps(entry, indent=2).replace("\n", "\n  ")
        sep = ",\n"
    yield "\n}\n"


def cmd_resonances(args) -> int:
    if args.q_min > args.q_max:
        raise ValueError(f"--q-min {args.q_min} exceeds --q-max {args.q_max}")
    chunks = _resonance_json(args.q_min, args.q_max)
    if args.out is not None:
        output._write(args.out, chunks)
    else:
        sys.stdout.writelines(chunks)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify  # before _map_points forks: no worker imports it

    # its eta^2 groups on every usable CPU, at most one process per group
    checks = verify.run(args.verify_level,
                        lambda fn, groups: _map_points(fn, groups, _usable_cpus()))
    for c in checks:
        print(c.line())
    n_fail = sum(not c.passed for c in checks)
    print(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return EXIT_VERIFY if n_fail else EXIT_OK


_HANDLERS = {
    "evolve": cmd_evolve,
    "qfunc": cmd_qfunc,
    "energy-scan": cmd_energy_scan,
    "spectrum": cmd_spectrum,
    "resonances": cmd_resonances,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with output.all_or_nothing():  # a failed run leaves no output behind
            return _HANDLERS[args.command](args)
    # bad input, an output path that cannot be written, or a basis or grid
    # too big for memory (numpy's MemoryError names the allocation it failed)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"kho: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
