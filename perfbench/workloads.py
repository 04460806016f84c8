"""Workload definitions and the correctness gate for the kho benchmark.

A workload is a fixed list of `kho` CLI invocations.  Its eta^2 grids (or,
for phase-space, the initial coherent amplitude) come from the seed: seed 0
is the paper's grid, which holds eta^2 = pi exactly; any other seed shifts
the grid by less than half of the paper's grid step, so the work per point
stays close to the paper's while the inputs differ.

The gate turns each invocation's exit code and output into operations (one
per scan point, Husimi panel or verify check), each either passed or
failed.  Every operation also carries the bytes it produced, so the runner
can fail an operation whose bytes differ from another repeat.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field

DIM = 500
QFUNC_PANELS = ("eta2-pi_N36", "eta2-pi_N108", "eta2-phipi_N36", "eta2-phipi_N108")
QFUNC_RES = 101
RESONANT_KICKS = (45, 89)  # kicks to 50 and 200 at eta^2 = pi, D=500 and D=1000 alike
OVERLAP_SUM_TOL = 1e-6

WORKLOADS = ("butterfly", "kick-scan", "phase-space")


@dataclass(frozen=True)
class Invocation:
    """One `kho` run: CLI arguments (without --out) and how to gate it."""

    kind: str  # spectrum | energy-scan | qfunc | verify
    argv: tuple[str, ...]
    ok_codes: frozenset[int]
    out: str | None = None  # file or directory name passed as --out
    points: int = 0  # scan points, for spectrum and energy-scan
    scan: tuple[str, str] = ("", "")  # --scan-min, --scan-max as passed


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    invocations: tuple[Invocation, ...]


@dataclass
class Op:
    """One gated operation: a scan point, a Husimi panel or a verify check."""

    key: str
    ok: bool
    blob: bytes = b""
    reason: str = ""


@dataclass
class GateResult:
    ops: list[Op] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)

    def reasons(self) -> list[str]:
        return [f"{op.key}: {op.reason}" for op in self.ops if not op.ok]


# ---------------------------------------------------------------------------
# seeded inputs


def seeded_range(workload: str, seed: int, lo: float, hi: float,
                 paper_step: float) -> tuple[str, str]:
    """--scan-min/--scan-max for `seed`, as eta^2 multiples of pi.

    Seed 0 gives the paper's symbolic bounds; other seeds shift both bounds
    by the same offset, drawn from (-paper_step/2, paper_step/2) * pi.
    """
    if seed == 0:
        return f"{lo:g}*pi", f"{hi:g}*pi"
    shift = random.Random(f"{workload}:{seed}").uniform(-0.5, 0.5) * paper_step * math.pi
    return repr(lo * math.pi + shift), repr(hi * math.pi + shift)


def seeded_alpha(seed: int) -> complex:
    """Initial coherent amplitude of the qfunc panels; 0 (the paper's) for seed 0."""
    if seed == 0:
        return 0j
    rng = random.Random(f"phase-space:{seed}")
    return complex(round(rng.uniform(-0.5, 0.5), 6), round(rng.uniform(-0.5, 0.5), 6))


def _scan(kind: str, scan: tuple[str, str], points: int, extra: tuple[str, ...],
          ok_codes: set[int], out: str) -> Invocation:
    argv = (kind, "--dim", str(DIM), "--scan-min", scan[0], "--scan-max", scan[1],
            "--scan-points", str(points)) + extra
    return Invocation(kind=kind, argv=argv, ok_codes=frozenset(ok_codes), out=out,
                      points=points, scan=scan)


def spectrum_invocation(scan: tuple[str, str], points: int, threads: int = 1) -> Invocation:
    extra = ("--threads", str(threads)) if threads > 1 else ()
    return _scan("spectrum", scan, points, extra, {0}, "spectrum.csv")


def energy_scan_invocation(scan: tuple[str, str], points: int, threads: int = 1) -> Invocation:
    extra = ("--kicks", "2000") + (("--threads", str(threads)) if threads > 1 else ())
    return _scan("energy-scan", scan, points, extra, {0, 2}, "energy_scan.csv")


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload `name` for `seed`; `smoke` gives its smallest size."""
    if name == "butterfly":
        # 5 points of the paper's 161-point grid (step 0.01*pi), pi in the middle
        scan = seeded_range(name, seed, 0.2, 1.8, 0.01)
        invs = (spectrum_invocation(scan, 2 if smoke else 5),)
    elif name == "kick-scan":
        # 13 points of the paper's 61-point grid (step 0.02*pi), pi in the middle
        scan = seeded_range(name, seed, 0.4, 1.6, 0.02)
        invs = (energy_scan_invocation(scan, 3 if smoke else 13),)
    elif name == "phase-space":
        alpha = seeded_alpha(seed)
        qargs = ("qfunc", "--dim", str(DIM))
        if alpha:
            # one token, so argparse does not read a leading minus as a flag
            qargs += (f"--alpha={alpha.real!r}{alpha.imag:+}j",)
        invs = (Invocation(kind="qfunc", argv=qargs, ok_codes=frozenset({0, 2}), out="qfunc_out"),
                Invocation(kind="verify", argv=("verify", "--verify-level", "full"),
                           ok_codes=frozenset({0})))
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return Workload(name=name, seed=seed, invocations=invs)


# ---------------------------------------------------------------------------
# the gate


def _split_csv(text: str) -> tuple[list[str], str, list[str]]:
    """(header lines, column line, data lines) of a kho CSV."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    header = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body:
        return header, "", []
    return header, body[0], body[1:]


def _expected_ops(inv: Invocation) -> list[str]:
    if inv.kind in ("spectrum", "energy-scan"):
        return [f"{inv.kind}[{i}]" for i in range(inv.points)]
    if inv.kind == "qfunc":
        return [f"qfunc[{p}]" for p in QFUNC_PANELS]
    return ["verify"]


def _all_failed(inv: Invocation, reason: str) -> GateResult:
    return GateResult([Op(key, False, reason=reason) for key in _expected_ops(inv)])


def _grid_ok(etas: list[float], inv: Invocation) -> str:
    """Empty if the eta^2 column is the requested increasing grid."""
    if len(etas) != inv.points:
        return f"{len(etas)} eta^2 points, expected {inv.points}"
    lo, hi = (_eta2_value(s) for s in inv.scan)
    if any(b <= a for a, b in zip(etas, etas[1:])):
        return "eta^2 grid not increasing"
    if not math.isclose(etas[0], lo, rel_tol=1e-12) or (
            inv.points > 1 and not math.isclose(etas[-1], hi, rel_tol=1e-12)):
        return "eta^2 grid does not span the requested range"
    return ""


def _eta2_value(text: str) -> float:
    if text.endswith("*pi"):
        return float(text[:-3]) * math.pi
    return float(text)


def check_spectrum(text: str, inv: Invocation) -> GateResult:
    """D rows per point, phases in (-pi, pi] and sorted, overlaps a distribution."""
    header, columns, rows = _split_csv(text)
    if columns != "eta_sq,phi,ground_overlap" or not header:
        return _all_failed(inv, "not a spectrum CSV")
    groups = _points(rows)
    head = ("\n".join(header) + "\n").encode()
    try:
        etas = [float(e) for e in groups]
    except ValueError:
        return _all_failed(inv, "malformed eta^2 column")
    grid_error = _grid_ok(etas, inv)
    result = GateResult()
    for i, group in enumerate(groups.values()):
        reason = grid_error or _spectrum_point_error(group)
        blob = head + ("\n".join(group) + "\n").encode()
        result.ops.append(Op(f"spectrum[{i}]", not reason, blob, reason))
    for i in range(len(groups), inv.points):
        result.ops.append(Op(f"spectrum[{i}]", False, reason="point missing"))
    return result


def _spectrum_point_error(group: list[str]) -> str:
    if len(group) != DIM:
        return f"{len(group)} rows, expected D={DIM}"
    try:
        phis, overlaps = zip(*((float(p), float(o)) for _, p, o in (r.split(",") for r in group)))
    except ValueError:
        return "malformed row"
    if not all(-math.pi < p <= math.pi for p in phis):
        return "phase outside (-pi, pi]"
    if any(b < a for a, b in zip(phis, phis[1:])):
        return "phases decrease within the point"
    if not all(0.0 <= o <= 1.0 for o in overlaps):
        return "ground overlap outside [0, 1]"
    total = math.fsum(overlaps)
    if abs(total - 1.0) > OVERLAP_SUM_TOL:
        return f"ground overlaps sum to {total!r}"
    return ""


def check_energy_scan(text: str, inv: Invocation) -> GateResult:
    """kicks_to_50 <= kicks_to_200 unless unreached; (45, 89) at eta^2 = pi."""
    header, columns, rows = _split_csv(text)
    if columns != "eta_sq,kicks_to_50,kicks_to_200" or not header:
        return _all_failed(inv, "not an energy-scan CSV")
    head = ("\n".join(header) + "\n").encode()
    try:
        parsed = [(float(e), int(a), int(b)) for e, a, b in (r.split(",") for r in rows)]
    except ValueError:
        return _all_failed(inv, "malformed rows")
    grid_error = _grid_ok([p[0] for p in parsed], inv)
    result = GateResult()
    for i, ((eta, k50, k200), row) in enumerate(zip(parsed, rows)):
        reason = grid_error
        if min(k50, k200) < -1:
            reason = reason or "kick count below the -1 sentinel"
        if -1 not in (k50, k200) and k50 > k200:
            reason = reason or f"kicks_to_50={k50} > kicks_to_200={k200}"
        if math.isclose(eta, math.pi, rel_tol=1e-12) and (k50, k200) != RESONANT_KICKS:
            reason = reason or f"resonant point gives {(k50, k200)}, expected {RESONANT_KICKS}"
        result.ops.append(Op(f"energy-scan[{i}]", not reason, head + (row + "\n").encode(), reason))
    for i in range(len(parsed), inv.points):
        result.ops.append(Op(f"energy-scan[{i}]", False, reason="point missing"))
    return result


def check_qfunc_panel(key: str, text: str | None) -> Op:
    """A panel exists, carries its riemann_sum, and holds a full finite grid."""
    if text is None:
        return Op(key, False, reason="panel file missing")
    header, first, rows = _split_csv(text)
    sums = [h for h in header if h.startswith("# riemann_sum=")]
    if len(sums) != 1:
        return Op(key, False, reason="no riemann_sum in the header")
    grid = [first] + rows
    if len(grid) != QFUNC_RES:
        return Op(key, False, reason=f"{len(grid)} grid rows, expected {QFUNC_RES}")
    for row in grid:
        try:
            vals = [float(x) for x in row.split(",")]
        except ValueError:
            vals = []
        if len(vals) != QFUNC_RES or not all(math.isfinite(v) and v >= 0.0 for v in vals):
            return Op(key, False, reason="grid row malformed, negative or not finite")
    return Op(key, True, text.encode())


_TIMING = re.compile(r" \(\d+(\.\d+)?s\)")


def check_verify(stdout: str) -> GateResult:
    """Each PASS line is one passed operation, each FAIL line one failure."""
    result = GateResult()
    for line in stdout.splitlines():
        status, _, rest = line.partition("  ")
        if status not in ("PASS", "FAIL"):
            continue
        name = rest.split(":", 1)[0]
        # the per-check timing is the one part of a line allowed to vary
        result.ops.append(Op(f"verify[{name}]", status == "PASS",
                             _TIMING.sub("", line).encode(), "" if status == "PASS" else line))
    m = re.search(r"^(\d+)/(\d+) checks passed$", stdout, re.MULTILINE)
    if not result.ops or not m or int(m.group(2)) != len(result.ops):
        result.ops.append(Op("verify[summary]", False, reason="check count missing or wrong"))
    return result


def _points(rows: list[str]) -> dict[str, list[str]]:
    """Data rows grouped by their eta^2 column, in order."""
    groups: dict[str, list[str]] = {}
    for row in rows:
        groups.setdefault(row.split(",", 1)[0], []).append(row)
    return groups


def check_same_bytes(reference: str, candidate: str) -> GateResult:
    """Parallel output against the serial output of the same flags: one
    operation per eta^2 point, failed when its rows or the header differ."""
    ref_head, ref_cols, ref_rows = _split_csv(reference)
    head, cols, rows = _split_csv(candidate)
    same_head = (ref_head, ref_cols) == (head, cols)
    ref_points, points = list(_points(ref_rows).items()), list(_points(rows).items())
    result = GateResult()
    for i in range(max(len(ref_points), len(points), 1)):
        a = ref_points[i] if i < len(ref_points) else None
        b = points[i] if i < len(points) else None
        ok = same_head and a is not None and a == b
        blob = "\n".join(b[1]).encode() if b else b""
        result.ops.append(Op(f"parallel[{i}]", ok, blob,
                             "" if ok else "differs from the serial output"))
    return result


def gate(inv: Invocation, code: int, stdout: str, out_path) -> GateResult:
    """Gate one finished invocation; out_path is the --out path (a Path)."""
    if code not in inv.ok_codes:
        return _all_failed(inv, f"exit code {code}, expected {sorted(inv.ok_codes)}")
    if inv.kind == "verify":
        return check_verify(stdout)
    if inv.kind == "qfunc":
        ops = []
        for panel in QFUNC_PANELS:
            path = out_path / f"qfunc_{panel}.csv"
            ops.append(check_qfunc_panel(f"qfunc[{panel}]",
                                         path.read_text() if path.is_file() else None))
        return GateResult(ops)
    if not out_path.is_file():
        return _all_failed(inv, "output file missing")
    check = check_spectrum if inv.kind == "spectrum" else check_energy_scan
    return check(out_path.read_text(), inv)


def compare_repeats(reference: dict[str, bytes], result: GateResult) -> None:
    """Fail every passed op whose bytes differ from the first repeat's."""
    for op in result.ops:
        if not op.ok:
            continue
        if op.key not in reference:
            reference[op.key] = op.blob
        elif reference[op.key] != op.blob:
            op.ok = False
            op.reason = "output bytes differ from an earlier repeat"
