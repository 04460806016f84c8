"""Self-tests of the benchmark: every workload prints every metric, and the
correctness gate fires on broken output.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these out of the repository's own test run; each
workload runs once at its smallest size, about a minute in all.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smallest_run_prints_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0",
                  "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(tmp_path, "--workload", "butterfly", "--seed", "0", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_seed_zero_is_the_paper_grid():
    assert workloads.seeded_range("kick-scan", 0, 0.4, 1.6, 0.02) == ("0.4*pi", "1.6*pi")
    wl = workloads.build("kick-scan", 0)
    lo, hi = (workloads._eta2_value(s) for s in wl.invocations[0].scan)
    mid = lo + (hi - lo) / 2
    assert math.isclose(mid, math.pi, rel_tol=1e-15)
    assert workloads.build("kick-scan", 7) == workloads.build("kick-scan", 7)
    assert workloads.build("kick-scan", 7) != workloads.build("kick-scan", 8)


# ---------------------------------------------------------------------------
# the gate


SPECTRUM_INV = workloads.spectrum_invocation(("0.2*pi", "1.8*pi"), 2)


def _spectrum_lines() -> list[str]:
    """A well-formed two-point spectrum CSV at D=500."""
    d = workloads.DIM
    lines = ["# kho-csv v1 subcommand=spectrum", "# config: dim=500", "eta_sq,phi,ground_overlap"]
    for eta in (0.2 * math.pi, 1.8 * math.pi):
        for i in range(d):
            phi = -math.pi + 2 * math.pi * (i + 1) / d
            lines.append(f"{eta:.17g},{phi:.17g},{1.0 / d:.17g}")
    return lines


def _spectrum_failures(lines: list[str]) -> int:
    return workloads.check_spectrum("\n".join(lines) + "\n", SPECTRUM_INV).failed


def test_gate_accepts_a_good_spectrum():
    assert _spectrum_failures(_spectrum_lines()) == 0


def test_gate_rejects_a_dropped_spectrum_row():
    lines = _spectrum_lines()
    del lines[10]
    assert _spectrum_failures(lines) == 1


def test_gate_rejects_an_overlap_sum_off_by_1e_3():
    lines = _spectrum_lines()
    eta, phi, overlap = lines[10].split(",")
    lines[10] = f"{eta},{phi},{float(overlap) + 1e-3:.17g}"
    assert _spectrum_failures(lines) == 1


def test_gate_rejects_a_parallel_csv_one_byte_off():
    serial = "\n".join(_spectrum_lines()) + "\n"
    assert workloads.check_same_bytes(serial, serial).failed == 0
    first_row = serial.index("\n", serial.index("eta_sq")) + 1
    pos = serial.index("\n", first_row) - 1  # last digit of its ground overlap
    flipped = serial[:pos] + ("0" if serial[pos] != "0" else "1") + serial[pos + 1:]
    assert workloads.check_same_bytes(serial, flipped).failed == 1


def test_gate_rejects_a_wrong_resonant_kick_count():
    inv = workloads.energy_scan_invocation(("0.4*pi", "1.6*pi"), 3)
    head = ["# kho-csv v1 subcommand=energy-scan", "eta_sq,kicks_to_50,kicks_to_200"]
    rows = [f"{0.4 * math.pi:.17g},117,276", f"{math.pi:.17g},45,89",
            f"{1.6 * math.pi:.17g},161,-1"]
    good = "\n".join(head + rows) + "\n"
    assert workloads.check_energy_scan(good, inv).failed == 0
    assert workloads.check_energy_scan(good.replace(",45,89", ",45,90"), inv).failed == 1
    assert workloads.check_energy_scan(good.replace(",117,276", ",300,276"), inv).failed == 1


def test_gate_rejects_bytes_that_differ_between_repeats():
    reference: dict[str, bytes] = {}
    first = workloads.GateResult([workloads.Op("p", True, b"abc")])
    again = workloads.GateResult([workloads.Op("p", True, b"abd")])
    workloads.compare_repeats(reference, first)
    workloads.compare_repeats(reference, again)
    assert first.failed == 0 and again.failed == 1


def test_gate_rejects_an_unexpected_exit_code():
    result = workloads.gate(SPECTRUM_INV, 1, "", Path("missing"))
    assert result.failed == SPECTRUM_INV.points
