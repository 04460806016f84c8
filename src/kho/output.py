"""Flat-file emission: CSV with versioned `#` headers, JSON state dumps.

All floats are written with 17 significant digits so emitted values
round-trip exactly; identical run configurations produce byte-identical
files.
"""

from __future__ import annotations

import json

import numpy as np

from .fock import FockVector, QGrid

SCHEMA_VERSION = 1


#: one number as text: .17g prints floats to round-trip, ints below 1e17 as integers
fmt = "{:.17g}".format


def _row(values) -> str:
    """One CSV row."""
    return ",".join(map(fmt, values))


def header_lines(subcommand: str, config: dict) -> list[str]:
    items = " ".join(f"{k}={config[k]}" for k in sorted(config))
    return [f"# kho-csv v{SCHEMA_VERSION} subcommand={subcommand}", f"# config: {items}"]


def write_csv(path, subcommand: str, config: dict, columns: list[str], rows,
              extra_header: list[str] | None = None) -> None:
    lines = header_lines(subcommand, config)
    if extra_header:
        lines += [f"# {h}" for h in extra_header]
    lines.append(",".join(columns))
    lines += [_row(row) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_energy_trace(path, config: dict, energies: np.ndarray,
                       extra_header: list[str] | None = None) -> None:
    rows = enumerate(energies.tolist())
    write_csv(path, "evolve", config, ["kick", "mean_energy"], rows, extra_header)


def write_qgrid(path, config: dict, grid: QGrid,
                extra_header: list[str] | None = None) -> None:
    """Q values as a CSV matrix, one row per imaginary-axis sample."""
    window = (f"window: re_min={fmt(grid.re_min)} re_max={fmt(grid.re_max)} "
              f"im_min={fmt(grid.im_min)} im_max={fmt(grid.im_max)} "
              f"n_re={grid.values.shape[1]} n_im={grid.values.shape[0]}")
    lines = header_lines("qfunc", config) + [f"# {window}"]
    if extra_header:
        lines += [f"# {h}" for h in extra_header]
    lines += [_row(row.tolist()) for row in grid.values]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_energy_scan(path, config: dict, rows, extra_header=None) -> None:
    write_csv(path, "energy-scan", config,
              ["eta_sq", "kicks_to_50", "kicks_to_200"], rows, extra_header)


def write_spectrum(path, config: dict, rows) -> None:
    write_csv(path, "spectrum", config, ["eta_sq", "phi", "ground_overlap"], rows)


def fock_state_json(state: FockVector) -> str:
    return json.dumps({
        "schema": SCHEMA_VERSION,
        "dim": state.dim,
        "amps": [[a.real, a.imag] for a in state.amps],
    })
