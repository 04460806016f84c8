"""Flat-file emission: CSV with versioned `#` headers, and kho's one write path.

All floats are written with 17 significant digits so emitted values
round-trip exactly; identical run configurations produce byte-identical
files.  `_write` opens every file kho writes and `make_dirs` makes every
directory it needs.  Inside an `all_or_nothing()` block both record what
they create, and a block that raises removes it.  Only regular files are
recorded: a device or FIFO named as an output is written to, never removed.
The module imports no numpy, so `kho resonances` writes through it too.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import stat

SCHEMA_VERSION = 1

# (remove, path) for each file written and directory made in an all_or_nothing()
# block; unset outside one, where _MADE.get([]) hands out a list that is dropped
_MADE: contextvars.ContextVar[list] = contextvars.ContextVar("kho_output_made")


@contextlib.contextmanager
def all_or_nothing():
    """Within the block, record each regular file written and directory made;
    if the block raises, remove them, last first.  A removal that fails is
    skipped, so the block's own error is the one that propagates."""
    made = []
    token = _MADE.set(made)
    try:
        yield
    except BaseException:
        for remove, path in reversed(made):
            with contextlib.suppress(OSError):
                remove(path)
        raise
    finally:
        _MADE.reset(token)


def _write(path, text: str) -> None:
    """Write text to path: the one place kho opens a file for writing."""
    with open(path, "w") as fh:
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            _MADE.get([]).append((os.remove, path))
        fh.write(text)


def make_dirs(path) -> None:
    """os.makedirs(path, exist_ok=True), recording each directory it creates."""
    head = os.path.dirname(path.rstrip(os.sep))
    if head and not os.path.exists(head):
        make_dirs(head)
    if not os.path.isdir(path):
        os.mkdir(path)
        _MADE.get([]).append((os.rmdir, path))


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
    lines += [f"# {h}" for h in extra_header or ()]
    lines.append(",".join(columns))
    lines += [_row(row) for row in rows]
    _write(path, "\n".join(lines) + "\n")


def write_qgrid(path, config: dict, grid, extra_header: list[str] | None = None) -> None:
    """Q values of a fock.QGrid as a CSV matrix, one row per imaginary-axis sample."""
    window = (f"window: re_min={fmt(grid.re_min)} re_max={fmt(grid.re_max)} "
              f"im_min={fmt(grid.im_min)} im_max={fmt(grid.im_max)} "
              f"n_re={grid.values.shape[1]} n_im={grid.values.shape[0]}")
    lines = header_lines("qfunc", config) + [f"# {window}"]
    lines += [f"# {h}" for h in extra_header or ()]
    lines += [_row(row.tolist()) for row in grid.values]
    _write(path, "\n".join(lines) + "\n")
