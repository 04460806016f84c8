"""Flat-file emission: CSV with versioned `#` headers, and kho's one write path.

All floats are written with 17 significant digits so emitted values
round-trip exactly; identical run configurations produce byte-identical
files.  `_write` opens every file kho writes and `make_dirs` makes every
directory it needs.  A file is written to a temporary file beside its
target and renamed into place, so a target is never seen part-written.
Inside an `all_or_nothing()` block a file it replaces is first moved aside;
a block that raises removes what it wrote and made and moves every replaced
file back, and a block that succeeds removes the old files.  A device or
FIFO named as an output is written in place, never renamed or removed.  The
module imports no numpy, so `kho resonances` writes through it too.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import stat

SCHEMA_VERSION = 1

# (undo, *args) for each file written and directory made in an all_or_nothing()
# block; unset outside one, where make_dirs's _MADE.get([]) gets a list that is dropped
_MADE: contextvars.ContextVar[list] = contextvars.ContextVar("kho_output_made")


def _restore(old, path) -> None:
    """Undo a replacement: the old file, moved aside to `old`, goes back."""
    os.replace(old, path)


@contextlib.contextmanager
def all_or_nothing():
    """Within the block, record each file written and directory made.  If the
    block raises, undo them, last first: a new file or directory is removed,
    a replaced file gets its old content back.  A step that fails is skipped,
    so the block's own error is the one that propagates.  If the block
    succeeds, the old files are removed."""
    made = []
    token = _MADE.set(made)
    try:
        yield
    except BaseException:
        for undo, *args in reversed(made):
            with contextlib.suppress(OSError):
                undo(*args)
        raise
    finally:
        _MADE.reset(token)
    for undo, *args in made:
        if undo is _restore:
            with contextlib.suppress(OSError):
                os.remove(args[0])


def _write(path, text) -> None:
    """Write text, a string or an iterable of strings written in turn, to
    path: the one place kho opens a file for writing.  The new file takes a
    replaced file's permission bits; through a symlink, the file it names is
    replaced."""
    chunks = (text,) if isinstance(text, str) else text
    target = os.path.realpath(path)
    try:
        st = os.stat(target)
    except OSError:
        st = None  # a new file; a path that cannot be written fails below
    # "dir/" names no regular file: open() raises its error (EISDIR, ENOTDIR)
    if path.endswith(os.sep) or (st is not None and not stat.S_ISREG(st.st_mode)):
        with open(path, "w") as fh:
            for chunk in chunks:
                fh.write(chunk)
        return
    head, name = os.path.split(target)
    tmp, old = (os.path.join(head, f".{name}.{os.getpid()}.{ext}") for ext in ("tmp", "old"))
    try:
        fh = open(tmp, "x")
    except OSError as exc:  # named by the path asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    made = _MADE.get(None)
    try:
        with fh:
            if st is not None:
                os.chmod(tmp, stat.S_IMODE(st.st_mode))
            for chunk in chunks:
                fh.write(chunk)
        if made is not None and st is not None:
            os.replace(target, old)
            made.append((_restore, old, target))
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    if made is not None and st is None:
        made.append((os.remove, target))


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
