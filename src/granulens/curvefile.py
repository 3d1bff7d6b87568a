"""Reading and writing sweep curves as CSV files.

Values are printed with 9 decimal places (round-half-even, "." separator,
locale-independent), which is also the precision contract for round-trips.
"""

from __future__ import annotations

import errno
import os
import stat

from .errors import DataError
from .reader import convert_cells, encoded, line_of, read_columns
from .sweep import SweepCurve, SweepPoint

CURVE_HEADER = ["bits_level", "block_count", "conditional_bits",
                "normalized_conditional", "boundary_fraction", "gamma"]


def fmt(x: float) -> str:
    return f"{x:.9f}"


def write_atomic(path: str, data: str) -> None:
    """Write to a temp file beside the target, then rename: no partial outputs. As a
    plain write does, write through a symlink, create a file 0o666 under the umask and
    keep an existing file's permission bits; refuse a target that is neither a file nor
    a directory, or ''. An OSError names ``path``, never the temp file, which is removed."""
    if not path:  # as open('') does: realpath('') would be the working directory
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    real = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(real), f".granulens-tmp-{os.urandom(8).hex()}")
    try:
        mode = os.stat(real).st_mode if os.path.exists(real) else None
        if mode is not None and stat.S_IFMT(mode) not in (stat.S_IFREG, stat.S_IFDIR):
            raise OSError(errno.EINVAL, "Not a regular file")
        with open(tmp, "x") as fh:  # created 0o666 under the umask
            if mode is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(mode))
            fh.write(data)
        os.replace(tmp, real)  # onto a directory: [Errno 21] Is a directory
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def curve_to_csv(curve: SweepCurve) -> str:
    return ",".join(CURVE_HEADER) + "\n" + "".join(  # no field of a curve needs CSV quoting
        f"{p.bits_level},{p.block_count},{fmt(p.conditional_bits)},"
        f"{fmt(p.normalized_conditional)},{fmt(p.boundary_fraction)},{fmt(p.gamma)}\n"
        for p in curve.points)


def write_curve(curve: SweepCurve, path: str) -> None:
    write_atomic(path, curve_to_csv(curve))


def read_curve(csv_data: str, table_id: str = "") -> SweepCurve:
    header, cells, blanks, ragged = read_columns(encoded(csv_data))
    if header is None:
        raise DataError("empty curve file")
    if header != CURVE_HEADER:
        raise DataError(f"unexpected curve header {header!r}")
    if ragged is not None:
        raise DataError(f"ragged curve row at line {ragged[0]}")
    columns = []
    for name, convert, column in zip(CURVE_HEADER, (int, int) + (float,) * 4, cells):
        values, bad = convert_cells(convert, column)
        if bad is not None:
            raise DataError(f"curve column {name!r} has unparsable cell "
                            f"{column[bad]!r} at line {line_of(bad, blanks)}")
        columns.append(values)
    points = list(map(SweepPoint, *columns))
    if not points:
        raise DataError("curve file has no points")
    levels = [p.bits_level for p in points]
    if levels != sorted(set(levels)):
        raise DataError("curve rows must be ordered by strictly increasing bits_level")
    return SweepCurve(points, attrs=(), table_id=table_id)
