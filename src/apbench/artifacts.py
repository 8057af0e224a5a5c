"""CSV artifacts of an experiment file's results.

write_artifacts writes each variant's learning curve (_mse.csv), mean final
weights (_weights.csv) and magnitude responses (_freqresp.csv), then one
summary.csv; _write_files writes the long files in forked child processes.
"""

from __future__ import annotations

import itertools
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .signals import _responses_db

if TYPE_CHECKING:
    from .cli import ExperimentFile, VariantResult

__all__ = ["write_artifacts"]


# rows formatted and written at a time: only one chunk of each column is
# ever converted to Python objects, so writing adds little to peak memory
CHUNK_ROWS = 4096
# files of at least this many rows are written by forked child processes:
# such an _mse.csv takes about 40 ms to format and write (0.6 us per row),
# a fork and wait of a long run's process about 5 ms
PARALLEL_ROWS = 16 * CHUNK_ROWS
# shorter chunks skip the bulk path: its fixed cost of about 0.2 ms per chunk
# is more than % formatting costs below it
BULK_MIN_ROWS = 256


def _write_columns(path: Path, header: list[str], row_format: str, columns) -> None:
    """Write equally long columns as a CSV file, one ``row_format % row`` per line.

    Columns are numpy arrays or Python sequences (ranges, lists). Floats go
    through ``%.17g``, which is exactly ``format(float(v), ".17g")``, nan,
    inf and -0 included. Numbers never need CSV quoting; text columns hold
    the fields of _csv_text.

    Two paths write the same bytes. A chunk of at least BULK_MIN_ROWS rows
    in a format of only ``%d`` and ``%.17g`` fields goes through _bulk_rows,
    which formats int cells in [0, 1e8) and float64 cells with
    1e-3 <= |v| < 2**52 with numpy. Every other row is ``row_format % row``,
    formatted as bytes.
    """
    line = (row_format + "\n").encode()
    fields = row_format.split(",")
    bulk = all(field in _FIELD_WORDS for field in fields)
    rows = len(columns[0]) if columns else 0
    with open(path, "wb") as f:
        f.write((",".join(header) + "\n").encode())
        for start in range(0, rows, CHUNK_ROWS):
            chunk = [c[start:start + CHUNK_ROWS] for c in columns]
            if bulk and len(chunk[0]) >= BULK_MIN_ROWS:
                f.write(_bulk_rows(line, fields, chunk))
            else:
                f.write(_rows(line, chunk))


def _rows(line: bytes, columns) -> bytes:
    cells = (c.tolist() if isinstance(c, np.ndarray) else c for c in columns)
    return b"".join(map(line.__mod__, zip(*cells)))


# The bulk path writes each cell as NUL-padded text in whole uint64 words,
# then deletes the NUL bytes. _WORDS[g] holds the four ASCII digits of
# 0 <= g < 10**4 at its even bytes and NUL at its odd ones, so a byte after
# each digit is free for a decimal point.
_WORDS = np.zeros((10**4, 8), np.uint8)
_WORDS[:, ::2] = (np.arange(10**4, dtype=np.uint16)[:, None]
                  // np.array([1000, 100, 10, 1], np.uint16) % 10 + ord("0"))
_TRAILING_ZEROS = (_WORDS[:, 6::-2] == ord("0")).cumprod(axis=1, dtype=np.uint8).sum(
    axis=1, dtype=np.uint8)  # 4 for 0
_WORDS = _WORDS.view(np.uint64).ravel()
# words per cell: a %d cell is two groups of digits; a %.17g cell holds the
# sign at byte 0, the "0.", "0.0" or "0.00" of an exponent -1 to -3 at
# bytes 1-4, and a leading group whose lone digit (digit 0 of 17) is at
# byte 6. Digit j is at byte 6 + 2j and the point after it at 7 + 2j. A
# cell's last byte holds the ',' or newline after it.
_FIELD_WORDS = {"%d": 2, "%.17g": 5}
_INT_KEEP = np.zeros((8, 16), np.uint8)  # by digit count - 1: keep no leading zero
_INT_KEEP[:, ::2] = 255 * (np.arange(8) >= 7 - np.arange(8)[:, None])
_INT_KEEP = _INT_KEEP.view(np.uint64)
_INT_BOUNDS = 10 ** np.arange(1, 8)
_FLOAT_KEEP = np.zeros((18, 40), np.uint8)  # by digits kept
_FLOAT_KEEP[:, 6::2] = 255 * (np.arange(17) < np.arange(18)[:, None])
_FLOAT_KEEP = _FLOAT_KEEP.view(np.uint64)
# by 38 * point + 2 * (exponent + 3) + negative
_FLOAT_MARKS = np.zeros((2, 19, 2, 40), np.uint8)
_FLOAT_MARKS[:, :, 1, 0] = ord("-")
_FLOAT_MARKS[:, :3, :, 1] = ord("0")
_FLOAT_MARKS[:, :3, :, 2] = ord(".")
_FLOAT_MARKS[:, :2, :, 3] = ord("0")
_FLOAT_MARKS[:, :1, :, 4] = ord("0")
_FLOAT_MARKS[1, np.arange(3, 19), :, 7 + 2 * np.arange(16)] = ord(".")
_FLOAT_MARKS = _FLOAT_MARKS.reshape(76, 40).view(np.uint64)
_POW5 = 5 ** np.arange(20, dtype=np.uint64)


def _bulk_rows(line: bytes, fields: list[str], columns) -> bytes:
    """The rows of ``line % row``, for a line of only %d and %.17g fields."""
    arrays = [np.arange(c.start, c.stop, c.step) if isinstance(c, range) else np.asarray(c)
              for c in columns]
    if not all(a.dtype.kind in "iu" if field == "%d" else a.dtype == np.float64
               for field, a in zip(fields, arrays)):
        return _rows(line, columns)
    words, inside = _bulk_words(fields, arrays)
    rows = memoryview(words).cast("B")
    width = rows.nbytes // len(words)
    # a row with a cell outside takes the % text in its place
    for i in [] if inside.all() else np.flatnonzero(~inside).tolist():
        row = line % tuple(a[i].item() for a in arrays)
        if len(row) > width:  # only ints of 16 or more characters overflow
            return _rows(line, columns)
        rows[i * width:(i + 1) * width] = row.ljust(width, b"\0")
    return rows.tobytes().translate(None, b"\0")


def _bulk_words(fields: list[str], arrays):
    """Every row as NUL-padded text in words, and whether all its cells are inside."""
    n = len(arrays[0])
    ends = list(itertools.accumulate(_FIELD_WORDS[field] for field in fields))
    words = np.empty((n, ends[-1]), np.uint64)
    inside = np.ones(n, bool)
    # the fields of one kind are formatted together, as one column
    for kind, cells_of in (("%d", _int_text), ("%.17g", _float_text)):
        which = [i for i, field in enumerate(fields) if field == kind]
        if not which:
            continue
        if kind == "%d":
            values = np.stack([arrays[i].astype(np.int64) for i in which])
            ok = (values >= 0) & (values < 10**8)
        else:
            values = np.stack([arrays[i] for i in which])
            magnitude = np.abs(values)
            ok = (magnitude >= 1e-3) & (magnitude < 2.0**52)
        inside &= ok.all(axis=0)
        cells = cells_of(np.where(ok, values, 1).ravel())
        for j, i in enumerate(which):
            words[:, ends[i] - _FIELD_WORDS[kind]:ends[i]] = cells[j * n:(j + 1) * n]
    text = words.view(np.uint8)
    for end in ends:
        text[:, 8 * end - 1] = ord(",")
    text[:, -1] = ord("\n")
    return words, inside


def _int_text(v):
    """The two words of each 0 <= v < 1e8."""
    high = v // 10**4
    cells = _WORDS.take(np.stack([high, v - high * 10**4])).T
    cells &= _INT_KEEP.take(np.searchsorted(_INT_BOUNDS, v, side="right"), axis=0)
    return cells


def _float_text(v):
    """The five words of ``%.17g`` of each 1e-3 <= |v| < 2**52.

    That is the 17 significant digits D of |v|, rounded half to even, times
    10**(k - 16) for k = floor(log10 |v|) (-3 to 15), in fixed notation
    without trailing fractional zeros.
    """
    fraction, exponent = np.frexp(np.abs(v))
    m = (fraction * 2.0**53).astype(np.uint64)  # |v| = m / 2**s, m < 2**53, 1 <= s <= 62
    s = 53 - exponent
    # floor(log10 |v|), or one off near a power of ten
    k = np.clip(np.floor(np.log10(np.abs(v))), -3, 15).astype(np.int64)
    digits, up = _scaled_floor(m, s, k)
    off = (digits < 10**16).astype(np.int64) - (digits >= 10**17)
    if off.any():
        k -= off
        digits, up = _scaled_floor(m, s, k)
    # no rounding reaches 10**17: that takes |v| within 5e-18 (relative) below
    # a power of ten, and below each one in the domain the nearest double is
    # at least 8e-17 away
    digits += up

    groups = np.empty((5, len(v)), np.int64)  # of 1, 4, 4, 4 and 4 digits
    for i in (4, 3, 2, 1):
        quotient = digits // 10**4
        groups[i] = digits - quotient * 10**4
        digits = quotient
    groups[0] = digits
    cells = _WORDS.take(groups).T
    zeros = np.zeros(len(v), np.int64)  # trailing zeros of D
    run = np.ones(len(v), bool)
    for trailing in _TRAILING_ZEROS.take(groups[:0:-1]):
        zeros += run * trailing
        run &= trailing == 4
    keep = np.maximum(17 - zeros, k + 1)  # no digit before the point is dropped
    cells &= _FLOAT_KEEP.take(keep, axis=0)
    cells |= _FLOAT_MARKS.take(38 * (keep > k + 1) + 2 * (k + 3) + (v < 0), axis=0)
    return cells


def _scaled_floor(m, s, k):
    """floor(m * 10**(16 - k) / 2**s) as int64, and whether rounding half to even adds 1.

    m * 5**(16 - k) is below 2**100, built exactly in a high and a low
    uint64 word from 32-bit halves, and shifted right by s - (16 - k), which
    is 0 to 46 for the k that _float_text tries.
    """
    j = 16 - k
    c = _POW5.take(j)
    r = (s - j).astype(np.uint64)
    one, half_word = np.uint64(1), np.uint64(32)
    m_high, m_low = m >> half_word, m & np.uint64(2**32 - 1)
    c_high, c_low = c >> half_word, c & np.uint64(2**32 - 1)
    low = m_low * c_low
    middle = m_low * c_high + m_high * c_low
    lo = low + (middle << half_word)
    hi = m_high * c_high + (middle >> half_word) + (lo < low)
    q = (lo >> r) | ((hi << one) << (np.uint64(63) - r))  # two shifts, as r may be 0
    unit = one << r
    twice_rest = (lo & (unit - one)) << one
    up = (twice_rest > unit) | ((twice_rest == unit) & (q & one).astype(bool))
    return q.view(np.int64), up


def _csv_text(text: str) -> bytes:
    """``text`` as a UTF-8 CSV field, quoted exactly where csv.writer would quote it."""
    if any(c in text for c in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text.encode()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # the platform cannot restrict a process to some CPUs
        return os.cpu_count() or 1


def _write_files(files) -> None:
    """Write each _write_columns argument tuple of ``files``, the long ones in forked children.

    A file of at least PARALLEL_ROWS rows is queued for a child when os.fork
    exists and more than one CPU is usable; every other file is written here
    at once. Children are forked in queue order, at most one per usable CPU.
    A child inherits the columns through fork (nothing is copied or pickled),
    does no BLAS work, and reports a failure's text through a pipe. On an
    error, from ``files`` or a write, the queue is dropped and the running
    children are reaped; at the end one OSError names every file a child
    failed to write.
    """
    slots = _usable_cpus() if hasattr(os, "fork") else 1
    queued, running, failures = [], [], []  # running: (pid, pipe read end, path), oldest first

    def fork_queued():
        while queued and len(running) < slots:
            job = queued.pop(0)
            # a child inherits unflushed output, and would repeat it if it wrote
            # to the same stream (a warning, say)
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare (EAGAIN): write the file here
                os.close(read_end)
                os.close(write_end)
                _write_columns(*job)
                continue
            if pid == 0:
                _write_in_child(job, read_end, write_end)
            os.close(write_end)
            running.append((pid, read_end, job[0]))

    def reap_oldest():
        pid, read_end, path = running.pop(0)
        try:
            with open(read_end, "rb") as pipe:
                message = pipe.read().decode(errors="replace")
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status or message:
            failures.append(
                f"cannot write {path}: {message or f'writer process exited with {status}'}")

    try:
        for job in files:  # (path, header, row_format, columns)
            if slots > 1 and job[3] and len(job[3][0]) >= PARALLEL_ROWS:
                queued.append(job)
                fork_queued()
            else:
                _write_columns(*job)
        while running:
            reap_oldest()
            fork_queued()
    finally:
        queued.clear()
        while running:
            reap_oldest()
    if failures:
        raise OSError("; ".join(failures))


def _write_in_child(job, read_end: int, write_end: int) -> None:
    """A forked child's whole life: write one file, report a failure, exit.

    The child never returns into its caller's frames, whatever it raised:
    the parent raises the reported text as OSError, naming the file.
    """
    status = 1
    try:
        os.close(read_end)
        _write_columns(*job)
        status = 0
    except BaseException as exc:  # noqa: BLE001 - reported, then the finally exits
        os.write(write_end, (str(exc) or type(exc).__name__).encode(errors="replace"))
    finally:
        os._exit(status)


def write_artifacts(spec: ExperimentFile, results: list[VariantResult], out_dir: Path) -> None:
    """Write the variants' CSV files and summary.csv into ``out_dir``.

    Every file goes through _write_columns, in this process or in a child
    that _write_files forked, so its bytes depend on the results alone.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    h = spec.plant.h
    w_means = [res.ensemble.final_weights_mean for res in results]
    # every response is evaluated in one call before a child is forked: the
    # plant and every variant share one grid and its phase matrices, and no
    # child competes with the evaluation for a CPU
    omegas, (plant_db, *magnitudes_db) = _responses_db([h, *w_means], spec.freq_points)
    omegas_over_pi = omegas / np.pi

    def files():
        # the traces first: their files are the long ones that children write
        for res in results:
            trace = res.ensemble.trace.values_db
            yield (out / f"{res.name}_mse.csv",
                   ["iteration", "mse_db", "smoothed_mse_db"], "%d,%.17g,%.17g",
                   [range(len(trace)), trace, res.smoothed_db])

        for res, w_mean, magnitude_db in zip(results, w_means, magnitudes_db):
            taps = max(w_mean.shape[0], h.shape[0])
            yield (out / f"{res.name}_weights.csv",
                   ["tap_index", "adaptive_weight", "plant_weight"], "%d,%.17g,%.17g",
                   [range(taps)] + [np.pad(v, (0, taps - v.shape[0])) for v in (w_mean, h)])
            yield (out / f"{res.name}_freqresp.csv",
                   ["omega_over_pi", "magnitude_db", "plant_magnitude_db"], "%.17g,%.17g,%.17g",
                   [omegas_over_pi, magnitude_db, plant_db])
        summary = [(_csv_text(res.name), res.final_smoothed_db, res.tm.t_m, res.misalignment_db,
                    res.total_multiplies_literal, res.total_multiplies_corrected)
                   for res in results]
        yield (out / "summary.csv",
               ["algorithm", "final_smoothed_mse_db", "t_m", "misalignment_db",
                "total_multiplies_literal", "total_multiplies_corrected"],
               "%s,%.17g,%d,%.17g,%d,%d", list(zip(*summary)))

    _write_files(files())
