"""Tab-separated count tables and versioned JSON model files.

The table format is one binned genomic position per row:

    chrom  bin_start  context  cov_1  meth_1  [cov_2  meth_2 ...]

with one (coverage, methylated) column pair per cell type. Replicates can be
merged at load time by summing consecutive column pairs two at a time, and a
context filter keeps only rows whose context matches (e.g. "CG").

Tables are read and written by column. The reader takes the file's bytes in
blocks of whole lines, about 256 KB each, so the bytes it holds at any time
are one block's, and each block keeps its counts in the smallest unsigned
type that holds them until the int64 columns are filled. So a load holds the
counts about once: the 5.5 MB, 262,144-row genome-ftd table of ``perfbench``
returns 4.2 MB of columns and peaks at 4.7 MB of tracemalloc'd memory (8.4 MB
when the blocks kept int64 counts). A block that is not ASCII is checked once
to be UTF-8.
A block whose lines all end in "\\n", or all in "\\r\\n", is read straight
from its bytes: one scan finds its tabs and line ends, and each numeric
field is parsed from its digit bytes, one pass per decimal place over every
row; empty lines are counted and dropped. A block with a whitespace-only
line, a lone "\\r", a field count off, a sign, a space or a number of 19 or
more digits goes to the fallback, which turns "\\r\\n" and a lone "\\r" into
"\\n" as Python's text layer does and hands the lines to numpy's text
parser, one by one only when a line is bad. Both
give the same values and errors, and check the rows with the same
whole-array masks; a context filter compares the context field's bytes.
Warm loads on a 2-core Xeon VM read genome-ftd in 27 ms, about 200 MB/s,
and a "\\r\\n" copy or one with a non-ASCII chrom in 32 ms; the fallback
reads about 60 MB/s.
The writer lays out every row's digits in one byte buffer.

Model files are JSON with an explicit schema version. Floats go through
Python's shortest-round-trip repr, so a save/load cycle reproduces every
parameter bit for bit.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ParameterError
from .model import CountSequence, HmmParams

__all__ = [
    "ModelFile",
    "SCHEMA_VERSION",
    "load_methylation_tsv",
    "write_methylation_tsv",
    "save_model",
    "load_model",
    "file_digest",
]

SCHEMA_VERSION = 1
TSV_COLUMNS = ("chrom", "bin_start", "context")
DEFAULT_BIN_SIZE = 100


def _check_bin_size(bin_size: int) -> None:
    if bin_size < 1:
        raise ParameterError(f"bin_size must be >= 1, got {bin_size}")


# bytes per read of the table reader, and so about the size of a block of
# whole lines. Warm genome-ftd loads took about the same time in blocks of
# 128, 256 and 512 KB and about 25% longer in blocks of 1 MB; a block's
# bytes and temporaries are the reader's only memory beyond the columns.
_CHUNK_BYTES = 1 << 18


def _blocks(path):
    """The bytes of a file in blocks of whole lines, each about ``_CHUNK_BYTES``.

    A block ends after its last "\\n". A stretch with no "\\n" (CR-only line
    ends) ends after its last "\\r" that has a byte after it, which is then
    a lone "\\r". So no block cuts a "\\r\\n" pair or a UTF-8 sequence, and
    only the file's last block can end without a line end. The reads of a
    block are gathered in a list and joined once, so a long line read in
    small reads costs linear time.
    """
    with open(path, "rb") as fh:
        reads = []
        while True:
            data = fh.read(_CHUNK_BYTES)
            if data:
                reads.append(data)
                if b"\n" not in data and b"\r" not in data:
                    continue
            block = b"".join(reads)
            if not data:
                if block:
                    yield block
                return
            cut = block.rfind(b"\n") + 1 or block.rfind(b"\r", 0, -1) + 1
            if cut:
                yield block[:cut]
            reads = [block[cut:]]


def _line_ends(data: bytes, end: int) -> int:
    """Line ends in ``data[:end]``, each "\\n", "\\r\\n" and lone "\\r" counted once."""
    return data.count(b"\n", 0, end) + data.count(b"\r", 0, end) - data.count(b"\r\n", 0, end)


def _check_utf8(path, block: bytes, first: int) -> None:
    """Raise :class:`DataError` naming the line of a block's first byte that is not UTF-8.

    ``first`` lines of the file come before the block.
    """
    try:
        block.decode()
    except UnicodeDecodeError as exc:
        line = first + 1 + _line_ends(block, exc.start)
        raise DataError(f"{path}:{line}: not valid UTF-8 ({exc.reason})") from exc


def _parse_header(line: str) -> int:
    fields = line.split("\t")
    if tuple(fields[:3]) != TSV_COLUMNS:
        raise DataError(
            f"header must start with {' '.join(TSV_COLUMNS)}, got {fields[:3]}"
        )
    rest = fields[3:]
    if not rest or len(rest) % 2 != 0:
        raise DataError("header must carry cov_i/meth_i column pairs")
    for idx in range(0, len(rest), 2):
        cell = idx // 2 + 1
        if rest[idx] != f"cov_{cell}" or rest[idx + 1] != f"meth_{cell}":
            raise DataError(
                f"expected columns cov_{cell} meth_{cell}, got {rest[idx]} {rest[idx + 1]}"
            )
    return len(rest) // 2


def _parse_columns(lines: list[str], num_cells: int) -> np.ndarray:
    """``bin_start`` and the count columns of lines with the right field count.

    numpy's C parser reads each field as a decimal integer with an optional
    sign and surrounding whitespace, and raises ValueError on anything else,
    including values outside int64.
    """
    width = 1 + 2 * num_cells
    if not lines:
        return np.empty((0, width), dtype=np.int64)
    return np.loadtxt(
        lines,
        dtype=np.int64,
        delimiter="\t",
        comments=None,
        usecols=(1, *range(3, 2 + width)),
        ndmin=2,
    )


def _parses(line: str, num_cells: int) -> bool:
    try:
        _parse_columns([line], num_cells)
    except ValueError:
        return False
    return True


def _line_error(line: str, num_cells: int, bin_size: int) -> str:
    """Why a rejected data line is invalid: the first failed check, in reading order."""
    fields = line.split("\t")
    if len(fields) != 3 + 2 * num_cells:
        return f"expected {3 + 2 * num_cells} fields, got {len(fields)}"
    try:
        bin_start = int(fields[1])
        counts = [int(x) for x in fields[3:]]
    except ValueError as exc:
        return str(exc)
    if bin_start < 0 or bin_start % bin_size != 0:
        return f"bin_start {bin_start} is not a multiple of {bin_size}"
    for j, (c, mu) in enumerate(zip(counts[0::2], counts[1::2])):
        if c < 0 or mu < 0 or mu > c:
            return f"cell {j + 1} has meth {mu} outside [0, {c}]"
    # int() took it but numpy did not: digit separators, non-ASCII digits, overflow
    return "bin_start and counts must be plain decimal integers within the 64-bit range"


def _invalid_rows(bin_start, cov, meth, bin_size: int) -> np.ndarray:
    """Rows with a misaligned or negative ``bin_start`` or a meth count outside ``[0, cov]``."""
    return (
        (bin_start < 0)
        | (bin_start % bin_size != 0)
        | ((meth < 0) | (meth > cov)).any(axis=1)
    )


def _has_context(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray, context: str) -> np.ndarray:
    """Rows whose context field, bytes ``buf[lo:hi]``, is ``context``.

    A filter that is not valid text (a surrogate-escaped argument) matches none.
    """
    key = np.frombuffer(context.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    keep = hi - lo == key.size
    for k, byte in enumerate(key.tolist()):
        keep &= buf[np.minimum(lo + k, buf.size - 1)] == byte
    return keep


def _decimal(buf: np.ndarray, start: np.ndarray, end: np.ndarray, out: np.ndarray) -> bool:
    """Read the fields ``buf[start:end]`` into ``out``, if each is 1-18 plain digits.

    Such a field holds exactly the value numpy's text parser reads from it,
    and fits in int64. The fields are right-aligned at their ends: each pass
    gathers one digit place of every field, from the widest field's first,
    and the places a field does not reach read as 0.
    """
    width = end - start
    narrowest, widest = int(width.min()), int(width.max())
    if narrowest < 1 or widest > 18:
        return False
    at = end - widest  # below 0 only at places a field near the block's start does not reach
    out[:] = 0
    for place in range(widest, 0, -1):
        digit = buf[at] - ord("0")  # uint8, so any byte below "0" wraps past 9
        if place > narrowest:
            digit *= width >= place
        if digit.max() > 9:
            return False
        out *= 10
        out += digit
        at += 1
    return True


def _byte_counts(
    block: bytes, skip: int, num_cells: int, bin_size: int, context_filter: str | None,
) -> tuple[np.ndarray, int] | None:
    """The validated, filtered count columns of a block, read from its bytes.

    ``block`` is UTF-8 and ends with a line end; its first ``skip`` lines are
    skipped. Its lines must all end in "\\n" or all in "\\r\\n", with no
    other "\\r", so they are the text layer's lines; a "\\r\\n" row's last
    field ends at its "\\r". Empty lines are counted and dropped. The bytes
    below 11 of the other lines must be rows of ``2 + 2 * num_cells`` tabs
    and a "\\n", which leaves out whitespace-only lines and wrong field
    counts. Every numeric field must be 1-18 plain digits (see
    :func:`_decimal`), which leaves out signs, spaces and wider numbers.
    Returns None when any of this fails or a row is invalid:
    :func:`_chunk_columns` then reads the block and names the first bad
    line. Otherwise returns the counts, ``(rows, 2 * num_cells)``, and the
    block's line count.
    """
    buf = np.frombuffer(block, dtype=np.uint8)
    tabs = 2 + 2 * num_cells
    row = np.array([ord("\t")] * tabs + [ord("\n")], dtype=np.uint8)

    def fits(seps: np.ndarray) -> bool:
        """Whether the separators are whole rows of tabs and a line end."""
        return seps.size % (tabs + 1) == 0 and (buf[seps].reshape(-1, tabs + 1) == row).all()

    seps = np.flatnonzero(buf < 11)
    crlf = block.endswith(b"\r\n")
    blank = 0
    if not fits(seps):
        # empty lines are sought only in a block that does not fit: searching
        # every block for them took 0.4 ms per 256 KB
        at = np.flatnonzero(buf[seps] == ord("\n"))
        empty = np.diff(seps[at], prepend=-1) == 1 + crlf
        if crlf:
            empty &= buf[seps[at] - 1] == ord("\r")
        seps = np.delete(seps, at[empty])
        blank = int(np.count_nonzero(empty))
        if not fits(seps):
            return None
    seps = seps.reshape(-1, tabs + 1)
    if crlf:
        if block.count(b"\r") != len(seps) + blank or (buf[seps[:, tabs] - 1] != ord("\r")).any():
            return None
    elif b"\r" in block:
        return None
    # field f of row r ends at seps[f, r] and starts after seps[f - 1, r]
    seps = np.ascontiguousarray(seps[skip:].T)
    seps[tabs] -= crlf
    bin_start = np.empty(seps.shape[1], dtype=np.int64)
    counts = np.empty((2 * num_cells, seps.shape[1]), dtype=np.int64)
    if seps.shape[1] and not (
        _decimal(buf, seps[0] + 1, seps[1], bin_start)
        and all(_decimal(buf, seps[f - 1] + 1, seps[f], counts[f - 3]) for f in range(3, tabs + 1))
    ):
        return None
    if _invalid_rows(bin_start, counts[0::2].T, counts[1::2].T, bin_size).any():
        return None
    if context_filter is not None:
        counts = counts[:, _has_context(buf, seps[1] + 1, seps[2], context_filter)]
    return counts.T, skip + seps.shape[1] + blank


def _chunk_columns(
    path, first: int, block: bytes, num_cells: int, bin_size: int,
    context_filter: str | None,
) -> tuple[np.ndarray, int]:
    """The validated, filtered count columns of a block, and its line count.

    ``block`` is UTF-8 and ends with a line end; its line ``j`` is file line
    ``first + j + 1``, and the file's header is skipped. "\\r\\n" and a lone
    "\\r" become "\\n" here, as in Python's text layer. Line ends and tabs are
    found in the block's bytes, so field counts and the context field need no
    per-line ``count`` or ``split``.

    A block whose every line has the right tab count and parses goes to
    numpy's parser whole, with no per-line Python pass. Only when a line's
    tab count is off or numpy rejects the batch are blank and whitespace-only
    lines found with ``str.strip`` and the other lines selected one by one up
    to the first bad one. A whitespace-only line can have the right tab count;
    it has no digits, so it fails the batch parse and is skipped there.
    """
    if b"\r" in block:
        block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    lines = block.decode().split("\n")
    lines.pop()  # the empty text after the last line end
    buf = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    tab_at = np.flatnonzero(buf == ord("\t"))
    # line j holds the tabs tab_at[first_tab[j] : first_tab[j] + tabs[j]]
    tabs_before_end = np.searchsorted(tab_at, ends)
    first_tab = np.r_[0, tabs_before_end[:-1]]
    tabs = tabs_before_end - first_tab
    skip = 1 if first == 0 else 0
    rows = np.arange(skip, len(lines))
    end = rows.size
    try:
        if (tabs[skip:] != 2 + 2 * num_cells).any():
            raise ValueError("a line has the wrong field count")
        columns = _parse_columns(lines[skip:], num_cells)
    except ValueError:
        kept = np.fromiter(map(bool, map(str.strip, lines)), dtype=bool, count=len(lines))
        kept[:skip] = False
        rows = np.flatnonzero(kept)
        wrong_width = np.flatnonzero(tabs[rows] != 2 + 2 * num_cells)
        end = int(wrong_width[0]) if wrong_width.size else rows.size
        # rows[:end] have the right field count; every later check only shortens end
        body = [lines[i] for i in rows[:end].tolist()]
        try:
            columns = _parse_columns(body, num_cells)
        except ValueError:
            # each line is parsed on its own, so a line fails alone as in a batch
            end = next(i for i, line in enumerate(body) if not _parses(line, num_cells))
            columns = _parse_columns(body[:end], num_cells)
    invalid = _invalid_rows(columns[:, 0], columns[:, 1::2], columns[:, 2::2], bin_size)
    if invalid.any():
        end = int(invalid.argmax())
    if end < rows.size:
        i = int(rows[end])
        why = _line_error(lines[i], num_cells, bin_size)
        raise DataError(f"{path}:{first + i + 1}: {why}")
    if context_filter is not None:
        # a row's context lies between its second and third tabs
        tab = first_tab[rows]
        columns = columns[_has_context(buf, tab_at[tab + 1] + 1, tab_at[tab + 2], context_filter)]
    return columns[:, 1:], len(lines)


def _read_table(
    path, bin_size: int, context_filter: str | None
) -> tuple[np.ndarray, np.ndarray]:
    """A count table's validated coverage and meth: read-only int64, ``(rows, cells)``.

    Blank and whitespace-only lines are skipped. A data line is rejected for
    the wrong field count, a field that is not an integer, a misaligned or
    negative ``bin_start``, or a meth count outside ``[0, cov]``; the error
    names the first rejected line in the file. Every data line is checked
    before ``context_filter`` drops the rows whose context differs.

    The file comes in blocks of :func:`_blocks`, each validated and filtered
    on its own, so the bytes held at any time are one block's. Each block is
    read from its bytes by :func:`_byte_counts` or, if that turns it down,
    by :func:`_chunk_columns`. Each block keeps its counts without
    ``bin_start``, in the smallest unsigned type that holds the block's
    largest count (uint8 for coverages below 256), and the returned int64
    arrays are filled from them once, so the counts are held about once. The
    errors are those of reading the file whole: a byte that is not UTF-8
    anywhere in the file outranks a bad header or row, which are raised only
    once the rest of the file has decoded.
    """
    _check_bin_size(bin_size)
    parts = []
    error = None
    first = 0  # lines before the block
    for block in _blocks(path):
        if not block.isascii():
            _check_utf8(path, block, first)
        if not block.endswith((b"\n", b"\r")):
            block += b"\n"  # the file's last line
        if error is None:
            try:
                if first == 0:
                    num_cells = _parse_header(re.match(rb"[^\r\n]*", block)[0].decode())
                counts, lines = _byte_counts(
                    block, int(first == 0), num_cells, bin_size, context_filter
                ) or _chunk_columns(path, first, block, num_cells, bin_size, context_filter)
                # counts are validated non-negative, so the smallest unsigned
                # type that holds the block's largest keeps them all
                parts.append(counts.astype(np.min_scalar_type(int(counts.max(initial=0)))))
                first += lines
                continue
            except DataError as exc:
                error = exc
        first += _line_ends(block, len(block))  # to number a later byte that is not UTF-8
    if error is not None:
        raise error
    if first == 0:
        raise DataError(f"{path}: empty file")
    rows = sum(len(part) for part in parts)
    cov = np.empty((rows, num_cells), dtype=np.int64)
    meth = np.empty((rows, num_cells), dtype=np.int64)
    row = 0
    for part in parts:
        cov[row : row + len(part)] = part[:, 0::2]
        meth[row : row + len(part)] = part[:, 1::2]
        row += len(part)
    cov.setflags(write=False)
    meth.setflags(write=False)
    return cov, meth


def load_methylation_tsv(
    path,
    context_filter: str | None = None,
    merge_replicates: bool = False,
    bin_size: int = DEFAULT_BIN_SIZE,
) -> CountSequence:
    """Load a count table as a :class:`CountSequence`, in file order.

    ``merge_replicates`` sums consecutive column pairs two at a time, so a
    four-cell file of two replicates each becomes a two-cell sequence.
    """
    cov, meth = _read_table(path, bin_size, context_filter)
    if len(cov) == 0:
        raise DataError(f"{path}: no rows left after filtering")
    if merge_replicates:
        if cov.shape[1] % 2 != 0:
            raise DataError(
                f"{path}: merging replicates needs an even number of cell columns, got {cov.shape[1]}"
            )
        cov = cov[:, 0::2] + cov[:, 1::2]
        meth = meth[:, 0::2] + meth[:, 1::2]
    return CountSequence(cov, meth)


def _format_rows(fields: list[np.ndarray], seps: list[str]) -> np.ndarray:
    """UTF-8 text of rows of non-negative integers, as one byte array.

    Row r is ``seps[0] str(fields[0][r]) seps[1] str(fields[1][r]) ... "\\n"``.
    Every field's place in the buffer follows from its digit count, so each
    separator byte and each decimal place is written in one pass over all rows.
    """
    sep_bytes = [sep.encode("utf-8") for sep in seps]
    ndigits = []
    for field in fields:
        count = np.ones(len(field), dtype=np.int64)
        power = 10
        while power <= field.max(initial=0):
            count += field >= power
            power *= 10
        ndigits.append(count)
    row_len = 1 + sum(len(sep) + count for sep, count in zip(sep_bytes, ndigits))
    row_end = np.cumsum(row_len)
    buf = np.empty(int(row_len.sum()), dtype=np.uint8)
    buf[row_end - 1] = ord("\n")
    end = row_end - row_len  # one past what is laid out so far in each row
    for field, count, sep in zip(fields, ndigits, sep_bytes):
        for byte in sep:
            buf[end] = byte
            end += 1
        end += count
        value, last, digits = field, end - 1, count
        for place in range(int(count.max(initial=0))):
            if digits.min() <= place:  # drop the numbers with no digit at this place
                live = digits > place
                value, last, digits = value[live], last[live], digits[live]
            value, digit = np.divmod(value, 10)
            buf[last - place] = ord("0") + digit
    return buf


def write_methylation_tsv(
    path,
    seq: CountSequence,
    chrom: str = "sim",
    context: str = "CG",
    bin_size: int = DEFAULT_BIN_SIZE,
) -> None:
    """Write a sequence as a UTF-8 count table with synthetic genomic coordinates."""
    _check_bin_size(bin_size)
    for name, text in (("chrom", chrom), ("context", context)):
        if any(c in text for c in "\t\n\r"):
            raise ParameterError(f"{name} must hold no tab or line end, got {text!r}")
    k = seq.num_cells
    header = list(TSV_COLUMNS) + [
        col for j in range(1, k + 1) for col in (f"cov_{j}", f"meth_{j}")
    ]
    fields = [np.arange(len(seq), dtype=np.int64) * bin_size]
    for j in range(k):
        fields += [np.ascontiguousarray(seq.coverage[:, j]), np.ascontiguousarray(seq.meth[:, j])]
    seps = [f"{chrom}\t", f"\t{context}\t"] + ["\t"] * (2 * k - 1)
    with open(path, "wb") as fh:
        fh.write(("\t".join(header) + "\n").encode("utf-8"))
        fh.write(_format_rows(fields, seps))


@dataclass(eq=False)
class ModelFile:
    """A fitted (or planted) model plus everything needed to reproduce it."""

    num_states: int
    num_cells: int
    granularity: int | None
    initial_dist: np.ndarray
    transition: np.ndarray
    meth_probs: np.ndarray  # (num_cells, num_states)
    prior_weights: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def to_params(self) -> HmmParams:
        return HmmParams(
            initial_dist=self.initial_dist,
            transition=self.transition,
            meth_probs=self.meth_probs,
        )


def save_model(model: ModelFile, path) -> None:
    payload = {
        "schema_version": model.schema_version,
        "num_states": model.num_states,
        "num_cells": model.num_cells,
        "granularity": model.granularity,
        "initial_dist": np.asarray(model.initial_dist, dtype=float).tolist(),
        "transition": np.asarray(model.transition, dtype=float).tolist(),
        "meth_probs": np.atleast_2d(np.asarray(model.meth_probs, dtype=float)).tolist(),
        "prior_weights": (
            None
            if model.prior_weights is None
            else np.asarray(model.prior_weights, dtype=float).tolist()
        ),
        "diagnostics": model.diagnostics,
        "provenance": model.provenance,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> ModelFile:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "schema_version" not in payload:
        raise DataError(f"{path}: missing schema_version")
    version = payload["schema_version"]
    if type(version) is not int or version < 1:
        raise DataError(
            f"{path}: malformed model file (schema_version {version!r} is not a positive integer)"
        )
    if version > SCHEMA_VERSION:
        raise DataError(
            f"{path}: schema version {version} is newer than supported {SCHEMA_VERSION}"
        )
    try:
        model = ModelFile(
            num_states=int(payload["num_states"]),
            num_cells=int(payload["num_cells"]),
            granularity=(
                None if payload["granularity"] is None else int(payload["granularity"])
            ),
            initial_dist=np.array(payload["initial_dist"], dtype=float),
            transition=np.array(payload["transition"], dtype=float),
            meth_probs=np.array(payload["meth_probs"], dtype=float),
            prior_weights=(
                None
                if payload.get("prior_weights") is None
                else np.array(payload["prior_weights"], dtype=float)
            ),
            diagnostics=payload.get("diagnostics", {}),
            provenance=payload.get("provenance", {}),
            schema_version=version,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed model file ({exc})") from exc
    if model.meth_probs.shape != (model.num_cells, model.num_states):
        raise DataError(
            f"{path}: meth_probs shape {model.meth_probs.shape} does not match "
            f"({model.num_cells}, {model.num_states})"
        )
    return model


def file_digest(path) -> str:
    """Hex sha256 of a file's bytes, for provenance records, read into one reused buffer."""
    import hashlib  # here: only fit records a digest, and eval need not load it

    digest = hashlib.sha256()
    buf = bytearray(_CHUNK_BYTES)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buf):
            digest.update(view[:size])
    return digest.hexdigest()
