"""Tab-separated count tables and versioned JSON model files.

The table format is one binned genomic position per row:

    chrom  bin_start  context  cov_1  meth_1  [cov_2  meth_2 ...]

with one (coverage, methylated) column pair per cell type. Replicates can be
merged at load time by summing consecutive column pairs two at a time, and a
context filter keeps only rows whose context matches (e.g. "CG").

Tables are read and written by column. The reader takes the file's bytes in
blocks of whole lines, about 256 KB each, and each block keeps its counts in
the smallest unsigned type that holds them until the int64 columns are
filled. So a load holds the counts about once: the 5.5 MB, 262,144-row
genome-ftd table of ``perfbench`` returns 4.2 MB of columns and peaks at 4.7
MB of tracemalloc'd memory (8.4 MB when the blocks kept int64 counts). A
block that is not ASCII is checked once to be UTF-8. Each block is read from
its bytes: one scan finds its tabs and line ends, and each numeric field is
parsed one decimal place at a time over every row, after a pass that strips
signs and spaces if the block holds any. Only the lines this cannot read
(whitespace-only lines, other padding, numbers of 19 or more digits, wrong
field counts, bad text) are decoded and read one by one with ``int()``.
Warm loads on a 2-core Xeon VM read genome-ftd in 25 ms, about 220 MB/s, and
a "\\r\\n" copy of a table that size in 32 ms, one with a sign before every
count in 29 ms.
The writer formats 65,536 rows at a time into a byte block in which each
field has a right-aligned slot as wide as the block's widest value, writes
one decimal place per pass over the block's rows, and drops the places no
value reaches with one boolean compress. So its memory does not grow with
the table: writing genome-ftd peaks at 4.7 MB of tracemalloc'd memory
(33.5 MB when every row was laid out at once) and takes about 30 ms on
that VM, against 58 ms.

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
from .model import CountSequence, HmmParams, _check_integer

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


def _row_error(values: list[int], bin_size: int) -> str | None:
    """Why a row's ``[bin_start, cov_1, meth_1, ...]`` are invalid, or None."""
    bin_start = values[0]
    if bin_start < 0 or bin_start % bin_size != 0:
        return f"bin_start {bin_start} is not a multiple of {bin_size}"
    for j, (c, mu) in enumerate(zip(values[1::2], values[2::2])):
        if c < 0 or mu < 0 or mu > c:
            return f"cell {j + 1} has meth {mu} outside [0, {c}]"
    return None


def _read_line(line: str, num_cells: int, bin_size: int) -> tuple[str, list[int]] | None:
    """The context and counts of a line the byte parser did not read, or None if it is blank.

    Raises ValueError naming the first failed check, in reading order: the
    field count, ``int()`` of ``bin_start`` and of each count, the checks of
    :func:`_row_error`, and last that each number is plain: ASCII digits,
    with an optional sign and whitespace around them, below 2**63.
    """
    if not line.strip():
        return None
    fields = line.split("\t")
    if len(fields) != 3 + 2 * num_cells:
        raise ValueError(f"expected {3 + 2 * num_cells} fields, got {len(fields)}")
    numbers = [fields[1], *fields[3:]]
    values = [int(x) for x in numbers]
    if why := _row_error(values, bin_size):
        raise ValueError(why)
    if max(values) >= 2**63 or not all(x.strip().isascii() and "_" not in x for x in numbers):
        raise ValueError("bin_start and counts must be plain decimal integers within the 64-bit range")
    return fields[2], values[1:]


def _has_context(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray, context: str) -> np.ndarray:
    """Rows whose context field, bytes ``buf[lo:hi]``, is ``context``.

    A filter that is not valid text (a surrogate-escaped argument) matches none.
    """
    key = np.frombuffer(context.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    keep = hi - lo == key.size
    for k, byte in enumerate(key.tolist()):
        keep &= buf[np.minimum(lo + k, buf.size - 1)] == byte
    return keep


def _decimal(
    buf: np.ndarray, start: np.ndarray, end: np.ndarray, out: np.ndarray, ok: np.ndarray,
    padded: bool,
) -> None:
    """Read the fields ``buf[start:end]`` into ``out``, and clear ``ok`` where one is not read.

    A field is read if it is 1-18 ASCII digits or, when ``padded``, such
    digits after an optional sign, with ASCII spaces around them: it then
    holds exactly the value ``int()`` reads from it, and fits in int64. The
    digits are right-aligned at their ends: each pass gathers one digit place
    of every field, from the widest field's first, and the places a field
    does not reach read as 0.
    """
    if padded:
        start, end = start.copy(), end.copy()
        for _ in range(16):  # a field padded with more spaces is read by _read_line
            lead, trail = buf[start] == ord(" "), buf[end - 1] == ord(" ")
            if not (lead.any() or trail.any()):
                break
            start += lead
            end -= trail
        neg = buf[start] == ord("-")
        start += neg | (buf[start] == ord("+"))
    width = end - start
    narrowest, widest = int(width.min()), int(width.max())
    if narrowest < 1 or widest > 18:
        ok &= (width > 0) & (width < 19)
        width *= ok  # a row not read takes no digits
        narrowest, widest = int(width.min()), int(width.max())
    at = end - widest  # below 0 only at places a field near the block's start does not reach
    out[:] = 0
    for place in range(widest, 0, -1):
        digit = buf[at] - ord("0")  # uint8, so any byte below "0" wraps past 9
        if place > narrowest:
            digit *= width >= place
        if digit.max() > 9:
            ok &= digit < 10
        out *= 10
        out += digit
        at += 1
    if padded:
        np.negative(out, out=out, where=neg)


def _block_counts(
    path, first: int, block: bytes, num_cells: int, bin_size: int, context_filter: str | None,
) -> tuple[np.ndarray, int]:
    """The validated, filtered count columns of a block, ``(rows, 2 * num_cells)``, and its line count.

    ``block`` is UTF-8 and ends with a line end; its line ``j`` is file line
    ``first + j + 1``, and the file's header is skipped. A row is a line
    whose bytes below 11 are ``2 + 2 * num_cells`` tabs and its "\\n"; one
    compare finds a block of rows only. Empty lines are dropped, a "\\r\\n"
    row's last field ends at its "\\r", and a block with a lone "\\r" is read
    with its line ends turned into "\\n". :func:`_decimal` reads the rows'
    numbers, and :func:`_read_line` each other line and each row it does not
    read. The error names the block's first bad line.
    """
    skip = int(first == 0)
    tabs = 2 + 2 * num_cells
    row = np.array([ord("\t")] * tabs + [ord("\n")], dtype=np.uint8)
    buf = np.frombuffer(block, dtype=np.uint8)
    seps = np.flatnonzero(buf < 11)
    # field f of row r ends at seps[f, r] and starts after seps[f - 1, r]
    if clean := seps.size % (tabs + 1) == 0 and (buf[seps].reshape(-1, tabs + 1) == row).all():
        seps = np.ascontiguousarray(seps.reshape(-1, tabs + 1).T)
        ends = seps[tabs]
    else:
        at = np.flatnonzero(buf[seps] == ord("\n"))  # the index in seps of each line's "\n"
        ends = seps[at]
    if b"\r" in block:
        # ends - 1 is -1 only for a block that starts with an empty line, and
        # such a block ends with its last "\n" (see _blocks)
        cr = buf[ends - 1] == ord("\r")
        if block.count(b"\r") != np.count_nonzero(cr):
            # a lone "\r" ends a line, as in Python's text layer
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            return _block_counts(path, first, block, num_cells, bin_size, context_filter)
        ends -= cr  # a line's text, and so a clean block's last fields, end at its "\r"
    lines = ends.size
    line = None  # the line of each row, when it is not the row's index
    odd = []  # (line, end of its text) of each line that is neither a row nor empty
    if not clean:
        starts = np.r_[0, seps[at[:-1]] + 1]
        line = np.flatnonzero(np.diff(at, prepend=-1) == tabs + 1)
        seps = seps[at[line] + np.arange(-tabs, 1)[:, None]]
        fits = (buf[seps] == row[:, None]).all(axis=0)
        line, seps = line[fits], seps[:, fits]
        seps[tabs] = ends[line]
        text = np.setdiff1d(np.flatnonzero(ends > starts), line)  # the header is a row
        odd = list(zip(text.tolist(), ends[text].tolist()))
        line = line[skip:]
    seps = seps[:, skip:]
    padded = b" " in block or b"+" in block or b"-" in block
    n = seps.shape[1]
    bin_start = np.empty(n, dtype=np.int64)
    counts = np.empty((tabs - 2, n), dtype=np.int64)  # cov_1, meth_1, cov_2, ...
    ok = np.ones(n, dtype=bool)  # the rows whose numeric fields _decimal reads
    for f, out in zip([1, *range(3, tabs + 1)], [bin_start, *counts]) if n else ():
        _decimal(buf, seps[f - 1] + 1, seps[f], out, ok, padded)
    cov, meth = counts[0::2], counts[1::2]
    invalid = (bin_start < 0) | (bin_start % bin_size != 0) | ((meth < 0) | (meth > cov)).any(axis=0)
    keep = None if context_filter is None else _has_context(buf, seps[1] + 1, seps[2], context_filter)
    if not (odd or invalid.any() or not ok.all()):
        return (counts if keep is None else counts[:, keep]).T, lines
    if line is None:
        line = np.arange(skip, skip + n)
    stop, why = lines, None  # the first bad line and why
    if (bad := np.flatnonzero(invalid & ok)).size:
        r = bad[0]
        stop, why = int(line[r]), _row_error([bin_start[r], *counts[:, r]], bin_size)
    failed = np.flatnonzero(~ok)
    extra = []  # (line, counts) of the lines _read_line took, in line order
    for j, end in sorted(odd + list(zip(line[failed].tolist(), seps[tabs, failed].tolist()))):
        if j > stop:
            break
        text = block[block.rfind(b"\n", 0, end) + 1 : end].decode()
        try:
            got = _read_line(text, num_cells, bin_size)
        except ValueError as exc:
            stop, why = j, str(exc)
            break
        if got is not None and context_filter in (None, got[0]):
            extra.append((j, got[1]))
    if why is not None:
        raise DataError(f"{path}:{first + stop + 1}: {why}")
    keep = ok if keep is None else keep & ok
    counts = counts[:, keep]
    if extra:
        at = np.searchsorted(line[keep], [j for j, _ in extra])
        counts = np.insert(counts, at, np.array([c for _, c in extra], dtype=np.int64).T, axis=1)
    return counts.T, lines


def _read_table(
    path, bin_size: int, context_filter: str | None
) -> tuple[np.ndarray, np.ndarray]:
    """A count table's validated coverage and meth: read-only int64, ``(rows, cells)``.

    Blank and whitespace-only lines are skipped. A data line is rejected for
    the wrong field count, a field that is not an integer, a misaligned or
    negative ``bin_start``, or a meth count outside ``[0, cov]``; the error
    names the first rejected line in the file. Every data line is checked
    before ``context_filter`` drops the rows whose context differs.

    The file comes in blocks of :func:`_blocks`, each read, validated and
    filtered on its own by :func:`_block_counts`, so the bytes held at any
    time are one block's. Each block keeps its counts without ``bin_start``,
    in the smallest unsigned type that holds the block's largest count (uint8
    for coverages below 256), and the returned int64 arrays are filled from
    them once, so the counts are held about once. The errors are those of
    reading the file whole: a byte that is not UTF-8 anywhere in the file
    outranks a bad header or row, which are raised only once the rest of the
    file has decoded.
    """
    _check_integer("bin_size", bin_size, 1)
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
                counts, lines = _block_counts(path, first, block, num_cells, bin_size, context_filter)
                # counts are validated non-negative, so the smallest unsigned
                # type that holds the block's largest keeps them all; the
                # int64 block goes before the next block is read
                parts.append(counts.astype(np.min_scalar_type(int(counts.max(initial=0)))))
                del counts
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


# rows the writer formats at a time. A one-cell chunk's byte block and keep
# mask take about 22 bytes per row each, and the writer peaks at 4.7 MB of
# tracemalloc'd memory whatever the table's length
_WRITE_ROWS = 1 << 16


def _format_rows(fields: list[np.ndarray], seps: list[bytes]) -> np.ndarray:
    """UTF-8 text of rows of non-negative integers, as one byte array.

    Row r is ``seps[0] str(fields[0][r]) seps[1] str(fields[1][r]) ... "\\n"``.
    Each field gets a right-aligned slot as wide as its widest value, so every
    row has the same layout. Each decimal place of a field is written in one
    ``divmod`` pass over all rows, in the smallest unsigned type that holds
    the field; a place is kept while the quotient before it is non-zero, and
    one boolean compress drops the leading places no value reaches.
    """
    rows = len(fields[0])
    tops = [int(field.max(initial=0)) for field in fields]
    widths = [len(str(top)) for top in tops]
    line = np.frombuffer(
        b"".join(sep + b"0" * width for sep, width in zip(seps, widths)) + b"\n",
        dtype=np.uint8,
    )
    buf = np.empty((rows, line.size), dtype=np.uint8)
    buf[:] = line
    keep = np.ones(buf.shape, dtype=bool)
    end = 0  # one past the current field's slot
    for field, sep, top, width in zip(fields, seps, tops, widths):
        end += len(sep) + width
        value = field.astype(np.min_scalar_type(top))
        for place in range(1, width + 1):
            if place > 1:
                np.not_equal(value, 0, out=keep[:, end - place])
            value, digit = np.divmod(value, 10)
            buf[:, end - place] += digit  # on the slot's "0"
    return buf[keep]


def write_methylation_tsv(
    path,
    seq: CountSequence,
    chrom: str = "sim",
    context: str = "CG",
    bin_size: int = DEFAULT_BIN_SIZE,
) -> None:
    """Write a sequence as a UTF-8 count table with synthetic genomic coordinates.

    Rows are formatted and written ``_WRITE_ROWS`` at a time, from views of
    the sequence's columns, so the writer's memory does not grow with the
    sequence's length.
    """
    _check_integer("bin_size", bin_size, 1)
    for name, text in (("chrom", chrom), ("context", context)):
        if any(c in text for c in "\t\n\r"):
            raise ParameterError(f"{name} must hold no tab or line end, got {text!r}")
    k = seq.num_cells
    header = list(TSV_COLUMNS) + [
        col for j in range(1, k + 1) for col in (f"cov_{j}", f"meth_{j}")
    ]
    seps = [s.encode("utf-8") for s in [f"{chrom}\t", f"\t{context}\t"] + ["\t"] * (2 * k - 1)]
    with open(path, "wb") as fh:
        fh.write(("\t".join(header) + "\n").encode("utf-8"))
        for lo in range(0, len(seq), _WRITE_ROWS):
            hi = min(lo + _WRITE_ROWS, len(seq))
            fields = [np.arange(lo, hi, dtype=np.int64) * bin_size]
            for j in range(k):
                fields += [seq.coverage[lo:hi, j], seq.meth[lo:hi, j]]
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
