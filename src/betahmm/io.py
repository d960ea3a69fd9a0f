"""Tab-separated count tables and versioned JSON model files.

The table format is one binned genomic position per row:

    chrom  bin_start  context  cov_1  meth_1  [cov_2  meth_2 ...]

with one (coverage, methylated) column pair per cell type. Replicates can be
merged at load time by summing consecutive column pairs two at a time, and a
context filter keeps only rows whose context matches (e.g. "CG").

Tables are read and written by column. Python's text layer frames the lines:
it decodes UTF-8 and turns "\\r\\n" and a lone "\\r" into "\\n". The reader
takes its lines in chunks of about 64 KB from ``readlines``, so the text it
holds at any time is one chunk's and a load's memory is bounded by the int64
columns it returns. numpy's text parser reads each chunk's integer columns;
field counts come from the chunk's tab bytes, the columns are validated with
whole-array masks, and a context filter compares the context field's bytes.
A chunk whose lines all have the right tab count goes to numpy's parser
whole. Only a chunk with a tab count off, or one numpy rejects, is taken line
by line: ``str.strip`` finds its blank lines and the rest are selected up to
the first bad one.
The writer lays out every row's digits in one byte buffer.

Model files are JSON with an explicit schema version. Floats go through
Python's shortest-round-trip repr, so a save/load cycle reproduces every
parameter bit for bit.
"""

from __future__ import annotations

import hashlib
import json
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


# characters (bytes, in an ASCII table) per chunk of whole lines, the
# `readlines` hint, so the reader holds about one chunk of text at a time.
# Loading the 262,144-row genome-ftd table peaked at 37.4 MB of tracemalloc'd
# memory when the whole file was split into lines, and at 8.4 MB in 64 KB
# chunks: the count columns twice, once in the chunks' parts and once in the
# arrays returned.
_CHUNK_BYTES = 1 << 16


def _undecodable_line(path) -> int:
    """Number of the first line holding a byte that is not UTF-8, in a file with one.

    The file is read line by line, each such byte escaped to a lone surrogate,
    which UTF-8 cannot encode.
    """
    with open(path, encoding="utf-8", errors="surrogateescape", newline=None) as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return lineno


def _line_chunks(path):
    """The lines of a text file, in lists of about ``_CHUNK_BYTES`` characters.

    Python's text layer decodes UTF-8 and turns "\\r\\n" and a lone "\\r"
    into "\\n"; every line but the file's last ends with "\\n". A byte that
    is not UTF-8 raises :class:`DataError` naming its line.
    """
    with open(path, encoding="utf-8", newline=None) as fh:
        try:
            yield from iter(lambda: fh.readlines(_CHUNK_BYTES), [])
        except UnicodeDecodeError as exc:
            # the text layer does not say where the byte is
            line = _undecodable_line(path)
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


def _chunk_columns(
    path, first: int, lines: list[str], num_cells: int, bin_size: int,
    context_filter: str | None,
) -> np.ndarray:
    """The validated, filtered columns of one chunk of a table's lines.

    Line ``j`` of the chunk is file line ``first + j + 1``; the file's header
    is skipped. Line ends and tabs are found in the chunk's UTF-8 bytes, so
    field counts and the context field need no per-line ``count`` or ``split``.

    A clean chunk, whose every line has the right tab count and parses, goes
    to numpy's parser whole, with no per-line Python pass. Only when a line's
    tab count is off or numpy rejects the batch are blank and whitespace-only
    lines found with ``str.strip`` and the other lines selected one by one up
    to the first bad one. A whitespace-only line can have the right tab count;
    it has no digits, so it fails the batch parse and is skipped there.
    """
    data = "".join(lines).encode("utf-8")
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
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
    bin_start, cov, meth = columns[:, 0], columns[:, 1::2], columns[:, 2::2]
    invalid = (
        (bin_start < 0)
        | (bin_start % bin_size != 0)
        | ((meth < 0) | (meth > cov)).any(axis=1)
    )
    if invalid.any():
        end = int(invalid.argmax())
    if end < rows.size:
        i = int(rows[end])
        why = _line_error(lines[i].removesuffix("\n"), num_cells, bin_size)
        raise DataError(f"{path}:{first + i + 1}: {why}")
    if context_filter is not None:
        # a row's context lies between its second and third tabs; a filter
        # that is not valid text (a surrogate-escaped argument) matches none
        key = np.frombuffer(context_filter.encode("utf-8", "surrogatepass"), dtype=np.uint8)
        lo = tab_at[first_tab[rows] + 1] + 1
        keep = tab_at[first_tab[rows] + 2] - lo == key.size
        for k, byte in enumerate(key.tolist()):
            keep &= buf[np.minimum(lo + k, buf.size - 1)] == byte
        columns = columns[keep]
    return columns


def _read_table(
    path, bin_size: int, context_filter: str | None
) -> tuple[np.ndarray, np.ndarray]:
    """A count table's validated coverage and meth: read-only int64, ``(rows, cells)``.

    Blank and whitespace-only lines are skipped. A data line is rejected for
    the wrong field count, a field that is not an integer, a misaligned or
    negative ``bin_start``, or a meth count outside ``[0, cov]``; the error
    names the first rejected line in the file. Every data line is checked
    before ``context_filter`` drops the rows whose context differs.

    The lines come in chunks of :func:`_line_chunks`, each validated and
    filtered on its own, so the text held at any time is one chunk's. Each
    chunk keeps its counts without ``bin_start``, and the returned arrays are
    filled from them once. The errors are those of reading the file whole:
    a byte that is not UTF-8 anywhere in the file outranks a bad header or
    row, which are raised only once the rest of the file has decoded.
    """
    _check_bin_size(bin_size)
    parts = []
    error = None
    first = 0
    for lines in _line_chunks(path):
        if error is None:
            try:
                if first == 0:
                    num_cells = _parse_header(lines[0].removesuffix("\n"))
                columns = _chunk_columns(
                    path, first, lines, num_cells, bin_size, context_filter
                )
                parts.append(columns[:, 1:].copy())
            except DataError as exc:
                error = exc
        first += len(lines)
    if first == 0:
        raise DataError(f"{path}: empty file")
    if error is not None:
        raise error
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
    """Hex sha256 of a file's bytes, for provenance records."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
