import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from betahmm import (
    CountSequence,
    DataError,
    ModelFile,
    ParameterError,
    file_digest,
    load_methylation_tsv,
    load_model,
    save_model,
    write_methylation_tsv,
)
from betahmm import io as io_module
from betahmm.io import SCHEMA_VERSION
from oracles import reference_load_records, reference_load_tsv, reference_write_tsv


def _write(path, text):
    path.write_text(text)
    return path


def _crlf(text):
    return text.replace("\n", "\r\n")


HEADER_1 = "chrom\tbin_start\tcontext\tcov_1\tmeth_1\n"
HEADER_2 = "chrom\tbin_start\tcontext\tcov_1\tmeth_1\tcov_2\tmeth_2\n"


class TestRoundTrip:
    def test_sequence_survives_write_and_load(self, tmp_path, rng):
        cov = rng.integers(0, 40, size=(30, 2))
        meth = (cov * rng.uniform(size=cov.shape)).astype(np.int64)
        seq = CountSequence(cov, meth)
        path = tmp_path / "counts.tsv"
        write_methylation_tsv(path, seq, chrom="chrX", context="CHH")
        loaded = load_methylation_tsv(path)
        assert np.array_equal(loaded.coverage, seq.coverage)
        assert np.array_equal(loaded.meth, seq.meth)

    def test_written_coordinates_and_metadata(self, tmp_path):
        seq = CountSequence([3, 0], [1, 0])
        path = tmp_path / "counts.tsv"
        write_methylation_tsv(path, seq, chrom="chr7", context="CG", bin_size=200)
        records = reference_load_records(path, bin_size=200)
        assert [r.bin_start for r in records] == [0, 200]
        assert {r.chrom for r in records} == {"chr7"}
        assert {r.context for r in records} == {"CG"}
        assert records[0].coverage == (3,) and records[0].meth == (1,)

    def test_file_order_is_preserved(self, tmp_path):
        text = HEADER_1 + "chr1\t0\tCG\t5\t2\nchr1\t100\tCG\t3\t0\nchr1\t200\tCG\t9\t9\n"
        path = _write(tmp_path / "t.tsv", text)
        seq = load_methylation_tsv(path)
        assert list(seq.coverage[:, 0]) == [5, 3, 9]
        assert list(seq.meth[:, 0]) == [2, 0, 9]


class TestFilteringAndMerging:
    def test_context_filter(self, tmp_path):
        text = HEADER_1 + "chr1\t0\tCG\t5\t2\nchr1\t100\tCHH\t3\t0\nchr1\t200\tCG\t4\t4\n"
        path = _write(tmp_path / "t.tsv", text)
        seq = load_methylation_tsv(path, context_filter="CG")
        assert len(seq) == 2
        assert list(seq.coverage[:, 0]) == [5, 4]

    def test_rows_are_validated_before_the_filter(self, tmp_path):
        # the only bad row would be dropped by the filter, yet it still fails the load
        text = HEADER_1 + "chr1\t0\tCG\t5\t2\nchr1\t100\tCHH\t3\t4\nchr1\t200\tCG\t4\t4\n"
        path = _write(tmp_path / "t.tsv", text)
        message = r"t\.tsv:3: cell 1 has meth 4 outside \[0, 3\]"
        with pytest.raises(DataError, match=message):
            reference_load_tsv(path, context_filter="CG")
        with pytest.raises(DataError, match=message):
            load_methylation_tsv(path, context_filter="CG")

    def test_filter_removing_everything(self, tmp_path):
        text = HEADER_1 + "chr1\t0\tCHH\t5\t2\n"
        path = _write(tmp_path / "t.tsv", text)
        with pytest.raises(DataError, match="no rows left"):
            load_methylation_tsv(path, context_filter="CG")

    def test_merge_replicates_sums_pairs(self, tmp_path):
        text = HEADER_2 + "chr1\t0\tCG\t3\t1\t5\t2\n"
        path = _write(tmp_path / "t.tsv", text)
        seq = load_methylation_tsv(path, merge_replicates=True)
        assert seq.num_cells == 1
        assert seq.coverage[0, 0] == 8
        assert seq.meth[0, 0] == 3

    def test_merge_needs_even_cell_count(self, tmp_path):
        header = "chrom\tbin_start\tcontext\tcov_1\tmeth_1\tcov_2\tmeth_2\tcov_3\tmeth_3\n"
        text = header + "chr1\t0\tCG\t3\t1\t5\t2\t1\t0\n"
        path = _write(tmp_path / "t.tsv", text)
        with pytest.raises(DataError, match="even number"):
            load_methylation_tsv(path, merge_replicates=True)

    def test_blank_lines_are_skipped(self, tmp_path):
        text = HEADER_1 + "chr1\t0\tCG\t5\t2\n\nchr1\t100\tCG\t3\t0\n"
        path = _write(tmp_path / "t.tsv", text)
        assert len(load_methylation_tsv(path)) == 2


class TestMalformedTables:
    def test_empty_file(self, tmp_path):
        path = _write(tmp_path / "t.tsv", "")
        with pytest.raises(DataError, match="empty file"):
            load_methylation_tsv(path)

    def test_wrong_leading_columns(self, tmp_path):
        path = _write(tmp_path / "t.tsv", "chrom\tpos\tcontext\tcov_1\tmeth_1\n")
        with pytest.raises(DataError, match="header must start"):
            load_methylation_tsv(path)

    def test_missing_count_columns(self, tmp_path):
        path = _write(tmp_path / "t.tsv", "chrom\tbin_start\tcontext\n")
        with pytest.raises(DataError, match="column pairs"):
            load_methylation_tsv(path)

    def test_misnamed_count_columns(self, tmp_path):
        path = _write(tmp_path / "t.tsv", "chrom\tbin_start\tcontext\tcov_1\tmeth_2\n")
        with pytest.raises(DataError, match="expected columns"):
            load_methylation_tsv(path)

    def test_field_count_mismatch_names_the_line(self, tmp_path):
        text = HEADER_1 + "chr1\t0\tCG\t5\t2\nchr1\t100\tCG\t3\n"
        path = _write(tmp_path / "t.tsv", text)
        with pytest.raises(DataError, match=r"3: expected 5 fields"):
            load_methylation_tsv(path)

    def test_non_integer_count_names_the_line(self, tmp_path):
        text = HEADER_1 + "chr1\t0\tCG\tfive\t2\n"
        path = _write(tmp_path / "t.tsv", text)
        with pytest.raises(DataError, match=r"2:"):
            load_methylation_tsv(path)

    def test_meth_above_coverage_names_cell_and_line(self, tmp_path):
        text = HEADER_1 + "chr1\t0\tCG\t3\t4\n"
        path = _write(tmp_path / "t.tsv", text)
        with pytest.raises(DataError, match=r"2: cell 1 has meth 4 outside \[0, 3\]"):
            load_methylation_tsv(path)

    def test_misaligned_bin_start(self, tmp_path):
        text = HEADER_1 + "chr1\t50\tCG\t3\t1\n"
        path = _write(tmp_path / "t.tsv", text)
        with pytest.raises(DataError, match="multiple of 100"):
            load_methylation_tsv(path)
        # the same offset is legal under a finer bin size
        assert len(load_methylation_tsv(path, bin_size=50)) == 1

    def test_bin_size_must_be_positive(self, tmp_path):
        path = _write(tmp_path / "t.tsv", HEADER_1 + "chr1\t0\tCG\t3\t1\n")
        with pytest.raises(ParameterError, match="bin_size"):
            load_methylation_tsv(path, bin_size=0)
        with pytest.raises(ParameterError, match="bin_size"):
            write_methylation_tsv(path, CountSequence([3], [1]), bin_size=0)

    def test_zero_coverage_is_legal(self, tmp_path):
        text = HEADER_1 + "chr1\t0\tCG\t0\t0\n"
        path = _write(tmp_path / "t.tsv", text)
        seq = load_methylation_tsv(path)
        assert seq.coverage[0, 0] == 0


class TestModelFiles:
    def _model(self):
        return ModelFile(
            num_states=2,
            num_cells=1,
            granularity=30,
            initial_dist=np.array([1.0 / 3.0, 2.0 / 3.0]),
            transition=np.array([[0.9, np.sqrt(0.5)], [0.1, 1.0 - np.sqrt(0.5)]]),
            meth_probs=np.array([[0.1234567890123456, 0.9]]),
            prior_weights=np.array([0.037037037037037035]),
            diagnostics={"noise_level": 0.01},
            provenance={"command": "test"},
        )

    def test_save_load_is_bit_exact(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.initial_dist, model.initial_dist)
        assert np.array_equal(loaded.transition, model.transition)
        assert np.array_equal(loaded.meth_probs, model.meth_probs)
        assert np.array_equal(loaded.prior_weights, model.prior_weights)
        assert loaded.diagnostics == model.diagnostics
        assert loaded.provenance == model.provenance
        assert loaded.schema_version == SCHEMA_VERSION
        params = loaded.to_params()
        assert params.num_states == 2

    def test_save_twice_is_byte_identical(self, tmp_path):
        model = self._model()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, a)
        save_model(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_prior_weights_roundtrip_as_none(self, tmp_path):
        model = self._model()
        model.prior_weights = None
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path).prior_weights is None

    def test_future_schema_is_rejected(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["schema_version"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="newer than supported"):
            load_model(path)

    @pytest.mark.parametrize("version", ["1", None, [1], True, 0.5, 1.0, 0, -3])
    def test_schema_version_not_a_positive_integer_is_malformed(self, tmp_path, version):
        path = tmp_path / "model.json"
        save_model(self._model(), path)
        payload = json.loads(path.read_text())
        payload["schema_version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="malformed model file"):
            load_model(path)

    def test_truncated_json(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(self._model(), path)
        path.write_text(path.read_text()[:40])
        with pytest.raises(DataError, match="not valid JSON"):
            load_model(path)

    def test_missing_schema_version(self, tmp_path):
        path = _write(tmp_path / "model.json", json.dumps({"num_states": 2}))
        with pytest.raises(DataError, match="missing schema_version"):
            load_model(path)

    def test_non_object_payload(self, tmp_path):
        path = _write(tmp_path / "model.json", json.dumps([1, 2, 3]))
        with pytest.raises(DataError, match="missing schema_version"):
            load_model(path)

    def test_missing_field_is_malformed(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(self._model(), path)
        payload = json.loads(path.read_text())
        del payload["transition"]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="malformed"):
            load_model(path)

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(self._model(), path)
        payload = json.loads(path.read_text())
        payload["num_states"] = 3
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="does not match"):
            load_model(path)


class TestFileDigest:
    def test_known_hash(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"hello\n")
        assert (
            file_digest(path)
            == "5891b5b522d5df086d0ff0b110fbd9d21bb4fc7163af34d08286a2e846f6be03"
        )

    def test_distinct_content_distinct_digest(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_bytes(b"one")
        b.write_bytes(b"two")
        assert file_digest(a) != file_digest(b)

    def test_file_of_several_blocks_in_one_buffer(self, tmp_path):
        # 6 MB and a short last read: the digest is hashlib's, and the peak is
        # the one _CHUNK_BYTES buffer (measured 0.25 MiB; 2.0 MiB with the
        # fresh 1 MB bytes object per read it replaced)
        import hashlib

        data = np.random.default_rng(0).bytes(6 * 2**20 + 1234)
        path = tmp_path / "blob"
        path.write_bytes(data)
        tracemalloc.start()
        try:
            digest = file_digest(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert digest == hashlib.sha256(data).hexdigest()
        assert peak < 0.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestBadBytes:
    def test_non_utf8_byte_names_the_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_bytes(HEADER_1.encode() + b"chr1\t0\tCG\t5\t2\r\nchr\xe91\t100\tCG\t3\t0\n")
        with pytest.raises(DataError, match=r"t\.tsv:3: not valid UTF-8"):
            load_methylation_tsv(path)

    def test_count_above_int64_names_the_line(self, tmp_path):
        text = HEADER_1 + "chr1\t0\tCG\t5\t2\nchr1\t100\tCG\t99999999999999999999\t1\n"
        path = _write(tmp_path / "t.tsv", text)
        with pytest.raises(DataError, match=r"t\.tsv:3: .*64-bit"):
            load_methylation_tsv(path)


# --- the columnar reader and writer against the row-by-row reference ---------

BLANK_LINES = ("", " ", "\t", " \t ", "\t\t\t\t", "\x0b", "\x0c", "\x1c", "\xa0", " ", "　")
ODD_COUNTS = ("-1", "+3", " 7", "007", "-0", "five", "", " ", "2.0", "0x1", "7\x1c", "\x1f7")


def _outcome(load, *args, **kwargs):
    """What a loader returns, or the DataError message it raises."""
    try:
        result = load(*args, **kwargs)
    except DataError as exc:
        return ("error", str(exc))
    assert result.coverage.dtype == result.meth.dtype == np.int64
    return ("sequence", result.coverage.tolist(), result.meth.tolist())


def _assert_same_as_reference(path, context_filter=None, merge_replicates=False, bin_size=100):
    assert _outcome(
        load_methylation_tsv, path, context_filter=context_filter,
        merge_replicates=merge_replicates, bin_size=bin_size,
    ) == _outcome(
        reference_load_tsv, path, context_filter=context_filter,
        merge_replicates=merge_replicates, bin_size=bin_size,
    )


@st.composite
def _count_tables(draw):
    """Text of a count table: mostly valid rows, some blank, some broken."""
    cells = draw(st.integers(1, 3))
    header = ["chrom", "bin_start", "context"]
    for j in range(1, cells + 1):
        header += [f"cov_{j}", f"meth_{j}"]
    if draw(st.integers(0, 15)) == 0:
        header[draw(st.integers(0, len(header) - 1))] = "pos"
    lines = ["\t".join(header)]
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(BLANK_LINES)))
            continue
        fields = [
            draw(st.sampled_from(["chr1", "chrX", "chrÜ", "chr x", "#c", "c d", ""])),
            str(100 * draw(st.integers(0, 4))),
            draw(st.sampled_from(["CG", "CHH", "CG "])),
        ]
        for _ in range(cells):
            cov = draw(st.integers(0, 40))
            meth = draw(st.integers(0, cov)) if draw(st.integers(0, 40)) else cov + 1
            fields += [str(cov), str(meth)]
        if draw(st.integers(0, 30)) == 0:
            fields[1] = draw(st.sampled_from(["50", "-100", "x", " 200", "+300"]))
        if draw(st.integers(0, 30)) == 0:
            fields[draw(st.integers(3, len(fields) - 1))] = draw(st.sampled_from(ODD_COUNTS))
        if draw(st.integers(0, 40)) == 0:
            fields = fields[:-1] if draw(st.booleans()) else fields + ["1"]
        lines.append("\t".join(fields))
    endings = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if not draw(st.booleans()):
        endings[-1] = ""
    return "".join(line + end for line, end in zip(lines, endings))


def _check_first_bad_line_wins(tmp_path):
    """Bad rows far apart in a table of 3000: the first one is named each time."""
    rows = [f"chr1\t{100 * t}\tCG\t9\t{t % 10}" for t in range(3000)]
    rows[2500] = "chr1\t250000\tCG\t9"  # wrong field count
    rows[2100] = "chr1\t210000\tCG\t9\tlots"  # not an integer
    rows[1700] = "chr1\t170000\tCG\t99999999999999999999\t2"  # beyond int64
    path = _write(tmp_path / "t.tsv", HEADER_1 + "\n".join(rows) + "\n")
    with pytest.raises(DataError, match=r"t\.tsv:1702: .*64-bit"):
        load_methylation_tsv(path)
    rows[1700] = "chr1\t170000\tCG\t9\t2"
    path = _write(tmp_path / "t.tsv", HEADER_1 + "\n".join(rows) + "\n")
    _assert_same_as_reference(path)
    rows[900] = "chr1\t90000\tCG\t2\t3"  # meth above coverage
    path = _write(tmp_path / "t.tsv", HEADER_1 + "\n".join(rows) + "\n")
    _assert_same_as_reference(path)


class TestReaderMatchesRowParser:
    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        text=_count_tables(),
        context_filter=st.sampled_from([None, "CG"]),
        merge_replicates=st.booleans(),
        bin_size=st.sampled_from([50, 100]),
    )
    def test_generated_tables(self, tmp_path, text, context_filter, merge_replicates, bin_size):
        path = tmp_path / "t.tsv"
        path.write_bytes(text.encode("utf-8"))
        _assert_same_as_reference(path, context_filter, merge_replicates, bin_size)

    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        text=_count_tables(),
        context_filter=st.sampled_from([None, "CG"]),
        chunk_bytes=st.sampled_from([1, 7, 64]),
    )
    def test_generated_tables_in_small_chunks(self, tmp_path, text, context_filter, chunk_bytes):
        path = tmp_path / "t.tsv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(io_module, "_CHUNK_BYTES", chunk_bytes)
            _assert_same_as_reference(path, context_filter)

    @pytest.mark.parametrize(
        "text, bin_size",
        [
            ("", 100),
            ("chrom\tpos\tcontext\tcov_1\tmeth_1\n", 100),
            ("chrom\tbin_start\tcontext\n", 100),
            ("chrom\tbin_start\tcontext\tcov_1\tmeth_2\n", 100),
            (HEADER_1 + "chr1\t0\tCG\t5\t2\nchr1\t100\tCG\t3\n", 100),
            (HEADER_1 + "chr1\t0\tCG\tfive\t2\n", 100),
            (HEADER_1 + "chr1\t0\tCG\t3\t4\n", 100),
            (HEADER_1 + "chr1\t50\tCG\t3\t1\n", 100),
            (HEADER_1 + "chr1\t50\tCG\t3\t1\n", 50),
            (HEADER_1 + "chr1\t0\tCG\t0\t0\n", 100),
            # int() does not strip the ASCII control bytes \x1c-\x1f
            (HEADER_1 + "chr1\t0\tCG\t7\x1c\t2\n", 100),
            (HEADER_1 + "chr1\t0\tCG\t9\t\x1f7\n", 100),
        ],
    )
    def test_malformed_table_cases(self, tmp_path, text, bin_size):
        path = _write(tmp_path / "t.tsv", text)
        _assert_same_as_reference(path, bin_size=bin_size)

    @pytest.mark.parametrize("ending", ["\r\n", "\r"])
    def test_crlf_and_cr_line_endings(self, tmp_path, ending):
        text = (HEADER_2 + "chr1\t0\tCG\t5\t2\t4\t4\nchr1\t100\tCHH\t3\t0\t1\t0\n").replace("\n", ending)
        path = tmp_path / "t.tsv"
        path.write_bytes(text.encode())
        assert len(load_methylation_tsv(path)) == 2
        _assert_same_as_reference(path, context_filter="CG", merge_replicates=True)

    def test_blank_and_whitespace_lines_and_no_final_newline(self, tmp_path):
        text = HEADER_1 + "\n \t \nchr1\t0\tCG\t5\t2\n　\n\t\t\t\t\nchr1\t100\tCG\t3\t0"
        path = _write(tmp_path / "t.tsv", text)
        assert list(load_methylation_tsv(path).coverage[:, 0]) == [5, 3]
        _assert_same_as_reference(path)

    def test_first_bad_line_wins_in_a_long_table(self, tmp_path):
        _check_first_bad_line_wins(tmp_path)


# --- chunked reading: the outcome does not depend on where the reads fall ---


@pytest.fixture(params=[1, 7, 64])
def chunk_bytes(request, monkeypatch):
    """Bytes per read of the table reader, far below its default."""
    monkeypatch.setattr(io_module, "_CHUNK_BYTES", request.param)
    return request.param


def _assert_same_as_one_chunk(path, **kwargs):
    """The outcome in small reads equals the outcome of one read of the file."""
    chunked = _outcome(load_methylation_tsv, path, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io_module, "_CHUNK_BYTES", 1 << 20)
        assert chunked == _outcome(load_methylation_tsv, path, **kwargs)


def _rows(count):
    return [f"chr1\t{100 * t}\tCG\t{9 + t % 3}\t{t % 10}" for t in range(count)]


class TestChunkBoundaries:
    @pytest.mark.parametrize(
        "row, message",
        [
            ("chr1\t3000\tCG\t9", "expected 5 fields, got 4"),
            ("chr1\t3000\tCG\tnine\t2", "invalid literal for int"),
            ("chr1\t3000\tCG\t99999999999999999999\t2", ".*64-bit"),
            ("chr1\t3000\tCG\t2\t3", r"cell 1 has meth 3 outside \[0, 2\]"),
            ("chr1\t3050\tCG\t9\t2", "bin_start 3050 is not a multiple of 100"),
        ],
    )
    def test_each_error_kind_in_a_later_chunk(self, tmp_path, chunk_bytes, row, message):
        rows = _rows(40)
        rows[30] = row
        path = _write(tmp_path / "t.tsv", HEADER_1 + "\n".join(rows) + "\n")
        with pytest.raises(DataError, match=rf"t\.tsv:32: {message}"):
            load_methylation_tsv(path)
        # the row parser cannot hold counts beyond int64, so one read is the reference
        _assert_same_as_one_chunk(path)

    def test_bad_row_the_filter_would_drop_in_a_later_chunk(self, tmp_path, chunk_bytes):
        rows = _rows(40)
        rows[30] = "chr1\t3000\tCHH\t2\t3"
        path = _write(tmp_path / "t.tsv", HEADER_1 + "\n".join(rows) + "\n")
        with pytest.raises(DataError, match=r"t\.tsv:32: cell 1 has meth 3"):
            load_methylation_tsv(path, context_filter="CG")
        _assert_same_as_reference(path, context_filter="CG")

    def test_crlf_pair_split_across_two_reads(self, tmp_path, chunk_bytes):
        head = HEADER_1.replace("\n", "\r\n").encode()
        tail = "\t0\tCG\t5\t2"
        # a chrom of this length puts the first row's "\r" on a read's last byte
        chrom = "c" * (1 + (-(len(head) + len(tail) + 2)) % chunk_bytes)
        rows = [chrom + tail] + _rows(20)[1:]
        data = head + "\r\n".join(rows).encode() + b"\r\n"
        cr = len(head) + len(chrom) + len(tail)
        assert data[cr : cr + 2] == b"\r\n" and (cr + 1) % chunk_bytes == 0
        path = tmp_path / "t.tsv"
        path.write_bytes(data)
        assert len(load_methylation_tsv(path, context_filter="CG")) == 20
        _assert_same_as_reference(path, context_filter="CG")

    def test_cr_only_file(self, tmp_path, chunk_bytes):
        rows = [
            f"chr1\t{100 * t}\t{'CG' if t % 3 else 'CHH'}\t5\t{t % 6}\t4\t1" for t in range(20)
        ]
        path = tmp_path / "t.tsv"
        path.write_bytes((HEADER_2 + "\n".join(rows)).replace("\n", "\r").encode())
        assert len(load_methylation_tsv(path)) == 20
        _assert_same_as_reference(path, context_filter="CG", merge_replicates=True)

    def test_non_utf8_byte_in_a_later_chunk_outranks_an_earlier_bad_row(
        self, tmp_path, chunk_bytes
    ):
        # the message reading the file whole gives: a byte that is not UTF-8
        # anywhere in the file wins over a bad row before it
        rows = _rows(40)
        rows[3] = "chr1\t300\tCG\t2\t3"
        rows[30] = "chr\xe91\t3000\tCG\t9\t0"
        data = (HEADER_1 + "\n".join(rows) + "\n").encode().replace(b"\xc3\xa9", b"\xe9")
        path = tmp_path / "t.tsv"
        path.write_bytes(data)
        with pytest.raises(
            DataError, match=r"t\.tsv:32: not valid UTF-8 \(invalid continuation byte\)$"
        ):
            load_methylation_tsv(path)
        _assert_same_as_one_chunk(path)

    def test_truncated_utf8_at_the_end_of_the_file(self, tmp_path, chunk_bytes):
        path = tmp_path / "t.tsv"
        path.write_bytes(HEADER_1.encode() + b"chr1\t0\tCG\t5\t2\r\n\nchr\xc3")
        with pytest.raises(
            DataError, match=r"t\.tsv:4: not valid UTF-8 \(unexpected end of data\)$"
        ):
            load_methylation_tsv(path)
        _assert_same_as_one_chunk(path)

    @pytest.mark.parametrize("text", [HEADER_1, HEADER_1.rstrip("\n"), HEADER_1 + "\n \n"])
    def test_header_only(self, tmp_path, chunk_bytes, text):
        path = _write(tmp_path / "t.tsv", text)
        with pytest.raises(DataError, match="no rows left"):
            load_methylation_tsv(path)
        _assert_same_as_reference(path)

    @pytest.mark.parametrize("last", ["meth_4", "meth_5"])
    def test_header_longer_than_a_chunk(self, tmp_path, chunk_bytes, last):
        header = "\t".join(
            ["chrom", "bin_start", "context"]
            + [f"{col}_{j}" for j in range(1, 5) for col in ("cov", "meth")]
        )
        assert len(header) > 64
        header = header[: -len("meth_4")] + last  # meth_5 breaks the header
        rows = [f"chr1\t{100 * t}\tCG" + "\t4\t2" * 4 for t in range(5)]
        path = _write(tmp_path / "t.tsv", header + "\n" + "\n".join(rows) + "\n")
        _assert_same_as_reference(path, merge_replicates=True)

    def test_long_line_is_read_in_linear_time(self, tmp_path, monkeypatch):
        # a 4 MB line in 16-byte reads: joining the reads once copies 4 MB and
        # loads in about 0.3 s; joining each read onto the line so far copies
        # about 500 GB and took over a minute on the same machine
        monkeypatch.setattr(io_module, "_CHUNK_BYTES", 16)
        rows = _rows(3)
        rows[1] = rows[1].replace("chr1", "c" * (4 << 20), 1)
        path = _write(tmp_path / "t.tsv", HEADER_1 + "\n".join(rows) + "\n")
        start = time.perf_counter()
        seq = load_methylation_tsv(path)
        elapsed = time.perf_counter() - start
        assert seq.coverage[:, 0].tolist() == [9, 10, 11]
        assert elapsed < 10, f"{elapsed:.1f} s"

    def test_no_final_newline_and_blank_lines_at_chunk_edges(self, tmp_path, chunk_bytes):
        lines = []
        for t, row in enumerate(_rows(30)):
            lines += [row, BLANK_LINES[t % len(BLANK_LINES)]]
        lines[-1] = "chr1\t3000\tCG\t5\t5"
        path = _write(tmp_path / "t.tsv", HEADER_1 + "\n".join(lines))
        assert len(load_methylation_tsv(path)) == 31
        _assert_same_as_reference(path)

    @pytest.mark.parametrize("chunk", [64, 4096])
    def test_first_bad_line_wins_across_chunks(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(io_module, "_CHUNK_BYTES", chunk)
        _check_first_bad_line_wins(tmp_path)


def _no_line_reader(*args, **kwargs):
    raise AssertionError("the per-line reader ran")


class TestCleanChunks:
    """A chunk whose every line has the right tab count and parses skips the per-line pass."""

    def test_clean_table_runs_no_per_line_path(self, tmp_path, monkeypatch):
        gen = np.random.default_rng(4)
        cov = gen.integers(0, 40, size=20_000)
        seq = CountSequence(cov, gen.binomial(cov, 0.4))
        path = tmp_path / "t.tsv"
        write_methylation_tsv(path, seq)
        monkeypatch.setattr(io_module, "_read_line", _no_line_reader)
        loaded = load_methylation_tsv(path)
        assert np.array_equal(loaded.coverage, seq.coverage)
        assert np.array_equal(loaded.meth, seq.meth)

    @staticmethod
    def _table_with_a_blank_and_a_signed_count(tmp_path):
        rows = _rows(3000)
        rows[1500] = "\t\t\t\t"  # whitespace only, with the right tab count
        rows[2200] = "chr1\t220000\tCG\t9\t+3"
        return _write(tmp_path / "t.tsv", HEADER_1 + "\n".join(rows) + "\n")

    def test_odd_rows_at_the_default_chunk_size(self, tmp_path):
        path = self._table_with_a_blank_and_a_signed_count(tmp_path)
        seq = load_methylation_tsv(path)
        assert len(seq) == 2999 and seq.meth[2199, 0] == 3
        _assert_same_as_reference(path)

    def test_odd_rows_in_small_chunks(self, tmp_path, chunk_bytes):
        path = self._table_with_a_blank_and_a_signed_count(tmp_path)
        assert len(load_methylation_tsv(path)) == 2999
        _assert_same_as_reference(path)

    def test_only_the_rows_the_byte_parser_cannot_read_are_read_per_line(
        self, tmp_path, monkeypatch
    ):
        rows = _rows(3000)
        rows[400] = "chr1\t40000\tCG\t-0\t+0"  # signed
        rows[1100] = "chr1\t110000\tCG\t  12 \t 3"  # space-padded
        rows[1900] = " \t \t \t \t "  # whitespace only
        rows[2600] = "chr1\t260000\tCG\t9\t\xa02"  # padded with a no-break space
        path = _write(tmp_path / "t.tsv", HEADER_1 + "\n".join(rows) + "\n")
        read = []
        read_line = io_module._read_line

        def spy(line, *args):
            read.append(line)
            return read_line(line, *args)

        monkeypatch.setattr(io_module, "_read_line", spy)
        seq = load_methylation_tsv(path)
        assert read == [rows[1900], rows[2600]]
        assert len(seq) == 2999
        assert seq.coverage[[400, 1100, 2599], 0].tolist() == [0, 12, 9]
        assert seq.meth[[400, 1100, 2599], 0].tolist() == [0, 3, 2]
        _assert_same_as_reference(path)

    @pytest.mark.parametrize("context_filter", [None, "CG"])
    def test_rows_read_per_line_keep_their_place(self, tmp_path, any_chunk_bytes, context_filter):
        # a control byte in a chrom breaks a row's separators, a count padded
        # with more spaces than the byte parser strips fails its digits, and a
        # 19-digit count is too wide: each row is read per line, in file order
        rows = _rows(60)
        rows[7] = "chr\x01\t700\tCG\t8\t1"
        rows[8] = "\x02\t800\tCHH\t5\t5"
        rows[30] = "chr1\t3000\tCG\t" + " " * 20 + "6\t0"
        rows[45] = f"chr1\t4500\tCG\t{2**63 - 1}\t{10**18}"
        path = _write(tmp_path / "t.tsv", HEADER_1 + "\n".join(rows) + "\n")
        seq = load_methylation_tsv(path, context_filter=context_filter)
        assert len(seq) == (60 if context_filter is None else 59)
        _assert_same_as_reference(path, context_filter=context_filter)


@pytest.fixture(params=[None, 1, 7, 64])
def any_chunk_bytes(request, monkeypatch):
    """Bytes per read of the table reader: its default, or far below it."""
    if request.param is not None:
        monkeypatch.setattr(io_module, "_CHUNK_BYTES", request.param)
    return request.param


class TestByteParser:
    """Blocks are read from their digit bytes, with the values int() reads."""

    @pytest.mark.parametrize("digits", [1, 8, 9, 18, 19])
    def test_field_widths(self, tmp_path, any_chunk_bytes, digits):
        small = 10 ** (digits - 1)  # the smallest and largest counts of this width
        large = 2**63 - 1 if digits == 19 else 10 * small - 1
        bin_start = small if digits >= 3 else 0  # a multiple of 100
        rows = _rows(30)
        rows[5] = f"chr1\t{bin_start}\tCG\t{small}\t{small}"
        rows[6] = f"chr1\t{bin_start}\tCG\t{large}\t{small}"
        rows[7] = "chr1\t0\tCG\t007\t0"
        path = _write(tmp_path / "t.tsv", HEADER_1 + "\n".join(rows) + "\n")
        seq = load_methylation_tsv(path)
        assert seq.coverage[5:8, 0].tolist() == [small, large, 7]
        _assert_same_as_reference(path)

    @pytest.mark.parametrize("cov", [10**18 - 1, 10**18, 2**63 - 1])
    def test_counts_near_the_int64_limit(self, tmp_path, any_chunk_bytes, cov):
        rows = _rows(30)
        rows[20] = f"chr1\t2000\tCG\t{cov}\t{cov - 1}"
        path = _write(tmp_path / "t.tsv", HEADER_1 + "\n".join(rows) + "\n")
        seq = load_methylation_tsv(path)
        assert (seq.coverage[20, 0], seq.meth[20, 0]) == (cov, cov - 1)
        _assert_same_as_reference(path)

    def test_count_of_two_to_the_63_names_its_line(self, tmp_path, any_chunk_bytes):
        rows = _rows(30)
        rows[20] = f"chr1\t2000\tCG\t{2**63}\t1"
        path = _write(tmp_path / "t.tsv", HEADER_1 + "\n".join(rows) + "\n")
        with pytest.raises(DataError, match=r"t\.tsv:22: .*64-bit"):
            load_methylation_tsv(path)

    def test_trailing_space_is_the_only_fault(self, tmp_path, any_chunk_bytes):
        rows = _rows(3000)
        rows[1800] = "chr1\t180000\tCG\t9\t2 "
        path = _write(tmp_path / "t.tsv", HEADER_1 + "\n".join(rows) + "\n")
        assert load_methylation_tsv(path).meth[1800, 0] == 2
        _assert_same_as_reference(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_empty_lines_stay_in_the_byte_parser(self, tmp_path, monkeypatch, any_chunk_bytes,
                                                 newline):
        # empty lines first, last, alone and in runs, so blocks start with one
        lines = ["", *_rows(40), "", ""]
        lines[10:10] = ["", "", ""]
        lines[30:30] = [""]
        path = tmp_path / "t.tsv"
        path.write_bytes((HEADER_1 + "\n".join(lines) + "\n").replace("\n", newline).encode())
        expected = _outcome(reference_load_tsv, path, context_filter="CG")
        monkeypatch.setattr(io_module, "_read_line", _no_line_reader)
        assert _outcome(load_methylation_tsv, path, context_filter="CG") == expected
        assert len(expected[1]) == 40

    @pytest.mark.parametrize(
        "text",
        [
            # a "\r" not right before its "\n" ends a line, and " " is a blank line
            HEADER_1 + "\n".join(_rows(30)).replace("\t0\n", "\t0\r \n", 1) + "\n",
            _crlf(HEADER_1 + "\n".join(_rows(30)) + "\n").replace("\t0\r\n", "\t0\r \n", 1),
            # a lone "\r" in a chrom ends a line there
            _crlf(HEADER_1 + "chr1\t0\tCG\t5\t2\nch\rr1\t100\tCG\t5\t2\n"),
            # as many "\r" as lines, but a blank line ends in one and a row in "\n" alone
            _crlf(HEADER_1) + "\rchr1\t0\tCG\t15\t12\nchr1\t100\tCG\t5\t2\r\n",
            # "\n" and "\r\n" rows in one block
            HEADER_1 + "".join(
                row + ("\r\n" if t % 3 else "\n") for t, row in enumerate(_rows(30))
            ),
            # no line end after the last line of a "\r\n" table
            _crlf(HEADER_2 + "chr1\t0\tCG\t5\t2\t4\t4\nchrÜ\t100\tCHH\t3\t0\t1\t0"),
        ],
        ids=["lf-cr-space", "crlf-cr-space", "cr-in-chrom", "cr-count-matches", "mixed", "crlf-no-end"],
    )
    def test_lone_cr_and_mixed_line_ends(self, tmp_path, any_chunk_bytes, text):
        path = tmp_path / "t.tsv"
        path.write_bytes(text.encode())
        _assert_same_as_reference(path, context_filter="CG")

    def test_crlf_bad_row_then_a_non_utf8_byte_in_a_later_block(self, tmp_path, monkeypatch):
        # the byte's line number counts every line of the block with the bad row
        monkeypatch.setattr(io_module, "_CHUNK_BYTES", 1024)
        rows = _rows(400)
        rows[3] = "chr1\t300\tCG\t2\t3"
        rows[300] = "chr\xe91\t30000\tCG\t9\t0"
        data = _crlf(HEADER_1 + "\n".join(rows) + "\n").encode().replace(b"\xc3\xa9", b"\xe9")
        assert data.index(b"\xe9") > 2 * 1024
        path = tmp_path / "t.tsv"
        path.write_bytes(data)
        with pytest.raises(
            DataError, match=r"t\.tsv:302: not valid UTF-8 \(invalid continuation byte\)$"
        ):
            load_methylation_tsv(path)
        path.write_bytes(data.replace(b"\xe9", b"e"))
        with pytest.raises(DataError, match=r"t\.tsv:5: cell 1 has meth 3 outside \[0, 2\]$"):
            load_methylation_tsv(path)

    @pytest.mark.parametrize("ending", [b"\n", b"\r\n"])
    @pytest.mark.parametrize("chrom", ["sim", "chrÜ"])
    def test_clean_table_never_calls_the_line_reader(self, tmp_path, monkeypatch, ending, chrom):
        gen = np.random.default_rng(5)
        cov = gen.integers(0, 40, size=(20_000, 2))
        seq = CountSequence(cov, gen.binomial(cov, 0.4))
        path = tmp_path / "t.tsv"
        write_methylation_tsv(path, seq, chrom=chrom)
        path.write_bytes(path.read_bytes().replace(b"\n", ending))
        monkeypatch.setattr(io_module, "_read_line", _no_line_reader)
        for context_filter in (None, "CG"):
            loaded = load_methylation_tsv(path, context_filter=context_filter)
            assert np.array_equal(loaded.coverage, seq.coverage)
            assert np.array_equal(loaded.meth, seq.meth)


class TestBadBytesPastTheFirstDecodeBlock:
    """A byte that is not UTF-8 far into a table, past its first 8 KB and 64 KB."""

    @staticmethod
    def _table(ending, tail):
        rows = _rows(4000)  # about 100 KB, so also past the first 64 KB chunk
        text = (HEADER_1 + "\n".join(rows) + "\n").replace("\n", ending)
        return text.encode() + tail

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize(
        "bad, reason",
        [
            (b"\xff", "invalid start byte"),
            (b"\xe2\x82", "invalid continuation byte"),
            (b"\xed\xa0\x80", "invalid continuation byte"),
        ],
    )
    @pytest.mark.parametrize("row", [2000, 3999])
    def test_line_and_reason(self, tmp_path, ending, bad, reason, row):
        data = self._table(ending, b"")
        start = data.index(f"chr1\t{100 * row}\t".encode())
        assert start > 8192
        path = tmp_path / "t.tsv"
        path.write_bytes(data[:start + 3] + bad + data[start + 4 :])
        message = rf"t\.tsv:{row + 2}: not valid UTF-8 \({reason}\)$"
        with pytest.raises(DataError, match=message):
            load_methylation_tsv(path)

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_truncated_last_line(self, tmp_path, ending):
        path = tmp_path / "t.tsv"
        path.write_bytes(self._table(ending, b"chr\xe2\x82"))
        message = r"t\.tsv:4002: not valid UTF-8 \(unexpected end of data\)$"
        with pytest.raises(DataError, match=message):
            load_methylation_tsv(path)


class TestLoadMemory:
    def test_peak_is_a_few_times_the_returned_columns(self, tmp_path):
        # a table of 100k rows takes about 2 MB of text, and a Python string per
        # line about 6 MB more; chunked reading holds one chunk's lines, so the
        # peak is set by the int64 columns (measured: 3.1x the returned bytes,
        # 8.8x when the whole file was split into lines)
        gen = np.random.default_rng(3)
        cov = gen.integers(0, 40, size=100_000)
        path = tmp_path / "t.tsv"
        write_methylation_tsv(path, CountSequence(cov, gen.binomial(cov, 0.4)))
        tracemalloc.start()
        try:
            seq = load_methylation_tsv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = seq.coverage.nbytes + seq.meth.nbytes
        assert peak < 5 * returned, f"peak {peak / returned:.1f}x the returned bytes"

    def test_peak_holds_the_counts_about_once(self, tmp_path):
        # the 100k-row table of the test above: 1.53 MiB of int64 columns are
        # returned, and each block keeps its counts in the smallest type that
        # holds them (uint8 here) until the columns are filled. Measured
        # peak: 2.28 MiB, against 3.21 MiB when the blocks kept int64 counts
        gen = np.random.default_rng(3)
        cov = gen.integers(0, 40, size=100_000)
        path = tmp_path / "t.tsv"
        write_methylation_tsv(path, CountSequence(cov, gen.binomial(cov, 0.4)))
        tracemalloc.start()
        try:
            load_methylation_tsv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("ending", [b"\r\n", b"\r"])
    def test_peak_with_crlf_and_cr_line_ends(self, tmp_path, ending):
        # the \r\n table is read as it stands; each block of the \r one is
        # copied with its line ends turned into \n first
        gen = np.random.default_rng(3)
        cov = gen.integers(0, 40, size=100_000)
        path = tmp_path / "t.tsv"
        write_methylation_tsv(path, CountSequence(cov, gen.binomial(cov, 0.4)))
        path.write_bytes(path.read_bytes().replace(b"\n", ending))
        tracemalloc.start()
        try:
            seq = load_methylation_tsv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(seq.coverage[:, 0], cov)
        returned = seq.coverage.nbytes + seq.meth.nbytes
        assert peak < 5 * returned, f"peak {peak / returned:.1f}x the returned bytes"


class TestWriterMatchesRowWriter:
    @pytest.mark.parametrize("chrom, context, bin_size", [("sim", "CG", 100), ("chrÜ", "CHH", 7)])
    def test_two_cell_bytes(self, tmp_path, rng, chrom, context, bin_size):
        cov = rng.integers(0, 1000, size=(400, 2))
        cov[:3] = [[0, 9], [10, 99], [100, 1000]]  # digit-count edges; a column max of 10**3
        meth = (cov * rng.uniform(size=cov.shape)).astype(np.int64)
        seq = CountSequence(cov, meth)
        new, ref = tmp_path / "new.tsv", tmp_path / "ref.tsv"
        write_methylation_tsv(new, seq, chrom=chrom, context=context, bin_size=bin_size)
        reference_write_tsv(ref, seq, chrom=chrom, context=context, bin_size=bin_size)
        assert new.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize(
        "case", ["two cells", "digits grow in the last chunk", "an all-zero chunk", "a non-ASCII chrom"]
    )
    def test_chunks_match_row_writer(self, tmp_path, rng, case):
        # two whole chunks and three rows; with bin_size 100, bin_start reaches
        # 8 digits at row 100,000, inside the second chunk
        rows = 2 * io_module._WRITE_ROWS + 3
        cells = 2 if case == "two cells" else 1
        cov = rng.integers(0, 1000, size=(rows, cells))
        if case == "digits grow in the last chunk":
            cov %= 10
            cov[-2] = 123_456
        elif case == "an all-zero chunk":
            cov[io_module._WRITE_ROWS : 2 * io_module._WRITE_ROWS] = 0
        meth = (cov * rng.uniform(size=cov.shape)).astype(np.int64)
        chrom = "chrÜ" if case == "a non-ASCII chrom" else "sim"
        seq = CountSequence(cov, meth)
        new, ref = tmp_path / "new.tsv", tmp_path / "ref.tsv"
        write_methylation_tsv(new, seq, chrom=chrom)
        reference_write_tsv(ref, seq, chrom=chrom)
        assert new.read_bytes() == ref.read_bytes()

    def test_empty_sequence(self, tmp_path):
        seq = CountSequence(np.zeros((0, 2), dtype=np.int64), np.zeros((0, 2), dtype=np.int64))
        new, ref = tmp_path / "new.tsv", tmp_path / "ref.tsv"
        write_methylation_tsv(new, seq)
        reference_write_tsv(ref, seq)
        assert new.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize(
        "field, value",
        [("chrom", "chr\t1"), ("chrom", "chr\r1"), ("chrom", "chr\n1"),
         ("context", "C\tG"), ("context", "CG\r")],
    )
    def test_field_the_reader_cannot_read_back(self, tmp_path, field, value):
        seq = CountSequence(np.array([5, 3]), np.array([2, 0]))
        path = tmp_path / "t.tsv"
        with pytest.raises(ParameterError, match=f"{field} must hold no tab or line end"):
            write_methylation_tsv(path, seq, **{field: value})
        assert not path.exists()


class TestWriteMemory:
    @pytest.mark.parametrize("rows", [300_000, 1_200_000])
    def test_peak_does_not_grow_with_length(self, tmp_path, rows):
        # rows are formatted one chunk at a time. Measured: 4.70 MiB at 300k
        # rows and 4.89 MiB at 1.2M, against 38 and 154 MiB when every row
        # was laid out at once
        gen = np.random.default_rng(3)
        cov = gen.integers(0, 40, size=rows)
        seq = CountSequence(cov, gen.binomial(cov, 0.4))
        tracemalloc.start()
        try:
            write_methylation_tsv(tmp_path / "t.tsv", seq)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, f"peak {peak / 2**20:.2f} MiB"
