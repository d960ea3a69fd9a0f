import json

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
from betahmm.io import SCHEMA_VERSION
from oracles import reference_load_records, reference_load_tsv, reference_write_tsv


def _write(path, text):
    path.write_text(text)
    return path


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
ODD_COUNTS = ("-1", "+3", " 7", "007", "-0", "five", "", " ", "2.0", "0x1")


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

    def test_empty_sequence(self, tmp_path):
        seq = CountSequence(np.zeros((0, 2), dtype=np.int64), np.zeros((0, 2), dtype=np.int64))
        new, ref = tmp_path / "new.tsv", tmp_path / "ref.tsv"
        write_methylation_tsv(new, seq)
        reference_write_tsv(ref, seq)
        assert new.read_bytes() == ref.read_bytes()
