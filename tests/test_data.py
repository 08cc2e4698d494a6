"""Direct tests of the generator, the anomaly planting, the CSV format and
the 40/10/50 split."""
import csv
import hashlib

import numpy as np
import pytest

from collate import cli, data
from collate.data import AnomalyKind, AnomalySpan, LabeledSeries
from collate.errors import InsufficientRoom, MissingColumn, ParseError, TooShort


def labels_of(spans, length):
    y = np.zeros(length, dtype=np.int64)
    for s in spans:
        y[s.start : s.end] = 1
    return y


class TestGenerator:
    def test_each_step_follows_the_equation_within_the_noise(self):
        x = data.gen_mackey_glass(500, seed=4).values[:, 0]
        assert x[0] == data.HISTORY_INIT
        delayed = np.concatenate([np.full(data.TAU, data.HISTORY_INIT), x[: -data.TAU]])[:-1]
        drift = data.A * delayed / (1.0 + delayed**data.EXPONENT) - data.B * x[:-1]
        residual = x[1:] - x[:-1] - data.STEP * drift
        assert np.abs(residual).max() <= data.NOISE_AMPLITUDE * (1 + 1e-9)
        assert np.abs(residual).max() > 0.9 * data.NOISE_AMPLITUDE

    def test_seeded_and_unlabeled(self):
        a, b = data.gen_mackey_glass(300, seed=1), data.gen_mackey_glass(300, seed=1)
        np.testing.assert_array_equal(a.values, b.values)
        assert not a.labels.any() and a.spans == []
        assert not np.array_equal(a.values, data.gen_mackey_glass(300, seed=2).values)

    def test_length_must_exceed_the_delay(self):
        with pytest.raises(ValueError, match="length must exceed the delay"):
            data.gen_mackey_glass(data.TAU, seed=0)

    @pytest.mark.parametrize("length", [data.TAU + 1, 500, 20_000])
    def test_matches_the_numpy_scalar_loop_bit_for_bit(self, length):
        for seed in range(3):
            series = data.gen_mackey_glass(length, seed)
            assert np.array_equal(series.values[:, 0], _reference_gen_mackey_glass(length, seed))


def _reference_gen_mackey_glass(length, seed):
    """The generator's Euler loop on numpy scalars, frozen as the reference
    for its bits: each step is x + STEP * drift + noise, in that order."""
    rng = np.random.default_rng(seed)
    x = np.empty(length)
    x[0] = data.HISTORY_INIT
    noise = rng.uniform(-data.NOISE_AMPLITUDE, data.NOISE_AMPLITUDE, length)
    for t in range(length - 1):
        xd = x[t - data.TAU] if t - data.TAU >= 0 else data.HISTORY_INIT
        drift = data.A * xd / (1.0 + xd**data.EXPONENT) - data.B * x[t]
        x[t + 1] = x[t] + data.STEP * drift + noise[t + 1]
    return x


class TestPlanting:
    @pytest.fixture(scope="class")
    def base(self):
        return data.gen_mackey_glass(3000, seed=5)

    def test_spans_do_not_overlap_and_labels_are_their_union(self, base):
        series = data.insert_contextual_anomalies(base, 6, seed=1)
        series = data.insert_point_anomalies(series, 6, seed=2)
        spans = sorted(series.spans, key=lambda s: s.start)
        assert len(spans) == 12
        assert all(s1.end <= s2.start for s1, s2 in zip(spans[:-1], spans[1:]))
        np.testing.assert_array_equal(series.labels, labels_of(spans, series.length))
        lo, hi = data.SPAN_RANGE
        for s in spans:
            if s.kind is AnomalyKind.CONTEXTUAL:
                assert lo <= s.end - s.start <= hi
            else:
                assert s.end - s.start == 1
                # a point keeps one normal slot between it and any other span
                others = labels_of([o for o in spans if o != s], series.length)
                assert not others[max(s.start - 1, 0) : s.start + 2].any()

    def test_contextual_span_copies_a_later_segment(self, base):
        series = data.insert_contextual_anomalies(base, 1, seed=3)
        (span,) = series.spans
        length = span.end - span.start
        x, x0 = series.values[:, 0], base.values[:, 0]
        outside = np.ones(series.length, dtype=bool)
        outside[span.start : span.end] = False
        np.testing.assert_array_equal(x[outside], x0[outside])
        assert not np.array_equal(x[span.start : span.end], x0[span.start : span.end])
        offsets = [
            off for off in range(length, series.length - span.end)
            if np.array_equal(x[span.start : span.end], x0[span.start + off : span.end + off])
        ]
        assert offsets

    def test_point_is_shifted_by_the_magnitude_times_std(self, base):
        series = data.insert_point_anomalies(base, 1, seed=4)
        (span,) = series.spans
        diff = series.values[:, 0] - base.values[:, 0]
        assert np.flatnonzero(diff).tolist() == [span.start]
        assert abs(diff[span.start]) == pytest.approx(
            data.POINT_MAGNITUDE * base.values.std(), rel=1e-12
        )

    def test_region_too_small_raises(self, base):
        with pytest.raises(InsufficientRoom):
            data.insert_contextual_anomalies(base, 2, seed=0, region=(100, 101))
        with pytest.raises(InsufficientRoom):
            data.insert_point_anomalies(base, 2, seed=0, region=(100, 102))


def _reference_save_csv(series, path):
    """The row-by-row ``csv.writer`` saver that ``save_csv`` replaced."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["t"] + [f"dim_{d}" for d in range(series.dims)]
        if series.has_labels:
            header.append("label")
        writer.writerow(header)
        for i in range(series.length):
            row = [str(series.start_index + i)] + [repr(float(v)) for v in series.values[i]]
            if series.has_labels:
                row.append(str(int(series.labels[i])))
            writer.writerow(row)


def _reference_load_csv(path):
    """The row-by-row ``csv.reader`` loader that ``load_csv`` replaced."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        if not header or header[0] != "t":
            raise MissingColumn("first column must be 't'")
        dim_cols = [h for h in header if h.startswith("dim_")]
        if not dim_cols:
            raise MissingColumn("no dim_* columns present")
        expected = [f"dim_{d}" for d in range(len(dim_cols))]
        if dim_cols != expected:
            raise MissingColumn(f"dim columns must be contiguous from dim_0, got {dim_cols}")
        has_labels = header[-1] == "label"
        width = 1 + len(dim_cols) + (1 if has_labels else 0)
        values, labels, start = [], [], None
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                raise ParseError(f"expected {width} fields, got {len(row)}", line=lineno)
            try:
                t = int(row[0])
                vals = [float(v) for v in row[1 : 1 + len(dim_cols)]]
                lab = int(row[-1]) if has_labels else 0
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            if has_labels and lab not in (0, 1):
                raise ParseError(f"label must be 0 or 1, got {lab}", line=lineno)
            if start is None:
                start = t
            values.append(vals)
            labels.append(lab)
        if not values:
            raise ParseError("no data rows", line=2)
    values = np.asarray(values)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ParseError("value is not finite", line=int(np.argmin(finite)) + 2)
    return LabeledSeries(
        values=values,
        labels=np.asarray(labels) if has_labels else None,
        spans=[],
        start_index=start or 0,
    )


def _series(dims, labelled, length=40, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(length, dims)) * 10.0 ** rng.integers(-300, 300, (length, dims))
    values[0] = [-0.0, 5e-324, np.nextafter(1.0, 0.0)][:dims]
    labels = rng.integers(0, 2, length) if labelled else None
    return LabeledSeries(values=values, labels=labels, start_index=17)


# (header, rows): each breaks the schema in one way; a row is a list of fields
GOOD = ("t,dim_0,dim_1,label", ["5,1.5,-2.0,0", "6,0.25,3e-300,1", "7,2.0,4.0,0"])
BAD_CSV = {
    "bad float": (GOOD[0], ["5,1.5,-2.0,0", "6,0.2x5,3.0,1", "7,2.0,4.0,0"]),
    "wrong width": (GOOD[0], ["5,1.5,-2.0,0", "6,0.25,1", "7,2.0,4.0,0"]),
    "extra field": (GOOD[0], ["5,1.5,-2.0,0", "6,0.25,3.0,1,9"]),
    "label 2": (GOOD[0], ["5,1.5,-2.0,0", "6,0.25,3.0,2"]),
    "label not an integer": (GOOD[0], ["5,1.5,-2.0,0", "6,0.25,3.0,1.0"]),
    "nan": (GOOD[0], ["5,1.5,-2.0,0", "6,0.25,nan,1", "7,2.0,4.0,0"]),
    "inf": (GOOD[0], ["5,1.5,-2.0,0", "6,inf,3.0,1"]),
    "-inf": ("t,dim_0", ["5,1.5", "6,-inf"]),
    "overflow to inf": ("t,dim_0", ["5,1e400"]),
    "nan before a bad float": (GOOD[0], ["5,nan,-2.0,0", "6,0.25,x,1"]),
    "nan before label 2": (GOOD[0], ["5,nan,-2.0,0", "6,0.25,1.0,2"]),
    "t = 1.5": (GOOD[0], ["5,1.5,-2.0,0", "1.5,0.25,3.0,1"]),
    "t = 1e3": ("t,dim_0", ["1e3,0.25"]),
    "blank line": (GOOD[0], ["5,1.5,-2.0,0", "", "7,2.0,4.0,0"]),
    "blank last line": ("t,dim_0", ["5,1.5", ""]),
    "spaces only": ("t,dim_0", ["5,1.5", "  "]),
    "comment line": ("t,dim_0", ["5,1.5", "# 6,2.5"]),
    "header only": (GOOD[0], []),
    "first column not t": ("time,dim_0", ["5,1.5"]),
    "empty header": ("", ["5,1.5"]),
    "no dim columns": ("t,value,label", ["5,1.5,0"]),
    "dims not contiguous": ("t,dim_0,dim_2", ["5,1.5,2.5"]),
    "dims not from 0": ("t,dim_1", ["5,1.5"]),
}


class TestCsv:
    @pytest.mark.parametrize("labelled", [True, False])
    def test_round_trip_is_bit_exact(self, tmp_path, labelled):
        series = _series(3, labelled)
        data.save_csv(series, tmp_path / "s.csv")
        loaded = data.load_csv(tmp_path / "s.csv")
        assert loaded.values.tobytes() == series.values.tobytes()
        assert loaded.start_index == 17
        if labelled:
            np.testing.assert_array_equal(loaded.labels, series.labels)
        else:
            assert loaded.labels is None
            assert "label" not in (tmp_path / "s.csv").read_text().splitlines()[0]

    @pytest.mark.parametrize("labelled", [True, False])
    @pytest.mark.parametrize("dims", [1, 3])
    def test_save_matches_the_csv_writer_byte_for_byte(self, tmp_path, dims, labelled):
        series = _series(dims, labelled)
        data.save_csv(series, tmp_path / "new.csv")
        _reference_save_csv(series, tmp_path / "old.csv")
        written = (tmp_path / "new.csv").read_bytes()
        assert written == (tmp_path / "old.csv").read_bytes()
        assert written.count(b"\r\n") == series.length + 1

    @pytest.mark.parametrize("labelled", [True, False])
    @pytest.mark.parametrize("dims", [1, 3])
    def test_load_matches_the_csv_reader_bit_for_bit(self, tmp_path, dims, labelled):
        path = tmp_path / "s.csv"
        _reference_save_csv(_series(dims, labelled, length=300, seed=dims), path)
        old, new = _reference_load_csv(path), data.load_csv(path)
        assert new.values.tobytes() == old.values.tobytes()
        assert new.values.shape == old.values.shape and new.values.flags.c_contiguous
        assert new.start_index == old.start_index == 17
        if labelled:
            assert new.labels.dtype == old.labels.dtype
            np.testing.assert_array_equal(new.labels, old.labels)
        else:
            assert new.labels is None and old.labels is None

    def test_one_row_and_negative_start(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,dim_0,label\n-3,2.5,1\n")
        loaded = data.load_csv(path)
        assert loaded.start_index == -3 and loaded.values.tolist() == [[2.5]]
        assert loaded.labels.tolist() == [1]

    @pytest.mark.parametrize("case", sorted(BAD_CSV))
    def test_bad_file_raises_what_the_csv_reader_raised(self, tmp_path, case):
        header, rows = BAD_CSV[case]
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises((ParseError, MissingColumn)) as old:
            _reference_load_csv(path)
        with pytest.raises(type(old.value)) as new:
            data.load_csv(path)
        assert str(new.value) == str(old.value)
        assert getattr(new.value, "line", None) == getattr(old.value, "line", None)

    @pytest.mark.parametrize("slots, message", [
        ([100, 101, 103, 104], "line 4: slot 103 does not follow slot 101"),
        ([100, 101, 101, 102], "line 4: slot 101 does not follow slot 101"),
        ([100, 101, 102, 100], "line 5: slot 100 does not follow slot 102"),
    ])
    def test_slot_out_of_sequence_names_its_line(self, tmp_path, slots, message):
        path = tmp_path / "s.csv"
        path.write_text("".join(["t,dim_0\n", *(f"{t},1.5\n" for t in slots)]))
        with pytest.raises(ParseError, match=f"^{message}$"):
            data.load_csv(path)

    def test_slots_may_start_anywhere(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,dim_0\n100,1.5\n101,2.5\n102,3.5\n")
        loaded = data.load_csv(path)
        assert loaded.start_index == 100 and loaded.values.tolist() == [[1.5], [2.5], [3.5]]

    @pytest.mark.parametrize("row", ["5,1_0", "99999999999999999999,1.5"])
    def test_field_only_python_reads_is_rejected_without_a_line(self, tmp_path, row):
        path = tmp_path / "s.csv"
        path.write_text(f"t,dim_0\n{row}\n")
        with pytest.raises(ParseError, match="could not convert") as info:
            data.load_csv(path)
        assert info.value.line is None

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError) as old:
            _reference_load_csv(path)
        with pytest.raises(ParseError) as new:
            data.load_csv(path)
        assert str(new.value) == str(old.value) == "line 1: empty file"


class TestSplit:
    def test_floor_boundaries_cover_every_slot_once(self):
        x = np.arange(1009.0)
        spans = [AnomalySpan(400, 410, AnomalyKind.CONTEXTUAL),
                 AnomalySpan(700, 701, AnomalyKind.POINT)]
        series = LabeledSeries(values=x, labels=labels_of(spans, 1009), spans=spans,
                               start_index=5)
        train, val, test = data.split(series)
        # floor(0.4 * 1009) = 403, floor(0.5 * 1009) = 504
        assert [train.length, val.length, test.length] == [403, 101, 505]
        assert [train.start_index, val.start_index, test.start_index] == [5, 408, 509]
        np.testing.assert_array_equal(
            np.concatenate([train.values, val.values, test.values])[:, 0], x
        )
        np.testing.assert_array_equal(
            np.concatenate([train.labels, val.labels, test.labels]), series.labels
        )
        # spans are clipped to each part and rebased onto its first slot
        assert train.spans == [AnomalySpan(400, 403, AnomalyKind.CONTEXTUAL)]
        assert val.spans == [AnomalySpan(0, 7, AnomalyKind.CONTEXTUAL)]
        assert test.spans == [AnomalySpan(196, 197, AnomalyKind.POINT)]

    def test_too_short_to_split(self):
        with pytest.raises(TooShort):
            data.split(LabeledSeries(values=np.zeros(9)))


def test_gen_data_output_is_pinned(tmp_path):
    """The default 10,000-slot dataset and its mock LLM fixture at seed 0, byte
    for byte; the fixture's draws follow the planting's and the detector's."""
    assert cli.main(["--out", str(tmp_path), "gen-data"]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("data.csv", "metadata.json", "llm_fixture.jsonl")}
    assert digests == {
        "data.csv": "f7f5a0736ea3321e42e4fe5c7fd2d03ceecf1c6a295464cc1e78a4c7ea325fcb",
        "metadata.json": "22aa7cb89899fc26292708813621473eed6c5e6fb5a280f4b7e40de95457ac5c",
        "llm_fixture.jsonl": "3508d8ea40735d4ac00327e9f480b61c33b1ec7a7a21898f6e7992bccba7374c",
    }
