"""Direct tests of the generator, the anomaly planting, the CSV format and
the 40/10/50 split."""
import hashlib

import numpy as np
import pytest

from collate import cli, data
from collate.data import AnomalyKind, AnomalySpan, LabeledSeries
from collate.errors import InsufficientRoom, TooShort


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


class TestCsv:
    @pytest.mark.parametrize("labelled", [True, False])
    def test_round_trip_is_bit_exact(self, tmp_path, labelled):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-300, 300, (40, 3))
        values[0] = [-0.0, 5e-324, np.nextafter(1.0, 0.0)]
        labels = rng.integers(0, 2, 40) if labelled else None
        series = LabeledSeries(values=values, labels=labels, start_index=17)
        data.save_csv(series, tmp_path / "s.csv")
        loaded = data.load_csv(tmp_path / "s.csv")
        assert loaded.values.tobytes() == series.values.tobytes()
        assert loaded.start_index == 17
        if labelled:
            np.testing.assert_array_equal(loaded.labels, labels)
        else:
            assert loaded.labels is None
            assert "label" not in (tmp_path / "s.csv").read_text().splitlines()[0]


class TestSplit:
    def test_floor_boundaries_cover_every_slot_once(self):
        x = np.arange(1009.0)
        spans = [AnomalySpan(400, 410, AnomalyKind.CONTEXTUAL),
                 AnomalySpan(700, 701, AnomalyKind.POINT)]
        series = LabeledSeries(values=x, labels=labels_of(spans, 1009), spans=spans,
                               start_index=5)
        (train,), (val,), (test,) = data.split([series])
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
            data.split([LabeledSeries(values=np.zeros(9))])


def test_gen_data_output_is_pinned(tmp_path):
    """The default 10,000-slot dataset at seed 0, byte for byte."""
    assert cli.main(["--out", str(tmp_path), "gen-data"]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("data.csv", "metadata.json")}
    assert digests == {
        "data.csv": "f7f5a0736ea3321e42e4fe5c7fd2d03ceecf1c6a295464cc1e78a4c7ea325fcb",
        "metadata.json": "22aa7cb89899fc26292708813621473eed6c5e6fb5a280f4b7e40de95457ac5c",
    }
