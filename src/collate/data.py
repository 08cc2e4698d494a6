"""Synthetic benchmark generation, dataset loading, and splits.

The generator integrates the delayed feedback equation
dx/dt = A x(t - TAU) / (1 + x(t - TAU)^EXPONENT) - B x(t) with Euler steps of
STEP and uniform noise within +/- NOISE_AMPLITUDE, then plants contextual
anomalies (a future segment copied over the present) and point anomalies
(single slots shifted by a multiple of the series deviation) through one
loop, ``_plant``; each kind supplies only how to draw and write one
candidate. The constants below are the equation's one home; the metadata
sidecar and the LLM prompt (``llm.EXPERTISE_SUPPLEMENT``) quote them. All
randomness comes from explicit seeds.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .core import TimeSeriesWindow
from .errors import InsufficientRoom, MissingColumn, ParseError, TooShort

# the delayed feedback equation
TAU = 18
A = 0.25
B = 0.1
EXPONENT = 10.0
NOISE_AMPLITUDE = 0.01
HISTORY_INIT = 1.2
STEP = 1.0
# planted anomalies: contextual span lengths (inclusive) and the point shift
# in series standard deviations
SPAN_RANGE = (20, 40)
POINT_MAGNITUDE = 5.0


class AnomalyKind(Enum):
    CONTEXTUAL = "contextual"
    POINT = "point"


@dataclass(frozen=True)
class AnomalySpan:
    start: int
    end: int  # exclusive
    kind: AnomalyKind

    def to_dict(self) -> dict:
        return {"start": self.start, "end": self.end, "kind": self.kind.value}


@dataclass
class LabeledSeries:
    """T x D values, optional binary labels, and the spans that produced them.

    ``labels`` is None for unlabeled data (a CSV without a label column); an
    all-zero vector means every slot was observed normal, which is different.
    """

    values: np.ndarray
    labels: np.ndarray | None = None
    spans: list[AnomalySpan] = field(default_factory=list)
    start_index: int = 0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        self.values = values
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
            if self.labels.size != self.values.shape[0]:
                raise ValueError("labels must cover every slot")
        ordered = sorted(self.spans, key=lambda s: s.start)
        for s1, s2 in zip(ordered[:-1], ordered[1:]):
            if s1.end > s2.start:
                raise ValueError("anomaly spans must not overlap")

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def dims(self) -> int:
        return self.values.shape[1]

    @property
    def has_labels(self) -> bool:
        return self.labels is not None


def gen_mackey_glass(length: int, seed: int) -> LabeledSeries:
    """Generate one noisy delayed-feedback series; labels start all zero.
    Euler steps on Python floats give numpy scalars' bits in a quarter of the time."""
    if length <= TAU:
        raise ValueError("length must exceed the delay")
    rng = np.random.default_rng(seed)
    noise = rng.uniform(-NOISE_AMPLITUDE, NOISE_AMPLITUDE, length).tolist()
    x = [HISTORY_INIT]
    for t in range(length - 1):
        xd = x[t - TAU] if t >= TAU else HISTORY_INIT
        drift = A * xd / (1.0 + xd**EXPONENT) - B * x[t]
        x.append(x[t] + STEP * drift + noise[t + 1])
    return LabeledSeries(values=np.array(x)[:, None], labels=np.zeros(length, dtype=np.int64))


def occupied_slots(spans: list[AnomalySpan]) -> np.ndarray:
    if not spans:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate([np.arange(s.start, s.end) for s in spans])


def _plant(series: LabeledSeries, count: int, seed: int, region: tuple[int, int] | None,
           place, what: str) -> LabeledSeries:
    """``series`` with ``count`` anomalies planted in a copy. Each attempt
    calls ``place(rng, values, lo, hi, occupied)``, which draws one candidate
    in [lo, hi) and either writes it into ``values`` and returns its span, or
    returns None when it meets the ``occupied`` slots. An empty region, or
    10,000 failed attempts for one anomaly, raise InsufficientRoom naming
    ``what``."""
    if count < 1:
        raise ValueError("count must be positive")
    lo, hi = region if region is not None else (0, series.length)
    if lo >= hi:
        raise InsufficientRoom(f"could not place {what}")
    rng = np.random.default_rng(seed)
    values = series.values.copy()
    labels = series.labels.copy()
    spans = list(series.spans)
    for _ in range(count):
        occupied = occupied_slots(spans)
        for _attempt in range(10_000):
            span = place(rng, values, lo, hi, occupied)
            if span is not None:
                break
        else:
            raise InsufficientRoom(f"could not place {what}")
        labels[span.start : span.end] = 1
        spans.append(span)
    return LabeledSeries(values=values, labels=labels, spans=spans,
                         start_index=series.start_index)


def insert_contextual_anomalies(
    series: LabeledSeries,
    count: int,
    seed: int = 0,
    region: tuple[int, int] | None = None,
) -> LabeledSeries:
    """Copy future segments onto the present at ``count`` non-overlapping
    spans, each SPAN_RANGE slots long.

    The source segment starts at least one span length ahead of the
    destination, so the overwritten values are an exact copy of genuinely
    future dynamics. ``region`` restricts destination starts to [lo, hi).
    """
    t_total = series.length

    def place(rng, values, lo, hi, occupied):
        span_len = int(rng.integers(SPAN_RANGE[0], SPAN_RANGE[1] + 1))
        start = int(rng.integers(lo, max(lo + 1, hi - span_len)))
        end = start + span_len
        if end + span_len >= t_total or ((occupied >= start) & (occupied < end)).any():
            return None
        offset = int(rng.integers(span_len, t_total - end))
        values[start:end] = values[start + offset : end + offset]
        return AnomalySpan(start, end, AnomalyKind.CONTEXTUAL)

    return _plant(series, count, seed, region, place, "a contextual span without overlap")


def insert_point_anomalies(
    series: LabeledSeries,
    count: int,
    seed: int = 0,
    region: tuple[int, int] | None = None,
) -> LabeledSeries:
    """Shift ``count`` isolated slots by +/- POINT_MAGNITUDE * series std."""
    std = float(series.values.std())

    def place(rng, values, lo, hi, occupied):
        slot = int(rng.integers(lo, hi))
        if (np.abs(occupied - slot) <= 1).any():
            return None
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        values[slot] += sign * POINT_MAGNITUDE * std
        return AnomalySpan(slot, slot + 1, AnomalyKind.POINT)

    return _plant(series, count, seed, region, place, "a point anomaly")


def _slice_series(series: LabeledSeries, lo: int, hi: int) -> LabeledSeries:
    spans = [
        AnomalySpan(max(s.start, lo), min(s.end, hi), s.kind)
        for s in series.spans
        if s.start < hi and s.end > lo
    ]
    return LabeledSeries(
        values=series.values[lo:hi],
        labels=None if series.labels is None else series.labels[lo:hi],
        spans=[AnomalySpan(s.start - lo, s.end - lo, s.kind) for s in spans],
        start_index=series.start_index + lo,
    )


def split_bounds(t: int) -> tuple[int, int]:
    """Where train and val end in a 40/10/50 split of ``t`` slots, floor-rounded."""
    return int(t * 0.4), int(t * 0.5)


def split(series: LabeledSeries) -> tuple[LabeledSeries, LabeledSeries, LabeledSeries]:
    """Contiguous 40/10/50 split of the series, in temporal order.

    Boundaries are floor-rounded; every slot lands in exactly one part. The
    split is deterministic; no shuffling across time.
    """
    t = series.length
    if t < 10:
        raise TooShort(f"series of length {t} cannot be split 40/10/50")
    a, b = split_bounds(t)
    return _slice_series(series, 0, a), _slice_series(series, a, b), _slice_series(series, b, t)


def split_windows(
    series: LabeledSeries, window_len: int
) -> dict[str, list[TimeSeriesWindow]]:
    """Windows of each 40/10/50 split part, keyed 'train'/'val'/'test'.

    Windowing after splitting keeps window identities stable across commands
    that consume different parts of the same series.
    """
    train, val, test = split(series)
    return {
        "train": to_windows(train, window_len),
        "val": to_windows(val, window_len),
        "test": to_windows(test, window_len),
    }


def to_windows(series: LabeledSeries, window_len: int) -> list[TimeSeriesWindow]:
    """Non-overlapping windows covering the series; the tail keeps its
    natural (shorter) length so every slot appears exactly once."""
    out = []
    for start in range(0, series.length, window_len):
        stop = min(start + window_len, series.length)
        out.append(
            TimeSeriesWindow(series.values[start:stop], start_index=series.start_index + start)
        )
    return out


def save_csv(series: LabeledSeries, path: str | Path) -> None:
    """Write `t,dim_0,...,dim_{D-1}[,label]` with CRLF line ends; floats use
    shortest round-trip form, so a load after save is bit-exact. The label
    column is emitted only when the series carries labels."""
    header = ["t"] + [f"dim_{d}" for d in range(series.dims)]
    columns = [range(series.start_index, series.start_index + series.length)]
    columns += series.values.T.tolist()
    row = ["{}"] + ["{!r}"] * series.dims
    if series.has_labels:
        header.append("label")
        columns.append(series.labels.tolist())
        row.append("{}")
    lines = [",".join(header), *map(",".join(row).format, *columns)]
    Path(path).write_text("\r\n".join(lines) + "\r\n", newline="")


def read_lines(path: str | Path) -> list[str]:
    """The lines of a text file, without their line ends; an empty file
    raises ParseError."""
    lines = Path(path).read_text().split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty file", line=1)
    return lines


def parse_rows(
    lines: list[str], n_values: int, labelled: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The rows after the header line, each `t,v_1,...,v_n[,label]`: integer
    slots, each the previous row's + 1, an (N, n) matrix of finite floats,
    and the 0/1 labels (None when not ``labelled``).

    The rows are parsed in one ``np.loadtxt`` pass. Only when that fails, or
    a label or value is out of bounds, are the rows scanned one by one to
    name the first bad line in a ParseError: a wrong field count, a field
    that ``int`` or ``float`` rejects, or a label other than 0 or 1, else
    the first row with a non-finite value. Rows that all read fail at the
    first slot out of sequence. No rows fails at line 2. A field
    Python reads but numpy does not (``1_0``, or a slot beyond int64) raises
    ParseError with numpy's message and no line.
    """
    body = lines[1:]
    # the format has no blank lines, and loadtxt would skip one
    if body and "" not in body:
        dtype = [("t", np.int64), ("v", np.float64, (n_values,))]
        if labelled:
            dtype.append(("label", np.int64))
        try:
            rows = np.loadtxt(body, dtype=dtype, delimiter=",", comments=None,
                              quotechar='"', ndmin=1)
        except ValueError as exc:
            raise _first_bad_row(lines, n_values, labelled) or ParseError(str(exc)) from None
        values = np.ascontiguousarray(rows["v"])
        labels = np.ascontiguousarray(rows["label"]) if labelled else None
        if (labels is None or ((labels == 0) | (labels == 1)).all()) and (
            np.isfinite(values).all()
        ):
            t = np.ascontiguousarray(rows["t"])
            if (skip := np.flatnonzero(t[1:] != t[:-1] + 1)).size:
                i = skip[0]
                raise ParseError(f"slot {t[i + 1]} does not follow slot {t[i]}", line=i + 3)
            return t, values, labels
    raise _first_bad_row(lines, n_values, labelled)


def _first_bad_row(lines: list[str], n_values: int, labelled: bool) -> ParseError | None:
    """The error a row-by-row read of ``parse_rows``'s format meets first,
    or None if every row reads."""
    width = 1 + n_values + labelled
    non_finite = None
    for lineno, row in enumerate(csv.reader(lines[1:]), start=2):
        if len(row) != width:
            return ParseError(f"expected {width} fields, got {len(row)}", line=lineno)
        try:
            int(row[0])
            vals = [float(v) for v in row[1 : 1 + n_values]]
            lab = int(row[-1]) if labelled else 0
        except ValueError as exc:
            return ParseError(str(exc), line=lineno)
        if labelled and lab not in (0, 1):
            return ParseError(f"label must be 0 or 1, got {lab}", line=lineno)
        if non_finite is None and not all(map(math.isfinite, vals)):
            non_finite = lineno
    if len(lines) < 2:
        return ParseError("no data rows", line=2)
    if non_finite is not None:
        return ParseError("value is not finite", line=non_finite)
    return None


def load_csv(path: str | Path) -> LabeledSeries:
    """Read the CSV schema written by save_csv.

    A missing label column yields ``labels=None`` (absent, not all-normal).
    Raises MissingColumn on a bad header, and ParseError with the 1-based
    line number at the first row ``parse_rows`` rejects: a malformed row, a
    non-finite value such as ``nan`` or ``inf``, or a slot that is not the
    previous row's + 1. The first row's slot is the series' ``start_index``.
    """
    lines = read_lines(path)
    header = next(csv.reader(lines[:1]), [])
    if not header or header[0] != "t":
        raise MissingColumn("first column must be 't'")
    dim_cols = [h for h in header if h.startswith("dim_")]
    if not dim_cols:
        raise MissingColumn("no dim_* columns present")
    expected = [f"dim_{d}" for d in range(len(dim_cols))]
    if dim_cols != expected:
        raise MissingColumn(f"dim columns must be contiguous from dim_0, got {dim_cols}")
    t, values, labels = parse_rows(lines, len(dim_cols), header[-1] == "label")
    return LabeledSeries(values=values, labels=labels, spans=[], start_index=int(t[0]))


def write_metadata(
    path: str | Path, length: int, spans: list[AnomalySpan], seed: int
) -> None:
    """Sidecar JSON with the generator's settings, seed, and span list."""
    payload = {
        "generator": {"length": length, "tau": TAU, "a": A, "b": B, "exponent": EXPONENT,
                      "noise_amplitude": NOISE_AMPLITUDE, "history_init": HISTORY_INIT,
                      "seed": seed, "step": STEP},
        "seed": seed,
        "spans": [s.to_dict() for s in spans],
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1))


def read_metadata(path: str | Path) -> tuple[dict, list[AnomalySpan]]:
    """The sidecar's payload and spans. Text that is not JSON, or a span
    without integers 0 <= start < end and a known kind, raises ParseError."""
    try:
        payload = json.loads(Path(path).read_text())
        spans = [AnomalySpan(s["start"], s["end"], AnomalyKind(s["kind"]))
                 for s in payload["spans"]]
        if not all(type(s.start) is type(s.end) is int and 0 <= s.start < s.end for s in spans):
            raise ValueError("a span needs integers 0 <= start < end")
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"metadata: {type(exc).__name__}: {exc}") from None
    return payload, spans
