"""LLM scoring backend: prompt construction, score retrieval, example store.

Prompts follow a four-part layout (expertise supplement, serialized input
data, task description, examples) and demand one probability per slot. Scores
come either from a live HTTP endpoint or from a deterministic JSONL fixture
keyed by window identity; every acceptance path runs against the fixture, the
live client is best-effort.
"""
from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import ScoreKind, ScoreSeries, TimeSeriesWindow
from .errors import MalformedResponse, MissingFixture, ScoreOutOfRange

DEFAULT_API_KEY_VAR = "COLLATE_LLM_API_KEY"
TRUNCATION_MARKER = "...[data truncated to context budget]"

MGAB_RULE = "dx/dt = 0.25 * x(t-18)/(1+x(t-18)^10) - 0.1*x(t)"


@dataclass(frozen=True)
class PromptTemplate:
    """Four prompt sections rendered in fixed order:
    expertise -> input data -> task -> examples."""

    expertise_supplement: str
    task_description: str
    example_intro: str = "Examples:"
    max_data_chars: int = 20_000

    def validate(self) -> None:
        if not self.expertise_supplement.strip():
            raise ValueError("expertise supplement must be nonempty")
        if "a float number ranging from 0 to 1" not in self.task_description:
            raise ValueError("task description must demand per-slot floats in [0, 1]")


def mgab_template() -> PromptTemplate:
    """Prompt for delayed-feedback synthetic series."""
    expertise = (
        "Expertise supplement: The input is a univariate time series sampled "
        f"once per slot. Between anomalies it follows {MGAB_RULE} plus uniform "
        "noise within [-0.01, 0.01], where x(t) is the value at slot t. "
        "Inserted anomalies break this rule: some repeat a future segment of "
        "the series at the present position, others shift a single slot far "
        "from its neighbours. [Professional document can be inserted into this part]"
    )
    task = (
        "Task description: For each time slot i of the input data, output a "
        "float number ranging from 0 to 1, the probability that slot i is "
        "anomalous. Output one number per line, nothing else."
    )
    return PromptTemplate(expertise_supplement=expertise, task_description=task)


@dataclass(frozen=True)
class StoreEntry:
    excerpt: str
    label: int
    slot_index: int
    timestamp: float


@dataclass
class ExampleStore:
    """Bounded, time-ordered store of labeled excerpts.

    Eviction is oldest-first but never removes the last remaining entry of a
    class once that class has been inserted, so prompts can always carry one
    positive and one negative; the size bound yields to that guarantee.
    """

    capacity: int
    entries: list[StoreEntry] = field(default_factory=list)

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        self.entries.sort(key=lambda e: e.timestamp)

    def nearest(self, slot_index: int, label: int) -> StoreEntry | None:
        candidates = [e for e in self.entries if e.label == label]
        if not candidates:
            return None
        return min(candidates, key=lambda e: (abs(e.slot_index - slot_index), -e.timestamp))


@dataclass(frozen=True)
class BuiltPrompt:
    text: str
    zero_shot: bool
    truncated: bool


def serialize_window(window: TimeSeriesWindow, budget: int) -> tuple[str, bool]:
    lines = []
    for i in range(window.length):
        vals = ",".join(f"{v:.6g}" for v in window.values[i])
        lines.append(f"{window.start_index + i}: {vals}")
    text = "\n".join(lines)
    if len(text) > budget:
        return text[: budget - len(TRUNCATION_MARKER)] + TRUNCATION_MARKER, True
    return text, False


def build_prompt(
    window: TimeSeriesWindow, store: ExampleStore, template: PromptTemplate
) -> BuiltPrompt:
    """Render the four-section prompt for one window.

    Examples are the positive and negative store entries nearest in slot
    distance to the window start (detection quality decays with the temporal
    distance of the examples). An empty store degrades to a zero-shot prompt
    with the flag set.
    """
    template.validate()
    data_text, truncated = serialize_window(window, template.max_data_chars)
    sections = [template.expertise_supplement, f"Input data:\n{data_text}",
                template.task_description]
    pos = store.nearest(window.start_index, 1)
    neg = store.nearest(window.start_index, 0)
    zero_shot = pos is None and neg is None
    if zero_shot:
        sections.append(f"{template.example_intro}\n(no labeled examples available)")
    else:
        lines = [template.example_intro]
        for i, entry in enumerate((e for e in (pos, neg) if e is not None), start=1):
            lines.append(
                f"Example {i}: {entry.excerpt}\nOutput: {entry.label}."
            )
        sections.append("\n".join(lines))
    return BuiltPrompt(text="\n\n".join(sections), zero_shot=zero_shot, truncated=truncated)


@dataclass(frozen=True)
class LlmBackendConfig:
    """Transport settings; ``mode`` is 'live' or 'mock'."""

    mode: str = "mock"
    fixture_path: str | None = None
    endpoint: str = ""
    api_key_var: str = DEFAULT_API_KEY_VAR
    max_in_flight: int = 4
    retries: int = 2
    backoff_base: float = 0.5
    timeout: float = 30.0

    def __post_init__(self):
        if self.mode not in ("live", "mock"):
            raise ValueError("mode must be 'live' or 'mock'")
        if self.retries < 0:
            raise ValueError("retry count must be nonnegative")
        if self.max_in_flight < 1:
            raise ValueError("need at least one in-flight request")


def load_fixture(path: str | Path, windows: list[TimeSeriesWindow]) -> dict[str, ScoreSeries]:
    """Validated LLM scores for ``windows`` from a JSONL file of
    {"window_id": ..., "scores": [numbers]} lines; any other line, or a
    window id on two lines, raises MalformedResponse."""
    table: dict[str, np.ndarray] = {}
    line_of: dict[str, int] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            wid = obj["window_id"]
            scores = np.asarray(obj["scores"])
            if scores.ndim != 1 or scores.dtype.kind not in "iuf":
                raise MalformedResponse(f"fixture line {lineno}: scores are not numbers")
            if wid in line_of:
                raise MalformedResponse(
                    f"fixture lines {line_of[wid]} and {lineno} both hold window {wid!r}"
                )
            line_of[wid] = lineno
            table[wid] = scores.astype(np.float64)
        except (ValueError, KeyError, TypeError) as exc:
            raise MalformedResponse(f"fixture line {lineno}: {exc}") from None
    return fixture_scores(table, windows)


def fixture_scores(
    table: dict[str, np.ndarray], windows: list[TimeSeriesWindow]
) -> dict[str, ScoreSeries]:
    """Each window's scores from a window id -> scores table, checked for
    presence, then length, then range."""
    out: dict[str, ScoreSeries] = {}
    for w in windows:
        wid = w.window_id()
        if wid not in table:
            raise MissingFixture(f"fixture has no entry for window {wid!r}")
        vals = table[wid]
        if vals.size != w.length:
            raise MalformedResponse(
                f"fixture entry {wid!r} has {vals.size} scores, expected {w.length}"
            )
        if (vals < 0.0).any() or (vals > 1.0).any():
            raise ScoreOutOfRange(f"fixture scores for {wid!r} outside [0, 1]")
        out[wid] = ScoreSeries(vals, ScoreKind.LLM)
    return out


def write_fixture(path: str | Path, scores_by_window: dict[str, np.ndarray]) -> None:
    lines = [
        json.dumps({"window_id": wid, "scores": [float(v) for v in scores]})
        for wid, scores in sorted(scores_by_window.items())
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_scores(text: str, expected_slots: int) -> np.ndarray:
    raw_lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    try:
        vals = np.array([float(ln) for ln in raw_lines])
    except ValueError as exc:
        raise MalformedResponse(f"non-numeric score line: {exc}") from None
    if vals.size != expected_slots:
        raise MalformedResponse(
            f"expected {expected_slots} scores, response carried {vals.size}"
        )
    if (vals < 0.0).any() or (vals > 1.0).any():
        raise ScoreOutOfRange(
            f"scores outside [0, 1]: min {vals.min()}, max {vals.max()}"
        )
    return vals


def _default_transport(cfg: LlmBackendConfig, prompt: str) -> str:
    key = os.environ.get(cfg.api_key_var)
    if not key:
        raise MalformedResponse(f"environment variable {cfg.api_key_var} not set")
    payload = json.dumps({"prompt": prompt}).encode()
    req = urllib.request.Request(
        cfg.endpoint,
        data=payload,
        headers={"Content-Type": "application/json", "Authorization": f"Bearer {key}"},
    )
    with urllib.request.urlopen(req, timeout=cfg.timeout) as resp:
        body = json.loads(resp.read().decode())
    if "text" not in body:
        raise MalformedResponse("response JSON lacks a 'text' field")
    return body["text"]


def request_scores(
    cfg: LlmBackendConfig,
    prompt: str,
    expected_slots: int,
    transport=None,
    sleep=time.sleep,
) -> ScoreSeries:
    """Fetch exactly ``expected_slots`` scores in [0, 1] from the live endpoint.

    Posts {"prompt": ...} and parses newline-separated floats from the
    response's 'text' field, retrying transport failures with exponential
    backoff; range violations are never retried (the model answered, the
    answer is invalid).
    """
    transport = transport or _default_transport
    attempts: list[str] = []
    for attempt in range(cfg.retries + 1):
        try:
            text = transport(cfg, prompt)
        except (urllib.error.URLError, OSError, MalformedResponse) as exc:
            attempts.append(f"attempt {attempt + 1}: {exc}")
            if attempt < cfg.retries:
                sleep(cfg.backoff_base * (2**attempt))
            continue
        return ScoreSeries(_parse_scores(text, expected_slots), ScoreKind.LLM)
    raise MalformedResponse(
        "all attempts failed: " + "; ".join(attempts)
    )


def score_windows(
    cfg: LlmBackendConfig,
    windows: list[TimeSeriesWindow],
    store: ExampleStore,
    template: PromptTemplate,
    transport=None,
) -> dict[str, ScoreSeries]:
    """Score many windows, keyed by window id.

    Live requests run concurrently bounded by ``max_in_flight``; mock mode
    is a pure lookup keyed by window identity, against the fixture read once
    per call, and builds no prompts. No cross-window ordering guarantee.
    """
    if cfg.mode == "mock":
        if cfg.fixture_path is None:
            raise MissingFixture("mock mode requires a fixture path")
        return load_fixture(cfg.fixture_path, windows)
    out: dict[str, ScoreSeries] = {}
    with ThreadPoolExecutor(max_workers=cfg.max_in_flight) as pool:
        futures = {
            w.window_id(): pool.submit(
                request_scores, cfg, build_prompt(w, store, template).text,
                w.length, transport,
            )
            for w in windows
        }
        for wid, fut in futures.items():
            out[wid] = fut.result()
    return out
