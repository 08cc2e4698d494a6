"""LLM scores: the JSONL score file, and prompts sent to a live endpoint.

Scores come either from a deterministic JSONL file keyed by window identity
(``load_fixture``), or from a live HTTP endpoint (``score_windows``); which
one is ``cli``'s choice, made from ``llm_mode``. Every acceptance path runs
against the file, the live client is best-effort.

Live prompts follow a four-part layout (expertise supplement, serialized
input data, task description, examples) and demand one probability per
slot. No labeled examples are kept, so every prompt is zero-shot. The
prompt's account of the generator is formatted from the constants in
``data``, where the equation lives, so it cannot drift from the data it
describes.
"""
from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import numpy as np

from . import data as data_mod
from .core import TimeSeriesWindow
from .errors import CollateError, ConfigError, MalformedResponse, MissingFixture, ScoreOutOfRange

API_KEY_VAR = "COLLATE_LLM_API_KEY"  # the environment variable holding the key
MAX_IN_FLIGHT = 4  # live requests at once
RETRIES = 2  # after the first attempt
BACKOFF_BASE = 0.5  # seconds before the first retry, doubled for each later one
TIMEOUT = 30.0  # seconds per request
# Characters of serialized input data one prompt may carry.
MAX_DATA_CHARS = 20_000

MGAB_RULE = (f"dx/dt = {data_mod.A:g} * x(t-{data_mod.TAU})/(1+x(t-{data_mod.TAU})^"
             f"{data_mod.EXPONENT:g}) - {data_mod.B:g}*x(t)")
EXPERTISE_SUPPLEMENT = (
    "Expertise supplement: The input is a univariate time series sampled "
    f"once per slot. Between anomalies it follows {MGAB_RULE} plus uniform "
    f"noise within [-{data_mod.NOISE_AMPLITUDE:g}, {data_mod.NOISE_AMPLITUDE:g}], "
    "where x(t) is the value at slot t. "
    "Inserted anomalies break this rule: some repeat a future segment of "
    "the series at the present position, others shift a single slot far "
    "from its neighbours. [Professional document can be inserted into this part]"
)
TASK_DESCRIPTION = (
    "Task description: For each time slot i of the input data, output a "
    "float number ranging from 0 to 1, the probability that slot i is "
    "anomalous. Output one number per line, nothing else."
)


def serialize_window(window: TimeSeriesWindow) -> str:
    """One ``slot: v1,v2,...`` line per slot; a window whose text exceeds
    MAX_DATA_CHARS raises ConfigError, since a cut prompt would still ask
    for a score per slot."""
    lines = []
    for i in range(window.length):
        vals = ",".join(f"{v:.6g}" for v in window.values[i])
        lines.append(f"{window.start_index + i}: {vals}")
    text = "\n".join(lines)
    if len(text) > MAX_DATA_CHARS:
        raise ConfigError(
            f"window {window.window_id()!r} needs {len(text)} characters of input data, "
            f"over the prompt budget of {MAX_DATA_CHARS}"
        )
    return text


def build_prompt(window: TimeSeriesWindow) -> str:
    """The four-section zero-shot prompt for one window."""
    return "\n\n".join([
        EXPERTISE_SUPPLEMENT,
        f"Input data:\n{serialize_window(window)}",
        TASK_DESCRIPTION,
        "Examples:\n(no labeled examples available)",
    ])


def load_fixture(path: str | Path, windows: list[TimeSeriesWindow]) -> dict[str, np.ndarray]:
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
) -> dict[str, np.ndarray]:
    """Each window's scores from a window id -> scores table, checked for
    presence, then length, then range; NaN is outside the range."""
    out: dict[str, np.ndarray] = {}
    for w in windows:
        wid = w.window_id()
        if wid not in table:
            raise MissingFixture(f"fixture has no entry for window {wid!r}")
        vals = table[wid]
        if vals.size != w.length:
            raise MalformedResponse(
                f"fixture entry {wid!r} has {vals.size} scores, expected {w.length}"
            )
        if not ((vals >= 0.0) & (vals <= 1.0)).all():
            raise ScoreOutOfRange(f"fixture scores for {wid!r} outside [0, 1]")
        out[wid] = vals
    return out


def write_fixture(path: str | Path, scores_by_window: dict[str, np.ndarray]) -> None:
    lines = [
        json.dumps({"window_id": wid, "scores": scores.tolist()})
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
    if not ((vals >= 0.0) & (vals <= 1.0)).all():  # a NaN fails it too
        raise ScoreOutOfRange(
            f"scores outside [0, 1]: min {vals.min()}, max {vals.max()}"
        )
    return vals


def _api_key() -> str:
    """The live endpoint's API key; no retry can mend a missing one."""
    key = os.environ.get(API_KEY_VAR)
    if not key:
        raise ConfigError(f"environment variable {API_KEY_VAR} not set")
    return key


def _default_transport(endpoint: str, prompt: str) -> str:
    import urllib.request

    key = _api_key()
    payload = json.dumps({"prompt": prompt}).encode()
    req = urllib.request.Request(
        endpoint,
        data=payload,
        headers={"Content-Type": "application/json", "Authorization": f"Bearer {key}"},
    )
    with urllib.request.urlopen(req, timeout=TIMEOUT) as resp:
        raw = resp.read()
    try:
        body = json.loads(raw)
    except ValueError as exc:
        raise MalformedResponse(f"response body is not JSON: {exc}") from None
    if not isinstance(body, dict) or not isinstance(body.get("text"), str):
        raise MalformedResponse("response JSON is not an object with a string 'text' field")
    return body["text"]


def request_scores(
    endpoint: str,
    prompt: str,
    expected_slots: int,
    transport=None,
    sleep=time.sleep,
) -> np.ndarray:
    """Fetch exactly ``expected_slots`` scores in [0, 1] from ``endpoint``.

    Posts {"prompt": ...} and parses newline-separated floats from the
    response's 'text' field, which ``transport(endpoint, prompt)`` returns,
    retrying transport failures with exponential backoff. An HTTP 4xx other
    than 408 and 429 is a ConfigError at once (the request itself is wrong),
    and range violations are never retried (the model answered, the answer
    is invalid).
    """
    transport = transport or _default_transport
    attempts: list[str] = []
    for attempt in range(RETRIES + 1):
        try:
            text = transport(endpoint, prompt)
        except (OSError, MalformedResponse) as exc:  # urllib's URLError is an OSError
            import urllib.error

            if isinstance(exc, urllib.error.HTTPError) and (
                400 <= exc.code < 500 and exc.code not in (408, 429)
            ):
                raise ConfigError(f"{endpoint} answered HTTP {exc.code}") from None
            attempts.append(f"attempt {attempt + 1}: {exc}")
            if attempt < RETRIES:
                sleep(BACKOFF_BASE * (2**attempt))
            continue
        return _parse_scores(text, expected_slots)
    raise MalformedResponse(
        "all attempts failed: " + "; ".join(attempts)
    )


def _fetch(
    stop: threading.Event, endpoint: str, window: TimeSeriesWindow, prompt: str, transport
) -> np.ndarray | None:
    """``request_scores`` for ``window``, unless ``stop`` is set: then nothing
    is sent and the result is None. A failure sets ``stop`` before it
    propagates; a CollateError keeps its type and names the window."""
    if stop.is_set():
        return None
    try:
        return request_scores(endpoint, prompt, window.length, transport)
    except CollateError as exc:
        stop.set()
        raise type(exc)(f"window {window.window_id()!r}: {exc}") from None
    except Exception:
        stop.set()
        raise


def score_windows(
    endpoint: str, windows: list[TimeSeriesWindow], transport=None
) -> dict[str, np.ndarray]:
    """Score many windows at the live ``endpoint``, keyed by window id.

    Builds every prompt, and checks the default transport's API key, before
    sending any request. Requests run MAX_IN_FLIGHT at once; the first
    failure stops the run, sending no queued request, and is raised once the
    requests in flight return. No cross-window ordering guarantee.
    """
    from concurrent.futures import ThreadPoolExecutor

    prompts = [(w, build_prompt(w)) for w in windows]
    if transport is None:
        _api_key()
    stop = threading.Event()
    with ThreadPoolExecutor(max_workers=MAX_IN_FLIGHT) as pool:
        futures = {
            w.window_id(): pool.submit(_fetch, stop, endpoint, w, prompt, transport)
            for w, prompt in prompts
        }
        # windows skipped after a failure hold None, but the failure raises here
        return {wid: fut.result() for wid, fut in futures.items()}
