import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from collate import llm
from collate.core import TimeSeriesWindow
from collate.errors import ConfigError, MalformedResponse, MissingFixture, ScoreOutOfRange
from collate.llm import score_windows, write_fixture

ENDPOINT = "http://127.0.0.1:9/"


def windows(count=10, length=20):
    rng = np.random.default_rng(0)
    return [TimeSeriesWindow(rng.normal(size=(length, 1)), start_index=i * length)
            for i in range(count)]


def fixture_for(ws, path):
    rng = np.random.default_rng(1)
    table = {w.window_id(): rng.uniform(0, 1, w.length) for w in ws}
    write_fixture(path, table)
    return table


class TestMockScoring:
    def test_missing_window(self, tmp_path):
        ws = windows(3)
        fixture_for(ws[:2], tmp_path / "f.jsonl")
        with pytest.raises(MissingFixture):
            llm.load_fixture(tmp_path / "f.jsonl", ws)

    def test_wrong_length(self, tmp_path):
        ws = windows(2)
        write_fixture(tmp_path / "f.jsonl", {w.window_id(): np.full(5, 0.5) for w in ws})
        with pytest.raises(MalformedResponse):
            llm.load_fixture(tmp_path / "f.jsonl", ws)

    def test_malformed_line(self, tmp_path):
        (tmp_path / "f.jsonl").write_text('{"window_id": "w0", "scores": [0.1\n')
        with pytest.raises(MalformedResponse):
            llm.load_fixture(tmp_path / "f.jsonl", windows(1))

    def test_score_out_of_range(self, tmp_path):
        ws = windows(1)
        write_fixture(tmp_path / "f.jsonl", {ws[0].window_id(): np.full(20, 1.5)})
        with pytest.raises(ScoreOutOfRange):
            llm.load_fixture(tmp_path / "f.jsonl", ws)

    def test_nan_score_is_out_of_range_and_names_its_window(self, tmp_path):
        ws = windows(2)
        table = fixture_for(ws, tmp_path / "f.jsonl")
        table["w20"][3] = np.nan
        write_fixture(tmp_path / "f.jsonl", table)
        with pytest.raises(ScoreOutOfRange, match=r"fixture scores for 'w20' outside \[0, 1\]"):
            llm.load_fixture(tmp_path / "f.jsonl", ws)

    @pytest.mark.parametrize("line", [
        '[0.1, 0.2]',
        '"w0"',
        '{"window_id": "w0"}',
        '{"window_id": "w0", "scores": "abc"}',
        '{"window_id": "w0", "scores": ["0.5"]}',
        '{"window_id": "w0", "scores": [true]}',
        '{"window_id": "w0", "scores": null}',
        '{"window_id": "w0", "scores": [[0.1], [0.2]]}',
        '{"window_id": "w0", "scores": [[0.1], [0.2, 0.3]]}',
    ])
    def test_line_that_is_not_an_object_of_numbers(self, tmp_path, line):
        (tmp_path / "f.jsonl").write_text(line + "\n")
        with pytest.raises(MalformedResponse, match="fixture line 1"):
            llm.load_fixture(tmp_path / "f.jsonl", windows(1))

    def test_repeated_window_names_both_lines(self, tmp_path):
        ws = windows(1)
        wid = ws[0].window_id()
        lines = [json.dumps({"window_id": wid, "scores": [v] * 20}) for v in (0.9, 0.1)]
        (tmp_path / "f.jsonl").write_text(lines[0] + "\n\n" + lines[1] + "\n")
        with pytest.raises(MalformedResponse,
                           match=f"fixture lines 1 and 3 both hold window '{wid}'"):
            llm.load_fixture(tmp_path / "f.jsonl", ws)

    def test_integer_scores_accepted(self, tmp_path):
        ws = windows(1)
        (tmp_path / "f.jsonl").write_text(json.dumps({"window_id": "w0", "scores": [0, 1] * 10}))
        scores = llm.load_fixture(tmp_path / "f.jsonl", ws)["w0"]
        np.testing.assert_array_equal(scores, [0.0, 1.0] * 10)

    def test_windows_checked_in_order_for_presence_then_length_then_range(self, tmp_path):
        ws = windows(2)
        path = tmp_path / "f.jsonl"
        # ws[0] has 19 scores, all out of range; ws[1] is missing
        write_fixture(path, {ws[0].window_id(): np.full(19, 1.5)})
        with pytest.raises(MalformedResponse, match="has 19 scores, expected 20"):
            llm.load_fixture(path, ws)
        with pytest.raises(MissingFixture, match="fixture has no entry"):
            llm.load_fixture(path, ws[::-1])
        write_fixture(path, {ws[0].window_id(): np.full(20, 1.5)})
        with pytest.raises(ScoreOutOfRange):
            llm.load_fixture(path, ws[:1])


class TestLiveScoring:
    def test_one_prompt_per_window_through_the_transport(self, monkeypatch):
        ws = windows(3)
        prompts = []

        def transport(endpoint, prompt):
            assert endpoint == ENDPOINT
            prompts.append(prompt)
            return "\n".join(["0.25"] * 20)

        monkeypatch.setattr(llm, "MAX_IN_FLIGHT", 1)
        out = score_windows(ENDPOINT, ws, transport)
        assert len(prompts) == 3
        assert all(f"{w.start_index}: " in p for w, p in zip(ws, prompts))
        for w in ws:
            np.testing.assert_array_equal(out[w.window_id()], 0.25)

    @pytest.mark.parametrize("bad", ["1.5", "nan"])
    def test_score_outside_unit_interval_is_not_retried(self, bad):
        calls, sleeps = [], []

        def transport(endpoint, prompt):
            calls.append(prompt)
            return f"0.1\n{bad}\n0.3"

        with pytest.raises(ScoreOutOfRange, match=r"scores outside \[0, 1\]"):
            llm.request_scores(ENDPOINT, "prompt", 3, transport, sleep=sleeps.append)
        assert len(calls) == 1 and sleeps == []

    def test_score_outside_unit_interval_names_its_window(self):
        ws = windows(3)

        def transport(endpoint, prompt):
            return "\n".join(["nan" if "Input data:\n20: " in prompt else "0.25"] * 20)

        with pytest.raises(ScoreOutOfRange, match=r"^window 'w20': scores outside \[0, 1\]"):
            score_windows(ENDPOINT, ws, transport)

    @pytest.mark.parametrize("reply, error", [
        ("\n".join(["0.25"] * 19), "expected 20 scores, response carried 19"),
        ("\n".join(["0.25"] * 19 + ["high"]), "non-numeric score line"),
        (None, "all attempts failed: attempt 1: refused"),
    ], ids=["one score short", "line not a number", "every attempt refused"])
    def test_every_error_names_its_window(self, monkeypatch, reply, error):
        """w20's reply alone is bad; its error keeps its type and names it."""
        monkeypatch.setattr(llm, "BACKOFF_BASE", 0.0)

        def transport(endpoint, prompt):
            if "Input data:\n20: " not in prompt:
                return "\n".join(["0.25"] * 20)
            if reply is None:
                raise ConnectionRefusedError("refused")
            return reply

        with pytest.raises(MalformedResponse, match=f"^window 'w20': {error}"):
            score_windows(ENDPOINT, windows(3), transport)

    def test_window_over_budget_fails_before_any_request(self, monkeypatch):
        long = TimeSeriesWindow(np.full((2_000, 1), 0.123456), start_index=20)
        chars = len("\n".join(f"{20 + i}: 0.123456" for i in range(2_000)))
        assert chars > llm.MAX_DATA_CHARS
        calls = []

        def transport(endpoint, prompt):
            calls.append(prompt)
            return "\n".join(["0.25"] * 20)

        monkeypatch.setattr(llm, "MAX_IN_FLIGHT", 1)
        with pytest.raises(ConfigError, match=(
            f"window 'w20' needs {chars} characters "
            f"of input data, over the prompt budget of {llm.MAX_DATA_CHARS}"
        )):
            score_windows(ENDPOINT, [windows(1)[0], long], transport)
        assert calls == []

    def test_first_failed_window_stops_the_run(self, monkeypatch):
        """Two requests in flight: w0's reply is not a number, or its
        transport raises an error that is not a CollateError, and w1's
        request is held until w0 has failed. None of the other 38 queued
        windows may then be sent. The other error propagates unchanged."""
        monkeypatch.setattr(llm, "MAX_IN_FLIGHT", 2)
        real_fetch = llm._fetch
        for w0_reply, error, message in [
            ("not a number", MalformedResponse, "non-numeric score line"),
            (RuntimeError("transport broke"), RuntimeError, "^transport broke$"),
        ]:
            # the closures below run inside this iteration's score_windows
            w1_sent, w0_failed = threading.Event(), threading.Event()

            def fetch(*args):
                try:
                    return real_fetch(*args)
                except error:
                    w0_failed.set()
                    raise

            monkeypatch.setattr(llm, "_fetch", fetch)
            calls = []

            def transport(endpoint, prompt):
                calls.append(prompt)
                if "Input data:\n0: " in prompt:
                    assert w1_sent.wait(timeout=10)
                    if isinstance(w0_reply, Exception):
                        raise w0_reply
                    return w0_reply
                w1_sent.set()
                assert w0_failed.wait(timeout=10)
                return "\n".join(["0.25"] * 20)

            with pytest.raises(error, match=message) as raised:
                score_windows(ENDPOINT, windows(40), transport)
            assert len(calls) == 2
            if isinstance(w0_reply, Exception):
                assert raised.value is w0_reply


class FakeResponse:
    def __init__(self, body: bytes):
        self.body = body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self) -> bytes:
        return self.body


class TestDefaultTransport:
    def post(self, monkeypatch, body):
        """request_scores through the default transport, urlopen answering
        ``body`` to every request; returns (result or exception, requests)."""
        requests = []

        def urlopen(req, timeout):
            requests.append(json.loads(req.data))
            return FakeResponse(body)

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        monkeypatch.setenv(llm.API_KEY_VAR, "key")
        try:
            return llm.request_scores(ENDPOINT, "prompt", 3, sleep=lambda s: None), requests
        except MalformedResponse as exc:
            return exc, requests

    @pytest.mark.parametrize("body", [
        b"not json", b"\xff", b"[1]", b'"0.5"', b'{"txt": "0.5"}', b'{"text": 0.5}',
    ])
    def test_bad_body_is_retried_then_malformed(self, monkeypatch, body):
        result, requests = self.post(monkeypatch, body)
        assert isinstance(result, MalformedResponse)
        assert requests == [{"prompt": "prompt"}] * 3

    def test_text_field_is_parsed(self, monkeypatch):
        result, requests = self.post(monkeypatch, b'{"text": "0.1\\n0.2\\n0.3"}')
        np.testing.assert_array_equal(result, [0.1, 0.2, 0.3])
        assert len(requests) == 1

    def test_missing_key_is_fatal_and_sends_nothing(self, monkeypatch):
        requests, sleeps = [], []
        monkeypatch.setattr(urllib.request, "urlopen", lambda req, timeout: requests.append(req))
        monkeypatch.delenv(llm.API_KEY_VAR, raising=False)
        message = f"environment variable {llm.API_KEY_VAR} not set"
        with pytest.raises(ConfigError, match=message):
            llm.request_scores(ENDPOINT, "prompt", 3, sleep=sleeps.append)
        with pytest.raises(ConfigError, match=message):
            score_windows(ENDPOINT, windows(3))
        assert requests == [] and sleeps == []


class TestHttpStatus:
    def post(self, code):
        """request_scores against a transport that answers every request with
        HTTP ``code``; returns (exception raised, transport calls, sleeps)."""
        calls, sleeps = [], []

        def transport(endpoint, prompt):
            calls.append(prompt)
            raise urllib.error.HTTPError(endpoint, code, "status", {}, None)

        with pytest.raises((ConfigError, MalformedResponse)) as info:
            llm.request_scores(ENDPOINT, "prompt", 3, transport, sleep=sleeps.append)
        return info.value, calls, sleeps

    @pytest.mark.parametrize("code", [400, 401, 403, 404])
    def test_client_error_is_fatal_at_once(self, code):
        exc, calls, sleeps = self.post(code)
        assert isinstance(exc, ConfigError)
        assert str(exc) == f"{ENDPOINT} answered HTTP {code}"
        assert len(calls) == 1 and sleeps == []

    @pytest.mark.parametrize("code", [408, 429, 500, 503])
    def test_timeout_rate_limit_and_server_errors_are_retried(self, code):
        exc, calls, sleeps = self.post(code)
        assert isinstance(exc, MalformedResponse)
        assert f"HTTP Error {code}" in str(exc)
        assert len(calls) == 3 and sleeps == [0.5, 1.0]


class TestPrompt:
    def test_expertise_quotes_the_generator(self):
        assert llm.EXPERTISE_SUPPLEMENT == (
            "Expertise supplement: The input is a univariate time series sampled once per "
            "slot. Between anomalies it follows dx/dt = 0.25 * x(t-18)/(1+x(t-18)^10) - "
            "0.1*x(t) plus uniform noise within [-0.01, 0.01], where x(t) is the value at "
            "slot t. Inserted anomalies break this rule: some repeat a future segment of the "
            "series at the present position, others shift a single slot far from its "
            "neighbours. [Professional document can be inserted into this part]"
        )

    def test_four_sections_in_order_with_one_line_per_slot(self):
        w = TimeSeriesWindow(np.arange(10.0).reshape(5, 2) / 7, start_index=100)
        sections = llm.build_prompt(w).split("\n\n")
        assert len(sections) == 4
        assert sections[0] == llm.EXPERTISE_SUPPLEMENT
        assert sections[2] == llm.TASK_DESCRIPTION
        assert "a float number ranging from 0 to 1" in sections[2]
        assert sections[3] == "Examples:\n(no labeled examples available)"
        header, *rows = sections[1].splitlines()
        assert header == "Input data:"
        assert [r.split(": ")[0] for r in rows] == ["100", "101", "102", "103", "104"]
        values = [[float(v) for v in r.split(": ")[1].split(",")] for r in rows]
        np.testing.assert_allclose(values, w.values, rtol=1e-5)

    def test_budget_is_inclusive(self, monkeypatch):
        w = windows(1)[0]
        text = llm.serialize_window(w)
        monkeypatch.setattr(llm, "MAX_DATA_CHARS", len(text))
        assert llm.serialize_window(w) == text
        monkeypatch.setattr(llm, "MAX_DATA_CHARS", len(text) - 1)
        with pytest.raises(ConfigError, match="window 'w0'"):
            llm.serialize_window(w)
