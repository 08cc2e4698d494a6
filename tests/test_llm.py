import json

import numpy as np
import pytest

from collate import llm
from collate.core import ScoreKind, TimeSeriesWindow
from collate.errors import MalformedResponse, MissingFixture, ScoreOutOfRange
from collate.llm import (
    ExampleStore,
    LlmBackendConfig,
    mgab_template,
    score_windows,
    write_fixture,
)


def windows(count=10, length=20):
    rng = np.random.default_rng(0)
    return [TimeSeriesWindow(rng.normal(size=(length, 1)), start_index=i * length)
            for i in range(count)]


def fixture_for(ws, path):
    rng = np.random.default_rng(1)
    table = {w.window_id(): rng.uniform(0, 1, w.length) for w in ws}
    write_fixture(path, table)
    return table


def score(path, ws):
    cfg = LlmBackendConfig(mode="mock", fixture_path=str(path))
    return score_windows(cfg, ws, ExampleStore(capacity=4), mgab_template())


class TestMockScoring:
    def test_fixture_read_once_per_call(self, tmp_path, monkeypatch):
        ws = windows(10)
        table = fixture_for(ws, tmp_path / "f.jsonl")
        calls = []
        real = llm.load_fixture

        def counting(path, ws):
            calls.append(path)
            return real(path, ws)

        monkeypatch.setattr(llm, "load_fixture", counting)
        out = score(tmp_path / "f.jsonl", ws)
        assert len(calls) == 1
        assert sorted(out) == sorted(table)
        for wid, series in out.items():
            assert series.kind is ScoreKind.LLM
            np.testing.assert_array_equal(series.scores, table[wid])

    def test_builds_no_prompts(self, tmp_path, monkeypatch):
        ws = windows(3)
        fixture_for(ws, tmp_path / "f.jsonl")

        def no_prompt(*args):
            raise AssertionError("mock scoring built a prompt")

        monkeypatch.setattr(llm, "build_prompt", no_prompt)
        assert sorted(score(tmp_path / "f.jsonl", ws)) == sorted(w.window_id() for w in ws)

    def test_missing_window(self, tmp_path):
        ws = windows(3)
        fixture_for(ws[:2], tmp_path / "f.jsonl")
        with pytest.raises(MissingFixture):
            score(tmp_path / "f.jsonl", ws)

    def test_wrong_length(self, tmp_path):
        ws = windows(2)
        write_fixture(tmp_path / "f.jsonl", {w.window_id(): np.full(5, 0.5) for w in ws})
        with pytest.raises(MalformedResponse):
            score(tmp_path / "f.jsonl", ws)

    def test_malformed_line(self, tmp_path):
        (tmp_path / "f.jsonl").write_text('{"window_id": "w0", "scores": [0.1\n')
        with pytest.raises(MalformedResponse):
            score(tmp_path / "f.jsonl", windows(1))

    def test_score_out_of_range(self, tmp_path):
        ws = windows(1)
        write_fixture(tmp_path / "f.jsonl", {ws[0].window_id(): np.full(20, 1.5)})
        with pytest.raises(ScoreOutOfRange):
            score(tmp_path / "f.jsonl", ws)

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
        np.testing.assert_array_equal(llm.load_fixture(tmp_path / "f.jsonl", ws)["w0"].scores,
                                      [0.0, 1.0] * 10)

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

    def test_no_fixture_path(self):
        cfg = LlmBackendConfig(mode="mock")
        with pytest.raises(MissingFixture):
            score_windows(cfg, windows(1), ExampleStore(capacity=4), mgab_template())


class TestLiveScoring:
    def test_one_prompt_per_window_through_the_transport(self):
        ws = windows(3)
        prompts = []

        def transport(cfg, prompt):
            prompts.append(prompt)
            return "\n".join(["0.25"] * 20)

        cfg = LlmBackendConfig(mode="live", max_in_flight=1)
        out = score_windows(cfg, ws, ExampleStore(capacity=4), mgab_template(), transport)
        assert len(prompts) == 3
        assert all(f"{w.start_index}: " in p for w, p in zip(ws, prompts))
        for w in ws:
            assert out[w.window_id()].kind is ScoreKind.LLM
            np.testing.assert_array_equal(out[w.window_id()].scores, 0.25)
