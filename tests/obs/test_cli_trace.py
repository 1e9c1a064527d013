"""Tests for the ``repro-trace`` CLI (``python -m repro.cli trace ...``)."""

import json

import pytest

from repro.cli import main, trace_main
from repro.easypap.monitor import iteration_view
from repro.obs import Tracer, summarize
from repro.sandpile import center_pile, run_to_fixpoint

from tests.obs.chrome_checks import assert_valid_chrome_doc


@pytest.fixture
def obs_session(tmp_path):
    """An obs session file with two lanes and a flow."""
    t = Tracer(process="demo")
    a = t.add_span("produce", start=0.0, end=1.0, tid=0)
    b = t.add_span("consume", start=1.5, end=2.0, tid=1)
    t.flow("hand-off", a, ("demo", 1, b.start))
    path = tmp_path / "session.jsonl"
    t.save_jsonl(path)
    return path


@pytest.fixture
def easypap_file(tmp_path):
    """The tile spans of a real ``lazy`` run, saved as an obs session."""
    tracer = Tracer()
    run_to_fixpoint(center_pile(16, 16, 300), "sandpile", "lazy", tile_size=4, tracer=tracer)
    path = tmp_path / "easypap.jsonl"
    tracer.save_jsonl(path)
    return tracer, path


class TestExport:
    def test_chrome_json_out(self, obs_session, tmp_path, capsys):
        out = tmp_path / "chrome.json"
        assert trace_main(["export", str(obs_session), "--out", str(out)]) == 0
        assert f"wrote {out}" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert_valid_chrome_doc(doc)
        assert doc["otherData"]["process"] == "demo"

    def test_ascii(self, obs_session, capsys):
        assert trace_main(["export", str(obs_session), "--ascii", "--width", "30"]) == 0
        out = capsys.readouterr().out
        assert "2 spans" in out and "legend:" in out and "% busy" in out

    def test_easypap_session_exports_one_event_per_tile(self, easypap_file, tmp_path):
        # tile spans are batch-relative, so one iteration is one valid timeline
        tracer, _ = easypap_file
        view = iteration_view(tracer, 3)
        path, out = tmp_path / "iteration3.jsonl", tmp_path / "chrome.json"
        view.save_jsonl(path)
        assert trace_main(["export", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert_valid_chrome_doc(doc)
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(events) == len(view) > 0

    def test_no_output_requested_is_an_error(self, obs_session, capsys):
        assert trace_main(["export", str(obs_session)]) == 2
        assert "nothing to do" in capsys.readouterr().err


class TestSummary:
    def test_matches_trace_summarize(self, easypap_file, capsys):
        """Acceptance: CLI numbers == ``summarize(iteration_view(...))``."""
        tracer, path = easypap_file
        assert trace_main(["summary", str(path), "--iteration", "3"]) == 0
        out = capsys.readouterr().out

        expected = summarize(iteration_view(tracer, 3))
        assert expected.span_count > 0
        assert out == expected.render(title=f"{path} iteration 3") + "\n"

    def test_whole_trace_summary(self, obs_session, capsys):
        assert trace_main(["summary", str(obs_session)]) == 0
        assert "2 spans" in capsys.readouterr().out


class TestDiff:
    def test_side_by_side(self, obs_session, easypap_file, capsys):
        _, right = easypap_file
        assert trace_main(["diff", str(obs_session), str(right)]) == 0
        out = capsys.readouterr().out
        assert f"{obs_session} vs {right}" in out
        assert "makespan" in out and "ratio" in out

    def test_iteration_filter_applies_to_both_sides(self, easypap_file, capsys):
        tracer, path = easypap_file
        assert trace_main(["diff", str(path), str(path), "--iteration", "1"]) == 0
        out = capsys.readouterr().out
        assert f"{path} iteration 1 vs {path} iteration 1" in out
        n = len(iteration_view(tracer, 1))
        assert 0 < n < len(tracer)
        assert f"spans     : {n} vs {n}" in out


class TestDispatch:
    def test_module_dispatcher_routes_trace(self, obs_session, capsys):
        assert main(["trace", "summary", str(obs_session)]) == 0
        assert "2 spans" in capsys.readouterr().out

    def test_usage_lists_trace(self, capsys):
        assert main(["--help"]) == 0
        assert "trace" in capsys.readouterr().out
