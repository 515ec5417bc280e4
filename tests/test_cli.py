import dataclasses
import gc
import hashlib
import json
import math
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

import dao.cli
import helpers
from dao.backends import HashEmbedder
from dao.cli import RunConfig, _backends, main
from dao.corpus import INDEX_SLICES, event_row, parse_event_row
from dao.debate import debater_name
from dao.errors import InvalidConfig, TransportError
from dao.prompts import TEMPLATES, render_prompt
from dao.replay import ReplayBundle

FIXTURES = Path(__file__).parent / "fixtures"
README = Path(__file__).parent.parent / "README.md"


def _read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


# -- config round-trip


def test_config_round_trip_byte_stable(tmp_path):
    path = tmp_path / "config.json"
    RunConfig().save(path)
    first = path.read_bytes()
    RunConfig.load(path).save(path)
    assert path.read_bytes() == first


def test_configs_that_run_and_calibrate_write_reload_to_the_same_settings(tmp_path):
    paths = helpers.build_replay_run(tmp_path / "run", 1, FIXTURES)
    out_dir = tmp_path / "out"
    assert main(["run", "-c", str(paths["config"]), "--input", str(paths["input"]), "--out", str(out_dir)]) == 0
    snapshot = RunConfig.load(out_dir / "config.json").to_dict()
    assert snapshot == RunConfig.load(paths["config"]).to_dict()
    # Five calibration rows at delta 0.1 give an infinite threshold, which
    # the written config holds as JSON `Infinity`.
    config_path, _ = _calibration_setup(tmp_path, keyed_rows=5, total_rows=5)
    assert main(["calibrate", "-c", str(config_path)]) == 0
    written = json.loads(config_path.read_text())
    assert math.inf in written["adacp"]["initial_threshold"].values()
    assert RunConfig.load(config_path).to_dict() == written


def test_config_defaults_match_standard_values():
    config = RunConfig()
    assert config.drag.top_k == 128
    assert config.drag.max_examples == 10
    assert config.drag.initial_radius == 1.35
    assert config.drag.radius_decay == 0.9
    assert config.adacp.beta == 0.5
    assert config.adacp.initial_threshold == {"ed": 1.0, "eae": 3.0}
    assert config.max_rounds == 3


@pytest.mark.parametrize("workers", [0, -1])
def test_config_rejects_fewer_than_one_worker(tmp_path, workers):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        RunConfig.from_dict({"workers": workers})
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"workers": workers}), encoding="utf-8")
    with pytest.raises(ValueError, match="workers must be at least 1"):
        RunConfig.load(path)
    assert RunConfig.from_dict({"workers": 1}).workers == 1


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("run", {"workers": 0}, "workers must be at least 1"),
        ("run", {"drag": {"top_k": 0}}, "top_k and max_examples must be positive"),
        ("run", {"adacp": {"delta": 2}}, "delta must be in (0, 1), got 2"),
        ("run", {"drag": {"max_examples": "5"}}, "drag.max_examples must be an integer, got '5'"),
        ("run", {"drag": 5}, "drag must be a JSON object, not int"),
        ("run", {"adacp": {"initial_threshold": 1.0}}, "initial_threshold must map task names"),
        ("run", "{not json", "Expecting property name enclosed in double quotes"),
        ("calibrate", {"drag": {"top_k": 0}}, "top_k and max_examples must be positive"),
        ("calibrate", {"workers": 0}, "workers must be at least 1"),
        ("run", {"max_rounds": 0}, "max_rounds must be at least 1"),
        ("run", {"max_rounds": "3"}, "max_rounds must be an integer, got '3'"),
        ("run", {"drag": {"max_examples": 2.5}}, "max_examples must be an integer, got 2.5"),
        ("run", {"drag": {"top_k": True, "max_examples": 1}}, "top_k must be an integer, got True"),
        ("run", {"backends": {"chat": {"endpont": "x"}}}, ": unknown key backends.chat.endpont"),
        ("run", {"backends": {"debaters": [{"nme": "A"}, {}]}}, ": unknown key backends.debaters[0].nme"),
        (
            "run",
            {"backends": {"debaters": [{}, {"temperature": True}]}},
            "backends.debaters[1].temperature must be a number, got True",
        ),
        ("run", {"backends": {"replay_bundle": 5}}, "backends.replay_bundle must be a string or null, got 5"),
        ("run", {"max_round": 5}, ": unknown key max_round"),
        ("calibrate", {"max_round": 5}, ": unknown key max_round"),
        ("calibrate", {"backends": {"chat": {"endpont": "x"}}}, ": unknown key backends.chat.endpont"),
        ("run", {"adacp": {"beta": True}}, "adacp.beta must be a number, got True"),
        ("calibrate", {"adacp": {"beta": True}}, "adacp.beta must be a number, got True"),
        ("run", {"drag": {"radius_decay": True}}, "drag.radius_decay must be a number, got True"),
        ("calibrate", {"drag": {"radius_decay": True}}, "drag.radius_decay must be a number, got True"),
        ("run", {"drag": {"positive_quota": 3}}, ": unknown key drag.positive_quota"),
        ("calibrate", {"drag": {"positive_quota": 3}}, ": unknown key drag.positive_quota"),
        ("run", {"use_llm_summarizer": True}, ": unknown key use_llm_summarizer"),
        ("calibrate", {"use_llm_summarizer": False}, ": unknown key use_llm_summarizer"),
        ("run", {"drag": {"initial_radius": math.nan}}, "drag.initial_radius must be a finite number, got nan"),
        ("calibrate", {"drag": {"initial_radius": math.nan}}, "drag.initial_radius must be a finite number, got nan"),
        ("run", {"drag": {"initial_radius": math.inf}}, "drag.initial_radius must be a finite number, got inf"),
        (
            "run",
            {"adacp": {"initial_threshold": {"ed": math.nan, "eae": 3.0}}},
            "adacp.initial_threshold.ed must be a finite number, got nan",
        ),
        (
            "run",
            {"adacp": {"initial_threshold": {"ed": 1.0, "eae": -math.inf}}},
            "adacp.initial_threshold.eae must be a finite number, got -inf",
        ),
        (
            "run",
            {"backends": {"debaters": [{}, {"temperature": math.nan}]}},
            "backends.debaters[1].temperature must be a finite number, got nan",
        ),
        ("run", {"backends": {"chat": {"timeout": math.inf}}}, "backends.chat.timeout must be a finite number, got inf"),
        ("run", {"backends": {"chat": {"max_attempts": 0}}}, "backends.chat.max_attempts must be at least 1"),
        ("calibrate", {"backends": {"chat": {"max_attempts": 0}}}, "backends.chat.max_attempts must be at least 1"),
        ("run", {"backends": {"chat": {"timeout": -1}}}, "backends.chat.timeout must be positive"),
        ("calibrate", {"backends": {"chat": {"timeout": -1}}}, "backends.chat.timeout must be positive"),
        ("run", {"backends": {"chat": {"timeout": 0}}}, "backends.chat.timeout must be positive"),
        ("run", {"backends": {"chat": {"backoff": -0.5}}}, "backends.chat.backoff must not be negative"),
        ("calibrate", {"backends": {"chat": {"backoff": -0.5}}}, "backends.chat.backoff must not be negative"),
    ],
)
def test_config_value_error_exits_two_naming_the_file(tmp_path, capsys, command, edit, message):
    paths = helpers.build_replay_run(tmp_path, 1, FIXTURES)
    config = json.loads(paths["config"].read_text())
    text = edit if isinstance(edit, str) else json.dumps({**config, **edit})
    paths["config"].write_text(text, encoding="utf-8")
    out_dir = tmp_path / "out"
    argv = ["-c", str(paths["config"])]
    if command == "run":
        argv += ["--input", str(paths["input"]), "--out", str(out_dir)]
    assert main([command, *argv]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"dao: InvalidConfig: {paths['config']}: ")
    assert message in line
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "data, key",
    [
        ({"seed": 7, "max_rounds": 2}, "seed"),
        ({"drag": {"freeze_topk": True, "top_k": 64}}, "drag.freeze_topk"),
        ({"use_llm_summarizer": True}, "use_llm_summarizer"),
        ({"use_llm_summarizer": False, "workers": 2}, "use_llm_summarizer"),
    ],
)
def test_config_with_removed_keys_is_rejected(tmp_path, data, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(InvalidConfig) as raised:
        RunConfig.load(path)
    assert str(raised.value) == f"{path}: unknown key {key}"


def test_readme_configuration_table_matches_defaults():
    section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    rows = re.findall(r"^\| `([^`]+)` \| ([^|]+) \|", section, re.MULTILINE)
    assert len(rows) >= 10
    defaults = RunConfig().to_dict()
    for key, default in rows:
        value = defaults
        for part in key.split("."):
            assert part in value, key
            value = value[part]
        assert value == json.loads(default), key


# -- live backend construction


def _live_team(**config):
    _, _, team_for, _ = _backends(RunConfig.from_dict(config))
    return team_for("s1")


def test_team_for_without_bundle_binds_debater_models():
    config = RunConfig.from_dict(
        {
            "backends": {
                "chat": {"endpoint": "http://localhost:9/chat", "model": "base", "timeout": 7.0},
                "debaters": [{"name": "A", "model": "model-a", "temperature": 0.3}, {"name": "B"}],
            }
        }
    )
    embedder, scorer, team_for, _ = _backends(config)
    team = team_for("s1")
    assert [d.name for d in team.debaters] == ["A", "B"]
    assert [d.backend.model for d in team.debaters] == ["model-a", "base"]
    assert [d.temperature for d in team.debaters] == [0.3, 0.0]
    # A partial chat section keeps the defaults for the keys it leaves out.
    for backend in [d.backend for d in team.debaters] + [team.critic]:
        assert backend.endpoint == "http://localhost:9/chat"
        assert (backend.timeout, backend.max_attempts, backend.backoff) == (7.0, 5, 0.5)
        assert backend.api_key_env == "DAO_API_KEY"
    # The chat section's retry policy governs every HTTP request, and each
    # section reads its key from `DAO_API_KEY` unless it names another.
    for backend in (embedder, scorer):
        assert (backend.timeout, backend.max_attempts, backend.backoff) == (7.0, 5, 0.5)
        assert backend.api_key_env == "DAO_API_KEY"


def test_unnamed_live_debaters_are_named_as_replay_names_them(tmp_path):
    team = _live_team(backends={"debaters": [{}, {}, {"name": "Z"}, {}]})
    assert [d.name for d in team.debaters] == ["A", "B", "Z", "D"]
    bundle = tmp_path / "bundle.json"
    script = [["*", "reply"]]
    bundle.write_text(json.dumps({"sessions": {"s1": {"debaters": [script] * 4}}}), encoding="utf-8")
    _, _, team_for, _ = _backends(RunConfig.from_dict({"backends": {"replay_bundle": str(bundle)}}))
    assert [d.name for d in team_for("s1").debaters] == ["A", "B", "C", "D"]


def test_default_debater_names_are_distinct_for_any_team_size():
    names = [debater_name(i) for i in range(1000)]
    assert names[:3] == ["A", "B", "C"] and len(set(names)) == len(names)


def test_team_for_shares_one_client_for_critic_and_judge():
    _, _, team_for, _ = _backends(RunConfig())
    team = team_for("s1")
    assert team.critic is team.judge
    assert team.critic.model == ""
    assert team.critic.api_key_env == "DAO_API_KEY"
    assert all(d.backend is not team.critic for d in team.debaters)
    # One live team serves every sentence.
    assert team_for("s2") is team


# -- calibrate


def _calibration_setup(tmp_path, keyed_rows=5, total_rows=9):
    corpus_path = tmp_path / "calib.jsonl"
    rows = []
    for i in range(1, total_rows + 1):
        rows.append(
            {
                "id": f"c{i}",
                "text": f"Calib sentence {i} says rebels attacked the town .",
                "split": "calib",
                "events": [{"type": "Conflict:Attack", "trigger": "attacked", "arguments": []}],
            }
        )
    corpus_path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    bundle_path = tmp_path / "bundle.json"
    keys = [
        [f"Calib sentence {i} ", '["Conflict:Attack", "attacked"]']
        for i in range(1, keyed_rows + 1)
    ]
    bundle_path.write_text(
        json.dumps({"embedder": {"dimension": 64}, "scorer": {"keys": keys}}) + "\n",
        encoding="utf-8",
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "ontology": str(FIXTURES / "ontology_ace.jsonl"),
                "reference_corpus": str(corpus_path),
                "adacp": {
                    "delta": 0.1,
                    "beta": 0.5,
                    "initial_threshold": {"ed": None, "eae": None},
                },
                "backends": {"replay_bundle": str(bundle_path)},
            }
        ),
        encoding="utf-8",
    )
    return config_path, corpus_path


@pytest.mark.parametrize("interval", [None, 1e-6], ids=["default_interval", "1us_interval"])
def test_calibrate_writes_oracle_quantile(tmp_path, capsys, interval):
    # Each risk lands at its pair's index, also with threads switching
    # every microsecond.
    config_path, _ = _calibration_setup(tmp_path)
    default = sys.getswitchinterval()
    sys.setswitchinterval(interval or default)
    try:
        assert main(["calibrate", "-c", str(config_path)]) == 0
    finally:
        sys.setswitchinterval(default)
    written = json.loads(config_path.read_text())
    # Five keyed rows score 0.1, four unkeyed rows score 2.0.
    expected = helpers.oracle_quantile([0.1] * 5 + [2.0] * 4, 0.1)
    assert written["adacp"]["initial_threshold"]["ed"] == pytest.approx(expected)
    assert written["adacp"]["initial_threshold"]["eae"] is not None
    out = capsys.readouterr().out
    assert "task=ed n=9 delta=0.1" in out


class _BarrierScorer:
    """Every score waits until a second score is in flight."""

    def __init__(self, inner):
        self.inner = inner
        self.barrier = threading.Barrier(2, timeout=5)

    def negative_log_likelihood(self, prompt, completion):
        self.barrier.wait()
        return self.inner.negative_log_likelihood(prompt, completion)


def test_calibrate_overlaps_scorer_calls(tmp_path, monkeypatch):
    # Ten rows of one event each: both tasks score ten pairs, which meet
    # on the barrier two by two.
    config_path, _ = _calibration_setup(tmp_path, total_rows=10)
    backends = dao.cli._backends

    def barrier_backends(config):
        embedder, scorer, team_for, most = backends(config)
        return embedder, _BarrierScorer(scorer), team_for, most

    monkeypatch.setattr(dao.cli, "_backends", barrier_backends)
    threads = threading.active_count()
    assert main(["calibrate", "-c", str(config_path)]) == 0
    thresholds = json.loads(config_path.read_text())["adacp"]["initial_threshold"]
    assert None not in thresholds.values()
    assert threading.active_count() == threads


def test_calibrate_overlaps_at_most_index_slices_scorer_calls(tmp_path, monkeypatch):
    # Both tasks score 2 × INDEX_SLICES pairs; the scoring endpoint sees
    # more than one of them at once, and never more than INDEX_SLICES.
    config_path, _ = _calibration_setup(tmp_path, total_rows=2 * INDEX_SLICES)
    backends = dao.cli._backends
    scores = []

    def peak_backends(config):
        embedder, scorer, team_for, most = backends(config)
        scores.append(helpers.InFlight(scorer.negative_log_likelihood))
        return embedder, SimpleNamespace(negative_log_likelihood=scores[-1]), team_for, most

    monkeypatch.setattr(dao.cli, "_backends", peak_backends)
    assert main(["calibrate", "-c", str(config_path)]) == 0
    (score,) = scores
    assert 2 <= score.peak <= INDEX_SLICES
    assert None not in json.loads(config_path.read_text())["adacp"]["initial_threshold"].values()


class _FailingScorer:
    """Fails the pairs whose prompt holds one of `failing`, or every pair;
    a failure on a pair holding `slow` comes late."""

    def __init__(self, failing=(), slow=None):
        self.failing, self.slow = failing, slow
        self.calls = 0
        self.lock = threading.Lock()

    def negative_log_likelihood(self, prompt, completion):
        with self.lock:
            self.calls += 1
        if self.failing and not any(key in prompt for key in self.failing):
            return 1.0
        if self.slow and self.slow in prompt:
            time.sleep(0.05)
        raise TransportError(f"failed: {prompt[prompt.index('Calib'):][:20]}")


def _failing_calibration(tmp_path, monkeypatch, total_rows, scorer):
    config_path, _ = _calibration_setup(tmp_path, total_rows=total_rows)
    backends = dao.cli._backends

    def failing_backends(config):
        embedder, _, team_for, most = backends(config)
        return embedder, scorer, team_for, most

    monkeypatch.setattr(dao.cli, "_backends", failing_backends)
    threads = threading.active_count()
    assert main(["calibrate", "-c", str(config_path)]) == 2
    assert threading.active_count() == threads
    assert json.loads(config_path.read_text())["adacp"]["initial_threshold"] == {"ed": None, "eae": None}


def test_calibrate_stops_scoring_after_the_first_failure(tmp_path, monkeypatch, capsys):
    scorer = _FailingScorer()
    _failing_calibration(tmp_path, monkeypatch, 1200, scorer)
    # The pairs in flight when the first one fails finish; no queued pair is sent.
    assert 1 <= scorer.calls <= 2 * INDEX_SLICES
    assert capsys.readouterr().err.startswith("dao: TransportError: failed: Calib sentence 1 ")


def test_calibrate_raises_the_first_failure_in_pair_order(tmp_path, monkeypatch, capsys):
    # Pair 3 fails after pair 7 has; pair 3's failure is the one raised,
    # also with threads switching every microsecond.
    scorer = _FailingScorer(failing=("sentence 3 ", "sentence 7 "), slow="sentence 3 ")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _failing_calibration(tmp_path, monkeypatch, 40, scorer)
    finally:
        sys.setswitchinterval(interval)
    assert capsys.readouterr().err.startswith("dao: TransportError: failed: Calib sentence 3 ")


def test_calibrate_respects_override(tmp_path, capsys):
    config_path, _ = _calibration_setup(tmp_path)
    config = json.loads(config_path.read_text())
    config["adacp"]["initial_threshold"] = {"ed": 1.0, "eae": 3.0}
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["calibrate", "-c", str(config_path)]) == 0
    written = json.loads(config_path.read_text())
    assert written["adacp"]["initial_threshold"] == {"ed": 1.0, "eae": 3.0}
    assert "calibration skipped" in capsys.readouterr().out


def test_calibrate_empty_split_without_override_fails(tmp_path):
    config_path, corpus_path = _calibration_setup(tmp_path)
    rows = [json.loads(line) for line in corpus_path.read_text().splitlines()]
    for row in rows:
        row["split"] = "train"
    corpus_path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    assert main(["calibrate", "-c", str(config_path)]) == 2


def test_calibrate_without_eae_pairs_fails_before_scoring(tmp_path, monkeypatch, capsys):
    # Six no-event calib rows give six `ed` pairs and no `eae` pair: the
    # empty set is rejected before any `ed` pair is scored.
    config_path, corpus_path = _calibration_setup(tmp_path, total_rows=6)
    rows = [json.loads(line) for line in corpus_path.read_text().splitlines()]
    corpus_path.write_text("".join(json.dumps({**r, "events": []}) + "\n" for r in rows), encoding="utf-8")
    before = config_path.read_bytes()
    backends = dao.cli._backends
    scorers = []

    def recording_backends(config):
        embedder, scorer, team_for, most = backends(config)
        scorers.append(helpers.RecordingScorer(scorer))
        return embedder, scorers[-1], team_for, most

    monkeypatch.setattr(dao.cli, "_backends", recording_backends)
    assert main(["calibrate", "-c", str(config_path)]) == 2
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    assert line.startswith("dao: EmptyCalibrationSet:") and "'eae'" in line
    assert "task=" not in out
    (scorer,) = scorers
    assert scorer.calls == []
    assert config_path.read_bytes() == before


def test_calibrate_keeps_the_bundle_whose_scorer_fit_the_thresholds(tmp_path):
    config_path, _ = _calibration_setup(tmp_path)
    bundle = json.loads(config_path.read_text())["backends"]["replay_bundle"]
    assert main(["calibrate", "-c", str(config_path)]) == 0
    assert json.loads(config_path.read_text())["backends"]["replay_bundle"] == bundle


def test_calibrate_reads_relative_paths_from_the_config_directory_and_keeps_them(tmp_path, monkeypatch):
    config_path, _ = _calibration_setup(tmp_path)
    config = json.loads(config_path.read_text())
    config["reference_corpus"] = "calib.jsonl"
    config["backends"]["replay_bundle"] = "bundle.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert main(["calibrate", "-c", "../config.json"]) == 0
    written = json.loads(config_path.read_text())
    assert written["reference_corpus"] == "calib.jsonl"
    assert written["backends"]["replay_bundle"] == "bundle.json"
    assert None not in written["adacp"]["initial_threshold"].values()


def test_calibrate_live_config_with_one_debater_exits_two(tmp_path, capsys):
    config_path, _ = _calibration_setup(tmp_path)
    config = json.loads(config_path.read_text())
    config["backends"] = {"debaters": [{"name": "A"}]}
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["calibrate", "-c", str(config_path)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("dao: InvalidTeam:") and "two debaters" in line


def test_calibrate_live_config_with_duplicate_debater_names_exits_two(tmp_path, capsys):
    config_path, _ = _calibration_setup(tmp_path)
    config = json.loads(config_path.read_text())
    config["backends"] = {"debaters": [{"name": "B"}, {}]}
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["calibrate", "-c", str(config_path)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "dao: InvalidTeam: two debaters are named 'B'"


# -- run


def test_run_replay_table_3a(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "ontology": str(FIXTURES / "ontology_ace.jsonl"),
                "reference_corpus": str(FIXTURES / "corpus_small.jsonl"),
                "backends": {"replay_bundle": str(FIXTURES / "replay_table3a.json")},
            }
        ),
        encoding="utf-8",
    )
    input_path = tmp_path / "input.jsonl"
    input_path.write_text(
        json.dumps(
            {
                "id": "test-001",
                "text": "McCarthy was formerly a top civil servant at the Department of Trade and Industry .",
                "events": [],
            }
        )
        + "\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    assert main(["run", "-c", str(config_path), "--input", str(input_path), "--out", str(out_dir)]) == 0
    (prediction,) = _read_jsonl(out_dir / "predictions.jsonl")
    assert prediction["events"][0]["type"] == "Personnel:End-Position"
    assert prediction["events"][0]["trigger"] == "formerly"
    for name in ("config.json", "predictions.jsonl", "transcripts.jsonl", "risk_histogram.json"):
        assert (out_dir / name).exists()


def test_import_leaves_the_http_stack_unloaded():
    script = "import sys, dao.cli; print('requests' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_leaves_fractions_unloaded():
    # Only `calibrate` needs exact rationals; a run without calibration never loads them.
    script = "import sys, dao.cli; print('fractions' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_replay_run_without_requests_matches_in_process_run(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "ontology": str(FIXTURES / "ontology_ace.jsonl"),
                "reference_corpus": str(FIXTURES / "corpus_small.jsonl"),
                "backends": {"replay_bundle": str(FIXTURES / "replay_table3a.json")},
            }
        ),
        encoding="utf-8",
    )
    input_path = tmp_path / "input.jsonl"
    input_path.write_text(
        json.dumps(
            {
                "id": "test-001",
                "text": "McCarthy was formerly a top civil servant at the Department of Trade and Industry .",
                "events": [],
            }
        )
        + "\n",
        encoding="utf-8",
    )
    args = ["run", "-c", str(config_path), "--input", str(input_path), "--out"]
    assert main([*args, str(tmp_path / "in_process")]) == 0
    # A None entry in sys.modules makes `import requests` raise ImportError.
    # Nor does the run load `_hashlib`, and with it OpenSSL: a string given
    # to sys.exit is printed and exits 1.
    script = (
        "import sys; sys.modules['requests'] = None; from dao.cli import main; code = main(sys.argv[1:]); "
        "sys.exit(code or ('_hashlib' in sys.modules and 'the replay run loaded _hashlib'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *args, str(tmp_path / "offline")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    predictions = (tmp_path / "offline" / "predictions.jsonl").read_bytes()
    assert predictions == (tmp_path / "in_process" / "predictions.jsonl").read_bytes()
    (prediction,) = _read_jsonl(tmp_path / "offline" / "predictions.jsonl")
    assert prediction["events"][0]["type"] == "Personnel:End-Position"


def test_run_replay_table_3b_empty_prediction(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "ontology": str(FIXTURES / "ontology_ace.jsonl"),
                "reference_corpus": str(FIXTURES / "corpus_small.jsonl"),
                "backends": {"replay_bundle": str(FIXTURES / "replay_table3b.json")},
            }
        ),
        encoding="utf-8",
    )
    input_path = tmp_path / "input.jsonl"
    input_path.write_text(
        json.dumps(
            {
                "id": "test-002",
                "text": "The celebrity couple split up very publicly four years ago and each has since had well-publicized relationships with others .",
                "events": [],
            }
        )
        + "\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    assert main(["run", "-c", str(config_path), "--input", str(input_path), "--out", str(out_dir)]) == 0
    (prediction,) = _read_jsonl(out_dir / "predictions.jsonl")
    assert prediction["events"] == []


# sha256 prefixes of predictions.jsonl / transcripts.jsonl / risk_histogram.json.
# A change that alters the artifacts on purpose updates these and says why.
REPLAY_DIGESTS = {
    "replay_table3a": ("c1064c84d4fce771", "3712213f3296877c", "c8c4b273a5588d32"),
    "replay_table3b": ("db4f415b9051d07e", "6e4c638b1eba5bb5", "01e4452de778145c"),
}


def _run_bundled_replay(tmp_path, bundle):
    """`dao run` of a bundled replay over the corpus rows it scripts; the
    output directory."""
    bundle_path = FIXTURES / f"{bundle}.json"
    sessions = json.loads(bundle_path.read_text())["sessions"]
    rows = [row for row in _read_jsonl(FIXTURES / "corpus_small.jsonl") if row["id"] in sessions]
    input_path = tmp_path / "input.jsonl"
    input_path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "ontology": str(FIXTURES / "ontology_ace.jsonl"),
                "reference_corpus": str(FIXTURES / "corpus_small.jsonl"),
                "backends": {"replay_bundle": str(bundle_path)},
            }
        ),
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    assert main(["run", "-c", str(config_path), "--input", str(input_path), "--out", str(out_dir)]) == 0
    return out_dir


@pytest.mark.parametrize("bundle", sorted(REPLAY_DIGESTS))
def test_run_replay_artifacts_byte_identical_to_recorded_digests(tmp_path, bundle):
    out_dir = _run_bundled_replay(tmp_path, bundle)
    digests = tuple(
        hashlib.sha256((out_dir / name).read_bytes()).hexdigest()[:16]
        for name in ("predictions.jsonl", "transcripts.jsonl", "risk_histogram.json")
    )
    assert digests == REPLAY_DIGESTS[bundle]


@pytest.mark.parametrize("bundle", sorted(REPLAY_DIGESTS))
def test_run_is_reproduced_from_the_config_it_wrote(tmp_path, bundle):
    # The config names every input of a run, its replay bundle too.
    first = _run_bundled_replay(tmp_path, bundle)
    second = tmp_path / "second"
    argv = ["run", "-c", str(first / "config.json"), "--input", str(tmp_path / "input.jsonl"), "--out", str(second)]
    assert main(argv) == 0
    for name in ("config.json", "predictions.jsonl", "transcripts.jsonl", "risk_histogram.json"):
        assert (second / name).read_bytes() == (first / name).read_bytes(), name


def test_run_is_reproduced_from_another_directory_through_its_own_config(tmp_path, monkeypatch):
    # The config names its files relative to its own directory, as the
    # benchmark's do; the run's config.json names them by absolute path.
    demo, elsewhere = tmp_path / "demo", tmp_path / "elsewhere"
    demo.mkdir()
    elsewhere.mkdir()
    for name in ("ontology_ace.jsonl", "corpus_small.jsonl", "replay_table3a.json"):
        (demo / name).write_bytes((FIXTURES / name).read_bytes())
    sessions = json.loads((FIXTURES / "replay_table3a.json").read_text())["sessions"]
    rows = [row for row in _read_jsonl(FIXTURES / "corpus_small.jsonl") if row["id"] in sessions]
    (demo / "input.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    config = {
        "ontology": "ontology_ace.jsonl",
        "reference_corpus": "corpus_small.jsonl",
        "backends": {"replay_bundle": "replay_table3a.json"},
    }
    (demo / "config.json").write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.chdir(demo)
    assert main(["run", "-c", "config.json", "--input", "input.jsonl", "--out", "run1"]) == 0
    written = json.loads((demo / "run1" / "config.json").read_text())
    assert written["ontology"] == str(demo / "ontology_ace.jsonl")
    assert written["backends"]["replay_bundle"] == str(demo / "replay_table3a.json")
    monkeypatch.chdir(elsewhere)
    argv = ["run", "-c", "../demo/run1/config.json", "--input", "../demo/input.jsonl", "--out", "run2"]
    assert main(argv) == 0
    for name in ("config.json", "predictions.jsonl", "transcripts.jsonl", "risk_histogram.json"):
        assert (elsewhere / "run2" / name).read_bytes() == (demo / "run1" / name).read_bytes(), name


@pytest.mark.parametrize("bundle", sorted(REPLAY_DIGESTS))
def test_predictions_round_trip_through_the_row_reader_and_writer(tmp_path, bundle):
    out_dir = _run_bundled_replay(tmp_path, bundle)
    lines = (out_dir / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines
    for line in lines:
        entry = parse_event_row(json.loads(line))
        assert json.dumps(event_row(entry.sentence, entry.events), sort_keys=True) == line


def test_bundled_replays_render_every_prompt_template(tmp_path, monkeypatch):
    rendered = []

    def recording(template_id, bindings):
        rendered.append(template_id)
        return render_prompt(template_id, bindings)

    monkeypatch.setattr("dao.debate.render_prompt", recording)
    for bundle in sorted(REPLAY_DIGESTS):
        (tmp_path / bundle).mkdir()
        _run_bundled_replay(tmp_path / bundle, bundle)
    assert sorted(set(rendered)) == sorted(TEMPLATES)


def test_run_outputs_byte_identical_across_runs(tmp_path):
    paths = helpers.build_replay_run(tmp_path, 5, FIXTURES)
    outputs = []
    for name in ("out1", "out2"):
        out_dir = tmp_path / name
        assert (
            main(["run", "-c", str(paths["config"]), "--input", str(paths["input"]), "--out", str(out_dir)])
            == 0
        )
        outputs.append(
            tuple(
                (out_dir / f).read_bytes()
                for f in ("predictions.jsonl", "transcripts.jsonl", "risk_histogram.json")
            )
        )
    assert outputs[0] == outputs[1]


def test_run_worker_pool_preserves_order_and_output(tmp_path):
    serial = helpers.build_replay_run(tmp_path / "serial", 6, FIXTURES, workers=1)
    pooled = helpers.build_replay_run(tmp_path / "pooled", 6, FIXTURES, workers=3)
    results = []
    for paths, name in ((serial, "sout"), (pooled, "pout")):
        out_dir = tmp_path / name
        assert (
            main(["run", "-c", str(paths["config"]), "--input", str(paths["input"]), "--out", str(out_dir)])
            == 0
        )
        results.append((out_dir / "predictions.jsonl").read_bytes())
    assert results[0] == results[1]


def test_run_histogram_counts_match_risk_events(tmp_path):
    paths = helpers.build_replay_run(tmp_path, 4, FIXTURES)
    out_dir = tmp_path / "out"
    main(["run", "-c", str(paths["config"]), "--input", str(paths["input"]), "--out", str(out_dir)])
    histogram = json.loads((out_dir / "risk_histogram.json").read_text())
    assert histogram["bins"] == 20
    # Two debaters gated once per task per session; all pass in round 0.
    for row in histogram["rounds"]:
        assert len(row["counts"]) == 20
        assert len(row["bin_edges"]) == 21
        assert sum(row["counts"]) == 8  # 4 sessions x 2 debaters
        assert row["round"] == 0


def test_histogram_of_zero_risks_spans_zero_to_one():
    (row,) = dao.cli._histograms({("ed", 0): [0.0, 0.0, 0.0]})["rounds"]
    assert row["bin_edges"][0] == 0.0 and row["bin_edges"][-1] == 1.0
    assert row["counts"] == [3] + [0] * 19


def test_run_without_thresholds_demands_calibration(tmp_path):
    paths = helpers.build_replay_run(tmp_path, 1, FIXTURES, thresholds={"ed": None, "eae": None})
    assert (
        main(["run", "-c", str(paths["config"]), "--input", str(paths["input"]), "--out", str(tmp_path / "o")])
        == 2
    )


# -- eval


def _eval_files(tmp_path, preds, golds):
    pred_path = tmp_path / "pred.jsonl"
    gold_path = tmp_path / "gold.jsonl"
    pred_path.write_text("".join(json.dumps(r) + "\n" for r in preds), encoding="utf-8")
    gold_path.write_text("".join(json.dumps(r) + "\n" for r in golds), encoding="utf-8")
    return pred_path, gold_path


NON_UTF8_LINE = b'{"id": "x", "text": "Caf\xe9 ."}'  # a Latin-1 byte


def _row(sentence_id, text, events):
    return {"id": sentence_id, "text": text, "events": events}


def test_eval_identity_scores_one(tmp_path, capsys):
    rows = [
        _row("s1", "Rebels attacked the town .", [{"type": "Conflict:Attack", "trigger": "attacked", "arguments": []}])
    ]
    pred_path, gold_path = _eval_files(tmp_path, rows, rows)
    assert main(["eval", "--pred", str(pred_path), "--gold", str(gold_path), "--task", "ed", "--metric", "exact"]) == 0
    report = json.loads(Path(f"{pred_path}.scores.json").read_text())
    assert report["f1"] == 1.0


def test_eval_hand_counted_two_thirds(tmp_path):
    text = "The war is sure to kill many ."
    preds = [_row("s1", text, [{"type": "Conflict:Attack", "trigger": "war", "arguments": []}])]
    golds = [
        _row(
            "s1",
            text,
            [
                {"type": "Conflict:Attack", "trigger": "war", "arguments": []},
                {"type": "Life:Die", "trigger": "kill", "arguments": []},
            ],
        )
    ]
    pred_path, gold_path = _eval_files(tmp_path, preds, golds)
    report_path = tmp_path / "report.json"
    assert (
        main(
            [
                "eval", "--pred", str(pred_path), "--gold", str(gold_path),
                "--task", "ed", "--metric", "exact", "--report", str(report_path),
            ]
        )
        == 0
    )
    report = json.loads(report_path.read_text())
    assert report["f1"] == pytest.approx(0.6667, abs=1e-4)
    assert report["precision"] == 1.0
    assert report["recall"] == 0.5


def test_eval_mismatched_ids_scored_as_errors(tmp_path):
    preds = [_row("s9", "Rebels attacked the town .", [{"type": "Conflict:Attack", "trigger": "attacked", "arguments": []}])]
    golds = [_row("s1", "Rebels attacked the town .", [{"type": "Conflict:Attack", "trigger": "attacked", "arguments": []}])]
    pred_path, gold_path = _eval_files(tmp_path, preds, golds)
    report_path = tmp_path / "report.json"
    assert (
        main(
            [
                "eval", "--pred", str(pred_path), "--gold", str(gold_path),
                "--task", "ed", "--metric", "exact", "--report", str(report_path),
            ]
        )
        == 0
    )
    report = json.loads(report_path.read_text())
    assert report["tp"] == 0 and report["fp"] == 1 and report["fn"] == 1


def test_eval_argument_head_metric(tmp_path):
    text = "Powell said that talks were now underway with the South Korean, Japanese, Russian and Australian as well as other governments ."
    gold_span = "the South Korean, Japanese, Russian and Australian as well as other governments"
    golds = [
        _row(
            "s1",
            text,
            [{"type": "Contact:Meet", "trigger": "talks", "arguments": [{"role": "Entity", "content": gold_span}]}],
        )
    ]
    preds = [
        _row(
            "s1",
            text,
            [{"type": "Contact:Meet", "trigger": "talks", "arguments": [{"role": "Entity", "content": "other governments"}]}],
        )
    ]
    pred_path, gold_path = _eval_files(tmp_path, preds, golds)
    report_path = tmp_path / "report.json"
    assert (
        main(
            [
                "eval", "--pred", str(pred_path), "--gold", str(gold_path),
                "--task", "eae", "--metric", "head", "--report", str(report_path),
            ]
        )
        == 0
    )
    assert json.loads(report_path.read_text())["f1"] == 1.0


@pytest.mark.parametrize("metric, counts", [("exact", (1, 1, 1)), ("types", (2, 0, 0))])
def test_eval_argument_exact_and_types_metrics(tmp_path, metric, counts):
    text = "Rebels attacked the town at dawn ."

    def row(arguments):
        event = {"type": "Conflict:Attack", "trigger": "attacked", "arguments": arguments}
        return _row("s1", text, [event])

    golds = [row([{"role": "Attacker", "content": "Rebels"}, {"role": "Place", "content": "the town"}])]
    preds = [row([{"role": "Attacker", "content": "Rebels"}, {"role": "Place", "content": "town"}])]
    pred_path, gold_path = _eval_files(tmp_path, preds, golds)
    report_path = tmp_path / "report.json"
    assert (
        main(
            [
                "eval", "--pred", str(pred_path), "--gold", str(gold_path),
                "--task", "eae", "--metric", metric, "--report", str(report_path),
            ]
        )
        == 0
    )
    report = json.loads(report_path.read_text())
    assert (report["tp"], report["fp"], report["fn"]) == counts


def test_eval_types_metric_labeled_as_standin(tmp_path):
    rows = [
        _row("s1", "Rebels attacked the town .", [{"type": "Conflict:Attack", "trigger": "Rebels attacked", "arguments": []}])
    ]
    golds = [
        _row("s1", "Rebels attacked the town .", [{"type": "Conflict:Attack", "trigger": "attacked", "arguments": []}])
    ]
    pred_path, gold_path = _eval_files(tmp_path, rows, golds)
    report_path = tmp_path / "report.json"
    assert (
        main(
            [
                "eval", "--pred", str(pred_path), "--gold", str(gold_path),
                "--task", "ed", "--metric", "types", "--report", str(report_path),
            ]
        )
        == 0
    )
    report = json.loads(report_path.read_text())
    assert report["f1"] == 1.0
    assert "stand-in" in report["note"]


def _event(event_type, trigger, **arguments):
    args = [{"role": role, "content": content} for role, content in arguments.items()]
    return {"type": event_type, "trigger": trigger, "arguments": args}


# s1's predicted Attacker is not in its sentence;
# s2's text is double-spaced; s3's type changed, its predicted Destination
# is not in its sentence and its Time is a role gold does not fill.
_EVAL_TEXTS = {
    "s1": "Rebels attacked the town at dawn .",
    "s2": "The general was killed in  Baghdad .",
    "s3": "Troops moved to the border on Monday .",
}
_EVAL_GOLDS = {
    "s1": [_event("Conflict:Attack", "attacked", Attacker="Rebels", Place="the town")],
    "s2": [_event("Life:Die", "killed", Victim="The general", Place="Baghdad")],
    "s3": [_event("Movement:Transport", "moved", Artifact="Troops", Destination="the border")],
}
_EVAL_PREDS = {
    "s1": [_event("Conflict:Attack", "attacked the town", Attacker="the rebels", Place="town")],
    "s2": [_event("Life:Die", "was killed", Victim="general", Place="in  Baghdad")],
    "s3": [
        _event("Conflict:Attack", "moved", Artifact="Troops", Destination="the border of Iraq", Time="Monday")
    ],
}


@pytest.mark.parametrize(
    "task, metric, counts",
    [
        ("ed", "exact", (0, 3, 3)),
        ("ed", "head", (1, 2, 2)),
        ("ed", "types", (2, 1, 1)),
        ("eae", "exact", (0, 7, 6)),
        ("eae", "head", (3, 4, 3)),
        ("eae", "types", (3, 4, 3)),
    ],
)
def test_eval_counts_for_every_task_and_metric(tmp_path, capsys, task, metric, counts):
    def rows(events):
        return [_row(sentence_id, text, events[sentence_id]) for sentence_id, text in _EVAL_TEXTS.items()]

    pred_path, gold_path = _eval_files(tmp_path, rows(_EVAL_PREDS), rows(_EVAL_GOLDS))
    argv = ["eval", "--pred", str(pred_path), "--gold", str(gold_path), "--task", task, "--metric", metric]
    assert main(argv) == 0
    report = json.loads(Path(f"{pred_path}.scores.json").read_text())
    assert (report["task"], report["metric"]) == (task, metric)
    assert (report["tp"], report["fp"], report["fn"]) == counts
    assert f"| tp/fp/fn  | {'/'.join(map(str, counts))} |" in capsys.readouterr().out


@pytest.mark.parametrize(
    "bad_line, message",
    [
        (b"{not json", "line 2: invalid JSON"),
        (json.dumps({"text": "Rebels attacked the town .", "events": []}).encode(), "line 2: missing key 'id'"),
        (json.dumps(_row("s2", "A b .", [{"type": "Conflict:Attack"}])).encode(), "line 2: missing key 'trigger'"),
        (NON_UTF8_LINE, "line 2: not UTF-8: 'utf-8' codec can't decode byte 0xe9"),
        (json.dumps(_row("s2", "A b .", [{"type": 5, "trigger": "b"}])).encode(), "line 2: type must be a string, got 5"),
        (json.dumps(_row("s2", "A b .", "nope")).encode(), "line 2: events must be an array, got 'nope'"),
        (
            json.dumps(_row("s2", "A b .", [_event("Conflict:Attack", "b", Target=None)])).encode(),
            "line 2: content must be a string, got None",
        ),
    ],
    ids=["not-json", "no-id", "no-trigger", "not-utf8", "type-not-string", "events-not-array", "null-content"],
)
@pytest.mark.parametrize("side", ["pred", "gold"])
def test_eval_malformed_row_exits_two_naming_the_line(tmp_path, capsys, bad_line, message, side):
    rows = [_row("s1", "Rebels attacked the town .", [])]
    pred_path, gold_path = _eval_files(tmp_path, rows, rows)
    bad_path = pred_path if side == "pred" else gold_path
    bad_path.write_bytes(bad_path.read_bytes() + bad_line + b"\n")
    argv = ["eval", "--pred", str(pred_path), "--gold", str(gold_path), "--task", "ed"]
    assert main(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"dao: FormatError: {bad_path}: {message}")


@pytest.mark.parametrize("side", ["pred", "gold"])
def test_eval_repeated_sentence_id_exits_two_naming_the_line(tmp_path, capsys, side):
    # One sentence counted twice would score its items twice.
    row = _row("s1", "Rebels attacked the town .", [{"type": "Conflict:Attack", "trigger": "attacked"}])
    pred_path, gold_path = _eval_files(tmp_path, [row], [row])
    bad_path = pred_path if side == "pred" else gold_path
    bad_path.write_text(bad_path.read_text() * 2, encoding="utf-8")
    argv = ["eval", "--pred", str(pred_path), "--gold", str(gold_path), "--task", "ed"]
    assert main(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"dao: FormatError: {bad_path}: line 2: duplicate sentence id 's1'"


@pytest.mark.parametrize("metric", ["exact", "head", "types"])
@pytest.mark.parametrize("task, items", [("ed", 1), ("eae", 2)])
def test_eval_prediction_absent_from_gold_counts_as_false_positives(tmp_path, task, items, metric):
    text = "Rebels attacked the town at dawn ."
    event = {
        "type": "Conflict:Attack",
        "trigger": "attacked",
        "arguments": [{"role": "Attacker", "content": "Rebels"}, {"role": "Target", "content": "the town"}],
    }
    # Gold has s1 only: s2's items are all false positives, and s1's match.
    preds = [_row("s1", text, [event]), _row("s2", text, [event])]
    pred_path, gold_path = _eval_files(tmp_path, preds, [_row("s1", text, [event])])
    argv = ["eval", "--pred", str(pred_path), "--gold", str(gold_path), "--task", task, "--metric", metric]
    assert main(argv) == 0
    report = json.loads(Path(f"{pred_path}.scores.json").read_text())
    assert (report["tp"], report["fp"], report["fn"]) == (items, items, 0)


NOT_UTF8 = "line 1: not UTF-8: 'utf-8' codec can't decode byte 0xe9"
BAD_TRIGGER_LINE = json.dumps(_row("s1", "The town was shelled .", [{"type": "Conflict:Attack", "trigger": "bombed"}]))
BAD_TRIGGER = "line 1: s1: trigger 'bombed' not found in sentence text"
# Every field of this row has the wrong JSON type; the first one checked is named.
WRONG_TYPES_EVENT = {"type": 9, "trigger": "killed", "arguments": [{"role": 3, "content": "general"}]}
WRONG_TYPES_LINE = json.dumps({"id": 5, "text": "The general was killed .", "split": 7, "events": [WRONG_TYPES_EVENT]})
# The fixture ontology's first row, whose type a second copy repeats.
FIRST_TYPE_LINE = (FIXTURES / "ontology_ace.jsonl").read_bytes().splitlines()[0]
# The fixture corpus's first row, and a row with the generated input's first id.
FIRST_CORPUS_LINE = (FIXTURES / "corpus_small.jsonl").read_bytes().splitlines()[0]
FIRST_INPUT_ID_LINE = json.dumps(_row("gen-000", "Delegates met .", [])).encode()


@pytest.mark.parametrize(
    "which, bad_line, message",
    [
        ("input", NON_UTF8_LINE, NOT_UTF8),
        ("reference_corpus", NON_UTF8_LINE, NOT_UTF8),
        ("ontology", NON_UTF8_LINE, NOT_UTF8),
        ("input", BAD_TRIGGER_LINE.encode(), BAD_TRIGGER),
        ("reference_corpus", BAD_TRIGGER_LINE.encode(), BAD_TRIGGER),
        ("input", WRONG_TYPES_LINE.encode(), "line 1: id must be a string, got 5"),
        ("ontology", FIRST_TYPE_LINE, "line 2: duplicate event type 'Life:Be-Born'"),
        ("input", FIRST_INPUT_ID_LINE, "line 2: duplicate sentence id 'gen-000'"),
        ("reference_corpus", FIRST_CORPUS_LINE, "line 2: duplicate sentence id 'train-001'"),
    ],
    ids=[
        "not-utf8-input",
        "not-utf8-reference_corpus",
        "not-utf8-ontology",
        "span-input",
        "span-reference_corpus",
        "types-input",
        "duplicate-ontology",
        "duplicate-input",
        "duplicate-reference_corpus",
    ],
)
def test_run_bad_row_exits_two_before_the_index_build(tmp_path, capsys, monkeypatch, which, bad_line, message):
    paths = helpers.build_replay_run(tmp_path, 1, FIXTURES)
    config = json.loads(paths["config"].read_text())
    source = paths["input"] if which == "input" else Path(config[which])
    bad = tmp_path / f"bad-{which}.jsonl"
    bad.write_bytes(bad_line + b"\n" + source.read_bytes())
    if which == "input":
        paths["input"] = bad
    else:
        paths["config"].write_text(json.dumps({**config, which: str(bad)}), encoding="utf-8")

    def no_build(*_):
        raise AssertionError("the index was built")

    monkeypatch.setattr(dao.cli, "build_index", no_build)
    out_dir = tmp_path / "out"
    assert main(["run", "-c", str(paths["config"]), "--input", str(paths["input"]), "--out", str(out_dir)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"dao: FormatError: {bad}: {message}")
    assert not out_dir.exists()


def test_run_aborted_session_writes_partial_transcript(tmp_path, capsys):
    # A starved debater script fails the second sentence's session
    # mid-round; an empty one fails its first batch, before any row, so
    # no partial transcript is written.
    for case, script, calls in [("starved", [["*", 'B: ["Contact:Meet", "met"]']], 1), ("empty", [], 0)]:
        paths = helpers.build_replay_run(tmp_path / case, 2, FIXTURES)
        bundle = json.loads(paths["bundle"].read_text())
        bundle["sessions"]["gen-001"]["debaters"][1] = script
        paths["bundle"].write_text(json.dumps(bundle), encoding="utf-8")
        out_dir = tmp_path / case / "out"
        argv = ["run", "-c", str(paths["config"]), "--input", str(paths["input"]), "--out", str(out_dir)]
        assert main(argv) == 2
        assert [row["id"] for row in _read_jsonl(out_dir / "predictions.jsonl")] == ["gen-000"]
        aborted = out_dir / "aborted_transcript.jsonl"
        # Logged warnings share stderr; these are the run's own lines.
        err = capsys.readouterr().err.splitlines()
        lines = [line for line in err if line.startswith(("dao:", "session aborted"))]
        error = f"dao: ScriptExhausted: no replies left after {calls} calls"
        if calls:
            assert lines == [f"session aborted; partial transcript written to {aborted}", error]
            rows = _read_jsonl(aborted)
            assert any(row["stage"] == "ed.opinion" for row in rows)
            assert {row["id"] for row in rows} == {"gen-001"}
        else:
            assert lines == [error]
            assert not aborted.exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_aborted_run_keeps_the_completed_sentences_rows(tmp_path, workers):
    paths = helpers.build_replay_run(tmp_path, 3, FIXTURES, workers=workers)
    clean_dir, aborted_dir = tmp_path / "clean", tmp_path / "aborted"
    argv = ["run", "-c", str(paths["config"]), "--input", str(paths["input"])]
    assert main([*argv, "--out", str(clean_dir)]) == 0
    bundle = json.loads(paths["bundle"].read_text())
    # Starve sentence 2's second debater so its session dies mid-round.
    bundle["sessions"]["gen-001"]["debaters"][1] = [["*", 'B: ["Contact:Meet", "met"]']]
    paths["bundle"].write_text(json.dumps(bundle), encoding="utf-8")
    assert main([*argv, "--out", str(aborted_dir)]) == 2
    # Sentence 1's rows are on disk, byte for byte the clean run's first rows.
    for name in ("predictions.jsonl", "transcripts.jsonl"):
        clean = (clean_dir / name).read_bytes().splitlines(keepends=True)
        first = [line for line in clean if json.loads(line)["id"] == "gen-000"]
        assert first and clean[: len(first)] == first
        assert (aborted_dir / name).read_bytes() == b"".join(first)
    assert {row["id"] for row in _read_jsonl(aborted_dir / "aborted_transcript.jsonl")} == {"gen-001"}
    assert not (aborted_dir / "risk_histogram.json").exists()


def test_rerun_into_the_same_out_leaves_no_earlier_artifact(tmp_path):
    paths = helpers.build_replay_run(tmp_path, 1, FIXTURES)
    out_dir = tmp_path / "out"
    argv = ["run", "-c", str(paths["config"]), "--input", str(paths["input"]), "--out", str(out_dir)]
    good = paths["bundle"].read_text()
    bundle = json.loads(good)
    # Starve one debater's script so the session dies mid-round.
    bundle["sessions"]["gen-000"]["debaters"][1] = [["*", 'B: ["Contact:Meet", "met"]']]
    starved = json.dumps(bundle)
    # A complete run, an aborted one, then a complete one, all into one `--out`.
    for text, code, left, gone in [
        (good, 0, "risk_histogram.json", "aborted_transcript.jsonl"),
        (starved, 2, "aborted_transcript.jsonl", "risk_histogram.json"),
        (good, 0, "risk_histogram.json", "aborted_transcript.jsonl"),
    ]:
        paths["bundle"].write_text(text, encoding="utf-8")
        assert main(argv) == code
        assert (out_dir / left).exists()
        assert not (out_dir / gone).exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"embedder": {"dimension": "abc"}}, "embedder.dimension must be an integer of at least 8, got 'abc'"),
        ({"embedder": {"dimension": 4}}, "embedder.dimension must be an integer of at least 8, got 4"),
        ({"embedder": {"dimension": True}}, "embedder.dimension must be an integer of at least 8, got True"),
        ({"scorer": {"keys": [["only"]]}}, "scorer.keys[0] must be a pair of strings, got ['only']"),
        ({"scorer": {"keys": [["*", 5]]}}, "scorer.keys[0] must be a pair of strings, got ['*', 5]"),
        ({"scorer": {"match_cost": "x"}}, "scorer.match_cost must be a finite number of at least 0, got 'x'"),
        ({"scorer": {"miss_cost": -1.0}}, "scorer.miss_cost must be a finite number of at least 0, got -1.0"),
        ({"scorer": {"match_cost": math.nan}}, "scorer.match_cost must be a finite number of at least 0, got nan"),
        ({"scorer": {"scale": math.inf}}, "scorer.scale must be a finite number of at least 0, got inf"),
        # A list replaces the whole bundle.
        ([], "top level must be a JSON object, got []"),
        ({"scorer": []}, "scorer must be a JSON object, got []"),
        ({"scorer": {"keys": 5}}, "scorer.keys must be a JSON array, got 5"),
        ({"embedder": 64}, "embedder must be a JSON object, got 64"),
        # Older bundles may still hold a `default` session entry.
        ({"default": {"debaters": [[], []]}}, "unknown key default"),
        ({"sessions": []}, "sessions must be a JSON object, got []"),
        ({"sessions": {"gen-000": []}}, "sessions['gen-000'] must be a JSON object, got []"),
        ({"sessions": {"gen-000": {"debaters": 5}}}, "sessions['gen-000'].debaters must be a JSON array, got 5"),
        (
            {"sessions": {"gen-000": {"debaters": [[["*", "x"]]]}}},
            "sessions['gen-000'].debaters must be an array of at least two scripts, got 1",
        ),
        (
            {"sessions": {"gen-000": {"debaters": [[], []], "critic": "reply"}}},
            "sessions['gen-000'].critic must be a JSON array, got 'reply'",
        ),
        (
            {"sessions": {"gen-000": {"debaters": [[], [["*", "x"], ["*", "y", "z"]]]}}},
            "sessions['gen-000'].debaters[1][1] must be a pair of strings, got ['*', 'y', 'z']",
        ),
        (
            {"sessions": {"gen-000": {"debaters": [[], []], "judge": [["*", 5]]}}},
            "sessions['gen-000'].judge[0] must be a pair of strings, got ['*', 5]",
        ),
        ({"agents": {}}, "unknown key agents"),
        # Bytes are written as the whole file.
        (b"{not json", "not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        (
            NON_UTF8_LINE,
            "not valid JSON: 'utf-8' codec can't decode byte 0xe9 in position 24: invalid continuation byte",
        ),
        # A chat script replays in order; its matchers are all "*".
        (
            {"sessions": {"gen-000": {"debaters": [[["*", "x"]], [["*", "y"], ["alpha", "x"]]]}}},
            """sessions['gen-000'].debaters[1][1][0] must be "*", got 'alpha'""",
        ),
        # A misspelt section key is rejected, not read as its default.
        ({"scorer": {"keys": [], "miss_cots": 5.0}}, "unknown key scorer.miss_cots"),
        ({"embedder": {"dimenson": 32}}, "unknown key embedder.dimenson"),
        ({"sessions": {"gen-000": {"debaters": [[], []], "bogus": []}}}, "unknown key sessions['gen-000'].bogus"),
    ],
)
def test_run_malformed_bundle_exits_two_naming_the_field(tmp_path, capsys, edit, message):
    paths = helpers.build_replay_run(tmp_path, 1, FIXTURES)
    bundle = json.loads(paths["bundle"].read_text())
    if isinstance(edit, dict):
        edit = {**bundle, **edit}
    paths["bundle"].write_bytes(edit if isinstance(edit, bytes) else json.dumps(edit).encode())
    out_dir = tmp_path / "out"
    assert main(["run", "-c", str(paths["config"]), "--input", str(paths["input"]), "--out", str(out_dir)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"dao: InvalidConfig: {paths['bundle']}: {message}"
    assert not out_dir.exists()


def test_run_with_nine_default_debaters_exits_zero(tmp_path):
    paths = helpers.build_replay_run(tmp_path, 1, FIXTURES)
    bundle = json.loads(paths["bundle"].read_text())
    agents = bundle["sessions"]["gen-000"]
    agents["debaters"] = [agents["debaters"][i % 2] for i in range(9)]
    paths["bundle"].write_text(json.dumps(bundle), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["run", "-c", str(paths["config"]), "--input", str(paths["input"]), "--out", str(out_dir)]) == 0
    (prediction,) = _read_jsonl(out_dir / "predictions.jsonl")
    assert prediction["events"][0]["trigger"] == "met"
    roles = {row["role"] for row in _read_jsonl(out_dir / "transcripts.jsonl")}
    assert {f"debater_{name}" for name in "ABCDEFGHI"} <= roles


def test_run_live_config_with_duplicate_debater_names_exits_two(tmp_path, capsys):
    paths = helpers.build_replay_run(tmp_path, 1, FIXTURES)
    config = json.loads(paths["config"].read_text())
    config["backends"] = {"replay_bundle": None, "debaters": [{"name": "B"}, {}]}
    paths["config"].write_text(json.dumps(config), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["run", "-c", str(paths["config"]), "--input", str(paths["input"]), "--out", str(out_dir)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "dao: InvalidTeam: two debaters are named 'B'"
    assert not out_dir.exists()


class _ThreadedChat:
    """A chat backend that records the thread each of its calls runs on
    and first waits on the barrier of the call's stage, when given one."""

    def __init__(self, inner, threads, barriers=()):
        self.inner, self.threads, self.barriers, self.calls = inner, threads, list(barriers), inner.calls

    def complete(self, prompt, temperature=0.0):
        self.threads.append(threading.current_thread())
        if self.barriers:
            self.barriers.pop(0).wait()
        return self.inner.complete(prompt, temperature)


def _record_threads(monkeypatch, debater_barriers=(), critic_barriers=()):
    """The threads that serve the replay debaters' and critics' calls, and
    those that run sessions, as lists filled during a `dao run`."""
    calls, sessions = [], []
    team_for, run_session = ReplayBundle.team_for, dao.cli.run_session

    def recorded_team_for(self, sentence_id):
        team = team_for(self, sentence_id)
        return dataclasses.replace(
            team,
            debaters=tuple(
                dataclasses.replace(b, backend=_ThreadedChat(b.backend, calls, debater_barriers))
                for b in team.debaters
            ),
            critic=_ThreadedChat(team.critic, calls, critic_barriers),
        )

    def recorded_session(sentence, *args):
        sessions.append(threading.current_thread())
        return run_session(sentence, *args)

    monkeypatch.setattr(ReplayBundle, "team_for", recorded_team_for)
    monkeypatch.setattr(dao.cli, "run_session", recorded_session)
    return calls, sessions


def test_run_starts_its_call_threads_once(tmp_path, monkeypatch):
    paths = helpers.build_replay_run(tmp_path, 12, FIXTURES)
    calls, sessions = _record_threads(monkeypatch)
    started = []
    start = threading.Thread.start

    def counted_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    threads = threading.active_count()
    out_dir = tmp_path / "out"
    assert main(["run", "-c", str(paths["config"]), "--input", str(paths["input"]), "--out", str(out_dir)]) == 0
    assert len(_read_jsonl(out_dir / "predictions.jsonl")) == 12
    assert threading.active_count() == threads
    # One worker runs every session on one sessions-pool thread; the calls
    # it does not make itself are served by at most workers × debaters = 2
    # pool threads.
    assert len(set(sessions)) == 1
    assert threading.current_thread() not in sessions
    assert len(set(calls) - set(sessions)) <= 1 * 2
    assert len(started) <= INDEX_SLICES + 1 + 1 * 2


def test_run_pool_serves_every_stage_of_concurrent_sessions_at_once(tmp_path, monkeypatch):
    paths = helpers.build_replay_run(tmp_path, 2, FIXTURES, workers=2)
    bundle = json.loads(paths["bundle"].read_text())
    for agents in bundle["sessions"].values():
        agents["debaters"].append(agents["debaters"][1])
    paths["bundle"].write_text(json.dumps(bundle), encoding="utf-8")
    # Each session debates detection, then arguments, one round each. All
    # six opinions of a debate wait for each other, and all six
    # cross-examination calls with both critics' calls: a session makes
    # one call itself, so a call pool of fewer than workers × debaters = 6
    # threads leaves a call queued and times a barrier out.
    opinions, cross = threading.Barrier(6, timeout=5), threading.Barrier(8, timeout=5)
    calls, sessions = _record_threads(
        monkeypatch, debater_barriers=[opinions, cross] * 2, critic_barriers=[cross] * 2
    )
    threads = threading.active_count()
    out_dir = tmp_path / "out"
    assert main(["run", "-c", str(paths["config"]), "--input", str(paths["input"]), "--out", str(out_dir)]) == 0
    assert [p["events"][0]["trigger"] for p in _read_jsonl(out_dir / "predictions.jsonl")] == ["met"] * 2
    assert threading.active_count() == threads
    assert len(set(sessions)) == 2
    assert len(set(calls) - set(sessions)) <= 2 * 3


class _HeldChat:
    """A chat backend whose calls wait until `release` is set."""

    def __init__(self, inner, release):
        self.inner, self.release, self.calls = inner, release, inner.calls

    def complete(self, prompt, temperature=0.0):
        assert self.release.wait(timeout=5)
        return self.inner.complete(prompt, temperature)


def test_run_writes_rows_in_input_order_when_later_sentences_finish_first(tmp_path, monkeypatch):
    serial = helpers.build_replay_run(tmp_path / "serial", 4, FIXTURES, workers=1)
    pooled = helpers.build_replay_run(tmp_path / "pooled", 4, FIXTURES, workers=2)
    # The first sentence's first debater holds its calls back until the
    # third sentence has finished on the other worker.
    release, finished = threading.Event(), []
    team_for, run_session = ReplayBundle.team_for, dao.cli.run_session

    def held_team_for(self, sentence_id):
        team = team_for(self, sentence_id)
        if sentence_id != "gen-000":
            return team
        first, *rest = team.debaters
        held = dataclasses.replace(first, backend=_HeldChat(first.backend, release))
        return dataclasses.replace(team, debaters=(held, *rest))

    def recorded_session(sentence, *args):
        result = run_session(sentence, *args)
        finished.append(sentence.id)
        if sentence.id == "gen-002":
            release.set()
        return result

    out_dirs = []
    for paths, name in ((serial, "sout"), (pooled, "pout")):
        if name == "pout":
            monkeypatch.setattr(ReplayBundle, "team_for", held_team_for)
            monkeypatch.setattr(dao.cli, "run_session", recorded_session)
        out_dirs.append(tmp_path / name)
        argv = ["run", "-c", str(paths["config"]), "--input", str(paths["input"])]
        assert main([*argv, "--out", str(out_dirs[-1])]) == 0
    assert finished.index("gen-000") > finished.index("gen-002")
    for name in ("predictions.jsonl", "transcripts.jsonl", "risk_histogram.json"):
        assert (out_dirs[1] / name).read_bytes() == (out_dirs[0] / name).read_bytes()


class _PausedChat(_HeldChat):
    """A chat backend whose first call waits until `release` is set or half
    a second has passed."""

    def complete(self, prompt, temperature=0.0):
        self.release.wait(timeout=0.5)
        self.release.set()
        return self.inner.complete(prompt, temperature)


def test_run_starts_at_most_two_sessions_per_worker_ahead_of_the_writer(tmp_path, monkeypatch):
    paths = helpers.build_replay_run(tmp_path, 8, FIXTURES, workers=2)
    # The first sentence's first debater call pauses until every sentence
    # has started, which only an unbounded read-ahead lets happen.
    all_started, started, started_before_first = threading.Event(), [], []
    team_for, run_session = ReplayBundle.team_for, dao.cli.run_session

    def paused_team_for(self, sentence_id):
        team = team_for(self, sentence_id)
        if sentence_id != "gen-000":
            return team
        first, *rest = team.debaters
        paused = dataclasses.replace(first, backend=_PausedChat(first.backend, all_started))
        return dataclasses.replace(team, debaters=(paused, *rest))

    def recorded_session(sentence, *args):
        started.append(sentence.id)
        if len(started) == 8:
            all_started.set()
        result = run_session(sentence, *args)
        if sentence.id == "gen-000":
            started_before_first.append(len(started))
        return result

    monkeypatch.setattr(ReplayBundle, "team_for", paused_team_for)
    monkeypatch.setattr(dao.cli, "run_session", recorded_session)
    out_dir = tmp_path / "out"
    assert main(["run", "-c", str(paths["config"]), "--input", str(paths["input"]), "--out", str(out_dir)]) == 0
    assert started_before_first[0] <= 2 * 2
    ids = [p["id"] for p in _read_jsonl(out_dir / "predictions.jsonl")]
    assert ids == [f"gen-{i:03d}" for i in range(8)]


def test_run_with_one_worker_starts_at_most_two_sessions_ahead_of_the_writer(tmp_path, monkeypatch):
    paths = helpers.build_replay_run(tmp_path, 6, FIXTURES)
    out_dir = tmp_path / "out"
    written, run_session = [], dao.cli.run_session

    def recorded_session(sentence, *args):
        written.append(len((out_dir / "predictions.jsonl").read_text().splitlines()))
        return run_session(sentence, *args)

    def slow_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        if Path(path).name == "predictions.jsonl":
            write = fh.write

            def slow_write(text):
                # A slow writer, which an unbounded read-ahead would outrun.
                time.sleep(0.05)
                return write(text)

            fh.write = slow_write
        return fh

    monkeypatch.setattr(dao.cli, "run_session", recorded_session)
    monkeypatch.setattr(dao.cli, "open", slow_open, raising=False)
    assert main(["run", "-c", str(paths["config"]), "--input", str(paths["input"]), "--out", str(out_dir)]) == 0
    # Sentence i's rows are on disk before sentence i + 2 starts.
    assert len(written) == 6
    assert all(count >= i - 1 for i, count in enumerate(written)), written


def test_run_renders_rows_on_the_session_threads(tmp_path, monkeypatch):
    paths = helpers.build_replay_run(tmp_path, 4, FIXTURES, workers=2)
    _, sessions = _record_threads(monkeypatch)
    rendered = []

    def recorded(render):
        def hook(*args):
            rendered.append(threading.current_thread())
            return render(*args)

        return hook

    for name in ("_render_prediction", "_render_transcript"):
        monkeypatch.setattr(dao.cli, name, recorded(getattr(dao.cli, name)))
    out_dir = tmp_path / "out"
    assert main(["run", "-c", str(paths["config"]), "--input", str(paths["input"]), "--out", str(out_dir)]) == 0
    # Each sentence's two renders run on the thread that ran its session;
    # the writer's thread only writes.
    assert len(rendered) == 2 * 4
    assert threading.current_thread() not in rendered
    assert set(rendered) <= set(sessions)


def test_run_memory_does_not_grow_with_the_finished_sentences(tmp_path):
    # The traced peak of a run grows with its input only by what each
    # sentence leaves behind once its rows are written (its replay script,
    # its input row, the scorer's call log, the captured warnings), not by
    # its whole result. Measured here: about 10.6 KB per extra sentence
    # when each result is dropped once written, 36.4 KB when all are kept.
    def traced_peak(n: int) -> int:
        paths = helpers.build_replay_run(tmp_path / f"n{n}", n, FIXTURES)
        argv = ["run", "-c", str(paths["config"]), "--input", str(paths["input"])]
        gc.collect()
        tracemalloc.start()
        try:
            assert main([*argv, "--out", str(tmp_path / f"out{n}")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = 4, 24
    traced_peak(small)  # imports and first-use caches are paid here
    per_sentence = (traced_peak(large) - traced_peak(small)) / (large - small)
    assert per_sentence < 20_000


class _CountingEmbedder:
    def __init__(self):
        self.inner = HashEmbedder(64)
        self.calls = 0

    def dimension(self):
        return self.inner.dimension()

    def embed(self, text):
        self.calls += 1
        return self.inner.embed(text)


def test_run_malformed_input_fails_before_index_build(tmp_path, monkeypatch, capsys):
    paths = helpers.build_replay_run(tmp_path, 1, FIXTURES)
    counting = _CountingEmbedder()
    monkeypatch.setattr(ReplayBundle, "embedder", lambda self: counting)
    argv = ["run", "-c", str(paths["config"]), "--input", str(paths["input"]), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert counting.calls > 0
    counting.calls = 0
    paths["input"].write_text("{not json\n", encoding="utf-8")
    assert main(argv) == 2
    assert counting.calls == 0
    assert capsys.readouterr().err.startswith(f"dao: FormatError: {paths['input']}: line 1:")


def test_run_malformed_last_script_fails_before_index_build(tmp_path, monkeypatch, capsys):
    paths = helpers.build_replay_run(tmp_path, 3, FIXTURES)
    bundle = json.loads(paths["bundle"].read_text())
    bundle["sessions"]["gen-002"]["debaters"][0][0][1] = 5
    paths["bundle"].write_text(json.dumps(bundle), encoding="utf-8")
    counting = _CountingEmbedder()
    monkeypatch.setattr(ReplayBundle, "embedder", lambda self: counting)
    out_dir = tmp_path / "out"
    assert main(["run", "-c", str(paths["config"]), "--input", str(paths["input"]), "--out", str(out_dir)]) == 2
    assert counting.calls == 0
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"dao: InvalidConfig: {paths['bundle']}: sessions['gen-002'].debaters[0][0] must be")
    assert not out_dir.exists()


def test_run_sentence_without_script_exits_two_naming_it(tmp_path, monkeypatch, capsys):
    paths = helpers.build_replay_run(tmp_path, 3, FIXTURES)
    bundle = json.loads(paths["bundle"].read_text())
    del bundle["sessions"]["gen-002"]
    paths["bundle"].write_text(json.dumps(bundle), encoding="utf-8")
    counting = _CountingEmbedder()
    monkeypatch.setattr(ReplayBundle, "embedder", lambda self: counting)
    out_dir = tmp_path / "out"
    assert main(["run", "-c", str(paths["config"]), "--input", str(paths["input"]), "--out", str(out_dir)]) == 2
    assert counting.calls == 0
    assert capsys.readouterr().err.splitlines() == [
        f"dao: InvalidConfig: {paths['bundle']}: no scripts for input sentence 'gen-002'"
    ]
    assert not out_dir.exists()


TRANSCRIPT_KEYS = {"id", "round", "stage", "role", "prompt_digest", "text"}


def test_aborted_transcript_rows_match_transcript_rows(tmp_path):
    paths = helpers.build_replay_run(tmp_path, 2, FIXTURES)
    out_dir = tmp_path / "out"
    assert main(["run", "-c", str(paths["config"]), "--input", str(paths["input"]), "--out", str(out_dir)]) == 0
    assert all(set(row) == TRANSCRIPT_KEYS for row in _read_jsonl(out_dir / "transcripts.jsonl"))
    bundle = json.loads(paths["bundle"].read_text())
    bundle["sessions"]["gen-001"]["debaters"][1] = [["*", 'B: ["Contact:Meet", "met"]']]
    paths["bundle"].write_text(json.dumps(bundle), encoding="utf-8")
    aborted_dir = tmp_path / "aborted"
    assert main(["run", "-c", str(paths["config"]), "--input", str(paths["input"]), "--out", str(aborted_dir)]) == 2
    rows = _read_jsonl(aborted_dir / "aborted_transcript.jsonl")
    assert rows
    assert all(set(row) == TRANSCRIPT_KEYS and row["id"] == "gen-001" for row in rows)


def test_run_reference_split_all_uses_whole_corpus(tmp_path):
    paths = helpers.build_replay_run(tmp_path, 1, FIXTURES)
    config = json.loads(paths["config"].read_text())
    config["reference_split"] = "all"
    paths["config"].write_text(json.dumps(config), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["run", "-c", str(paths["config"]), "--input", str(paths["input"]), "--out", str(out_dir)]) == 0
    (prediction,) = _read_jsonl(out_dir / "predictions.jsonl")
    assert prediction["events"][0]["trigger"] == "met"


def test_run_with_parse_warnings_still_exits_zero(tmp_path):
    config_path = tmp_path / "config.json"
    input_path = tmp_path / "input.jsonl"
    bundle_path = tmp_path / "bundle.json"
    input_path.write_text(
        json.dumps({"id": "w1", "text": "Rebels attacked the town at dawn .", "events": []}) + "\n",
        encoding="utf-8",
    )
    answer = '["Conflict:Attack", "attacked"]'
    table = (
        "| event type | argument role | argument content |\n| --- | --- | --- |\n"
        "| Conflict:Attack | Target | the town |"
    )
    bundle_path.write_text(
        json.dumps(
            {
                "embedder": {"dimension": 64},
                "scorer": {"keys": [], "match_cost": 0.005, "miss_cost": 0.005},
                "sessions": {
                    "w1": {
                        "debaters": [
                            # Debater A's replies never parse; the engine warns
                            # and treats them as abstentions.
                            [["*", "A: I would rather not commit to an answer ."]] * 4,
                            [
                                ["*", f"B: {answer}"],
                                ["*", f"B: I keep {answer} ."],
                                ["*", f"B: {table}"],
                                ["*", f"B: keeping\n{table}"],
                            ],
                        ],
                        "critic": [["*", "Assessment ."]] * 4,
                        "judge": [
                            ["*", "| event type | event trigger |\n| --- | --- |\n| Conflict:Attack | attacked |"],
                            ["*", table],
                        ],
                    }
                },
            }
        ),
        encoding="utf-8",
    )
    config_path.write_text(
        json.dumps(
            {
                "ontology": str(FIXTURES / "ontology_ace.jsonl"),
                "reference_corpus": str(FIXTURES / "corpus_small.jsonl"),
                "backends": {"replay_bundle": str(bundle_path)},
            }
        ),
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    assert main(["run", "-c", str(config_path), "--input", str(input_path), "--out", str(out_dir)]) == 0
    (prediction,) = _read_jsonl(out_dir / "predictions.jsonl")
    assert prediction["events"][0]["trigger"] == "attacked"


# -- exit codes


def test_usage_error_exits_one():
    assert main(["run"]) == 1
    assert main(["eval", "--pred", "p.jsonl", "--gold", "g.jsonl", "--task", "ee"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "-c", "config.json", "--input", "in.jsonl", "--out", "out", "--replay", "bundle.json"],
        ["calibrate", "-c", "config.json", "--replay", "bundle.json"],
        ["calibrate", "-c", "config.json", "--corpus", "ref.jsonl"],
    ],
    ids=["run-replay", "calibrate-replay", "calibrate-corpus"],
)
def test_removed_input_options_exit_one(capsys, argv):
    # The config alone names the replay bundle and the calibration corpus.
    assert main(argv) == 1
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def test_unknown_command_exits_one():
    assert main(["frobnicate"]) == 1


def test_runtime_error_exits_two(tmp_path):
    assert main(["eval", "--pred", "missing.jsonl", "--gold", "missing.jsonl", "--task", "ed"]) == 2
