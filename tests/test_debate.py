import io
import re
from functools import partial

import numpy as np
import pytest

import helpers
from dao.adacp import decay_threshold
from dao.cli import _write_transcript
from dao.backends import KeyedScorer
from dao.corpus import EventMention, ReferenceEntry, Sentence, build_index
from dao.debate import (
    AgentTeam,
    SessionConfig,
    SessionResult,
    _Session,
    calibration_pairs,
    canonical_argument_rows,
    run_session,
    serialize_trigger_answer,
)
from dao.errors import InvalidTeam
from dao.replay import ReplayBundle


def _run_scenario(seed, ontology, train_index, embedder, pool):
    scenario = helpers.build_scenario(seed, ontology)
    config = scenario.build_config(embedder)
    result = run_session(scenario.sentence, ontology, train_index, config, pool)
    return scenario, config, result


def _transcript_rows(result):
    """The session's `transcripts.jsonl` rows, as `dao run` writes them."""
    out = io.StringIO()
    _write_transcript(out, result.sentence.id, result.transcript)
    return out.getvalue()


def _retrieval_entries(result, task="ed"):
    return [
        e
        for e in result.transcript
        if e.stage == f"{task}.retrieval" and e.text.startswith("Reference information:")
    ]


def _radius_notes(result, task="ed"):
    values = []
    for entry in result.transcript:
        if entry.stage == f"{task}.retrieval":
            match = re.search(r"at radius (\S+)$", entry.text)
            if match:
                values.append(float(match.group(1)))
    return values


def _gate_thresholds(result, task="ed"):
    values = []
    for entry in result.transcript:
        if entry.stage == f"{task}.gate":
            match = re.search(r"threshold=([0-9.]+)", entry.text)
            if match:
                values.append(float(match.group(1)))
    return values


# -- round flow


def test_immediate_agreement_single_round(ontology, train_index, embedder, pool):
    scenario, config, result = _run_scenario(0, ontology, train_index, embedder, pool)  # immediate_agree
    assert scenario.flow == "immediate_agree"
    assert len(_retrieval_entries(result, "ed")) == 1
    assert len(result.records) == 1
    judge_rounds = [e.round_index for e in result.transcript if e.stage == "ed.judgement"]
    assert judge_rounds == [0]


def test_three_round_disagreement_hits_cap(ontology, train_index, embedder, pool):
    scenario, config, result = _run_scenario(3, ontology, train_index, embedder, pool)  # cap_disagree
    assert scenario.flow == "cap_disagree"
    judge_entries = [e for e in result.transcript if e.stage == "ed.judgement" and e.role == "judge"]
    assert len(judge_entries) == 3
    radii = _radius_notes(result, "ed")
    assert radii[0] == 1.35
    assert radii[1] == 1.215
    assert radii[2] == pytest.approx(1.0935, rel=1e-12)
    assert any(e.stage == "ed.adjudication" for e in result.transcript)
    # Lowest-risk passing answer is adopted, so an event is still emitted.
    assert len(result.records) == 1


def test_threshold_decays_per_round(ontology, train_index, embedder, pool):
    _, _, result = _run_scenario(4, ontology, train_index, embedder, pool)  # all_rejected
    thresholds = sorted(set(_gate_thresholds(result, "ed")), reverse=True)
    assert thresholds == [1.0, 0.5, 0.25]


def test_no_event_skips_argument_extraction(ontology, train_index, embedder, pool):
    scenario, config, result = _run_scenario(2, ontology, train_index, embedder, pool)  # no_event
    assert scenario.flow == "no_event"
    assert result.records == []
    assert not any(e.stage.startswith("eae.") for e in result.transcript)
    for binding in config.team.debaters:
        # Opinion plus one cross-examination; nothing for argument extraction.
        assert len(binding.backend.calls) == 2


def test_all_rejected_fails_closed(ontology, train_index, embedder, pool):
    scenario, config, result = _run_scenario(4, ontology, train_index, embedder, pool)  # all_rejected
    assert scenario.flow == "all_rejected"
    assert result.records == []
    assert all(not record.accepted for record in result.risk_log)
    assert config.team.judge.calls == []


def test_gated_debater_revision_can_pass(ontology, train_index, embedder, pool):
    scenario, config, result = _run_scenario(5, ontology, train_index, embedder, pool)  # gated_then_pass
    assert scenario.flow == "gated_then_pass"
    ed_records = [r for r in result.risk_log if r.task == "ed"]
    assert any(not r.accepted for r in ed_records)
    assert any(r.accepted for r in ed_records if r.debater == "A")
    assert len(result.records) == 1


def test_judge_never_sees_retrieval_text(ontology, train_index, embedder, pool):
    for seed in (0, 1, 3, 5):
        scenario, config, result = _run_scenario(seed, ontology, train_index, embedder, pool)
        packets = [e.text for e in result.transcript if e.text.startswith("Reference information:")]
        judge_prompts = [
            e.prompt for e in result.transcript if e.role == "judge" and e.prompt
        ]
        assert judge_prompts or scenario.flow == "all_rejected"
        for packet in packets:
            for prompt in judge_prompts:
                assert packet not in prompt
        # The critic, by contrast, does receive the packet.
        critic_prompts = [e.prompt for e in result.transcript if e.role == "critic"]
        assert any("Reference information:" in p for p in critic_prompts)


def test_gated_answers_never_reach_judge_in_gating_round(ontology, train_index, embedder, pool):
    for seed in range(12):
        _, _, result = _run_scenario(seed, ontology, train_index, embedder, pool)
        judge_by_round = {}
        for entry in result.transcript:
            if entry.role == "judge" and entry.prompt:
                judge_by_round.setdefault((entry.stage.split(".")[0], entry.round_index), []).append(
                    entry.prompt
                )
        for record in result.risk_log:
            if record.accepted:
                continue
            for prompt in judge_by_round.get((record.task, record.round_index), []):
                assert record.answer_text not in prompt


def test_transcript_contains_every_chat_call_in_order(ontology, train_index, embedder, pool):
    scenario, config, result = _run_scenario(1, ontology, train_index, embedder, pool)
    for i, binding in enumerate(config.team.debaters):
        role = f"debater_{binding.name}"
        transcript_calls = [
            (e.prompt, e.text) for e in result.transcript if e.role == role and e.prompt
        ]
        assert transcript_calls == binding.backend.calls
    judge_transcript = [
        (e.prompt, e.text) for e in result.transcript if e.role == "judge" and e.prompt
    ]
    assert judge_transcript == config.team.judge.calls


def test_two_runs_byte_identical(ontology, train_index, embedder, pool):
    outputs = []
    for _ in range(2):
        scenario = helpers.build_scenario(7, ontology)
        config = scenario.build_config(embedder)
        result = run_session(scenario.sentence, ontology, train_index, config, pool)
        outputs.append(_transcript_rows(result))
    assert outputs[0] == outputs[1]


def test_round_cap_never_exceeded(ontology, train_index, embedder, pool):
    for seed in range(12):
        _, _, result = _run_scenario(seed, ontology, train_index, embedder, pool)
        for task in ("ed", "eae"):
            rounds = {
                e.round_index
                for e in result.transcript
                if e.stage == f"{task}.judgement" or e.stage == f"{task}.retrieval"
            }
            assert len(rounds) <= 3


def test_adjudication_scores_with_last_gate_prompt(ontology, train_index, embedder, pool):
    scenario, config, result = _run_scenario(3, ontology, train_index, embedder, pool)
    assert scenario.flow == "cap_disagree"
    # Repeated requests are scored once per session, so scorer calls do not
    # pair 1:1 with scorer notes; every call must still be sent in a gate's
    # context, adjudication included.
    scorings = [e for e in result.transcript if e.role == "scorer"]
    gate_prompts = {(e.stage.split(".")[0], e.prompt) for e in scorings if e.stage.endswith(".gate")}
    for prompt, completion, _ in config.scorer.calls:
        tasks = {e.stage.split(".")[0] for e in scorings if f"answer {completion!r} " in e.text}
        assert any((task, prompt) in gate_prompts for task in tasks)
    assert any(e.stage == "ed.adjudication" for e in scorings)


@pytest.mark.parametrize("seed", [3, 4])
def test_adjudication_uses_the_last_gate_threshold(seed, ontology, train_index, embedder, pool):
    scenario, _, result = _run_scenario(seed, ontology, train_index, embedder, pool)
    assert scenario.flow == ("cap_disagree", "all_rejected")[seed - 3]
    last_gate: dict[str, str] = {}
    adjudicated = 0
    for entry in result.transcript:
        if entry.role != "scorer":
            continue
        task, kind = entry.stage.split(".")
        threshold = re.search(r"threshold=(\S+)", entry.text).group(1)
        if kind == "gate":
            last_gate[task] = threshold
        else:
            assert threshold == last_gate[task]
            adjudicated += task == "ed"
    assert adjudicated >= 1
    assert last_gate["ed"] == "0.250000"


def test_gate_notes_render_their_records_and_prompt_the_scored_context(ontology, train_index, embedder, pool):
    # A gate note is its `risk_log` record's rendering, in log order, and its
    # prompt is the context the scorer received; an adjudication note
    # renders the verdict that the debater's last gate record gave.
    adjudicated = 0
    for seed in range(12):
        scenario, config, result = _run_scenario(seed, ontology, train_index, embedder, pool)
        sent = {(prompt, completion) for prompt, completion, _ in config.scorer.calls}
        records = iter(result.risk_log)
        last: dict[tuple[str, str], str] = {}
        for entry in result.transcript:
            if entry.role != "scorer":
                continue
            task, kind = entry.stage.split(".")
            if kind == "adjudication":
                debater = entry.text.split(" ", 1)[0]
                assert entry.text == last[task, debater], scenario.name
                adjudicated += 1
                continue
            record = next(records)
            threshold = config.adacp.initial_threshold[task]
            for _ in range(record.round_index):
                threshold = decay_threshold(threshold, config.adacp.beta)
            assert (record.task, record.round_index, record.threshold) == (task, entry.round_index, threshold)
            assert entry.text == str(record) and f" threshold={threshold:.6f} " in entry.text, scenario.name
            assert (entry.prompt, record.answer_text) in sent, scenario.name
            last[task, f"debater_{record.debater}"] = entry.text
        assert next(records, None) is None, scenario.name
    assert adjudicated >= 2


def _no_stage_after_the_opinions(config):
    # The query embed shares its batch with the first opinions, so the
    # debaters were asked; nothing after that batch ran.
    return config.scorer.calls == [] and config.team.critic.calls == [] and config.team.judge.calls == []


def test_bad_query_dimension_fails_before_any_later_stage(ontology, train_index, pool):
    from dao.backends import HashEmbedder
    from dao.errors import DimensionMismatch

    scenario = helpers.build_scenario(0, ontology)
    config = scenario.build_config(HashEmbedder(32))  # the index is D64
    result = run_session(scenario.sentence, ontology, train_index, config, pool)
    assert isinstance(result.error, DimensionMismatch)
    assert scenario.sentence.id in str(result.error)
    assert _no_stage_after_the_opinions(config)


class _ZeroEmbedder:
    def dimension(self):
        return 64

    def embed(self, text):
        return np.zeros(64)


def test_zero_query_vector_error_names_the_sentence(ontology, train_index, pool):
    from dao.errors import ZeroVector

    scenario = helpers.build_scenario(0, ontology)
    config = scenario.build_config(_ZeroEmbedder())
    result = run_session(scenario.sentence, ontology, train_index, config, pool)
    assert isinstance(result.error, ZeroVector)
    assert scenario.sentence.id in str(result.error)
    assert _no_stage_after_the_opinions(config)


# -- replay fixtures


@pytest.fixture()
def replay_3a(ontology, train_entries, sentence_by_id, pool):
    bundle = ReplayBundle.load("tests/fixtures/replay_table3a.json")
    embedder = bundle.embedder()
    index = build_index(train_entries, embedder)
    sentence = sentence_by_id("test-001")
    team = bundle.team_for("test-001")
    config = SessionConfig(team=team, scorer=bundle.scorer(), embedder=embedder)
    result = run_session(sentence, ontology, index, config, pool)
    return team, result


def test_replay_revision_after_retrieval(replay_3a):
    team, result = replay_3a
    assert result.records == [
        EventMention(
            event_type="Personnel:End-Position",
            trigger="formerly",
            arguments=(
                ("Person", "McCarthy"),
                ("Entity", "the Department of Trade and Industry"),
            ),
        )
    ]
    opinions = [e for e in result.transcript if e.stage == "ed.opinion" and e.role == "debater_A"]
    assert '["Personnel:Start-Position", "holding"]' in opinions[0].text
    revisions = [
        e
        for e in result.transcript
        if e.stage == "ed.cross_examination" and e.role == "debater_A" and e.round_index == 1
    ]
    assert '["Personnel:End-Position", "formerly"]' in revisions[0].text
    packets = [e.text for e in result.transcript if e.text.startswith("Reference information:")]
    assert any("his successor as house majority whip and his former deputy" in p for p in packets)


def test_replay_rejected_answer_kept_from_judge(replay_3a):
    team, result = replay_3a
    gated = serialize_trigger_answer(EventMention("Personnel:Start-Position", "holding"))
    round0_judge = [
        e.prompt
        for e in result.transcript
        if e.role == "judge" and e.round_index == 0 and e.prompt
    ]
    assert round0_judge
    assert all(gated not in prompt for prompt in round0_judge)


def test_replay_opinion_prompts_free_of_gold_labels(replay_3a):
    team, result = replay_3a
    opinion_prompts = [
        e.prompt for e in result.transcript if e.stage == "ed.opinion" and e.prompt
    ]
    assert opinion_prompts
    for prompt in opinion_prompts:
        assert '"Personnel:End-Position", "formerly"' not in prompt
        assert "Person | McCarthy" not in prompt


def test_replay_calibration_failure_yields_empty_record(ontology, train_entries, sentence_by_id, pool):
    bundle = ReplayBundle.load("tests/fixtures/replay_table3b.json")
    embedder = bundle.embedder()
    index = build_index(train_entries, embedder)
    team = bundle.team_for("test-002")
    config = SessionConfig(team=team, scorer=bundle.scorer(), embedder=embedder)
    result = run_session(sentence_by_id("test-002"), ontology, index, config, pool)
    assert result.records == []
    assert result.risk_log
    assert all(not record.accepted for record in result.risk_log)
    assert {r.round_index for r in result.risk_log} == {0, 1, 2}
    assert team.judge.calls == []
    assert not any(e.stage.startswith("eae.") for e in result.transcript)


def test_full_pipeline_scripted_life_die(ontology, train_index, embedder, pool):
    sentence_text = "Witnesses said the blast killed the mayor instantly ."
    from dao.corpus import Sentence

    sentence = Sentence.from_text("pipeline-1", sentence_text)
    answer = '["Life:Die", "killed"]'
    eae_rows = (("Agent", None), ("Victim", "the mayor"), ("Instrument", "the blast"), ("Place", None))
    table = helpers.eae_table("Life:Die", eae_rows)
    team = helpers.make_team(
        [
            [("*", f"A: {answer}"), ("*", f"A: defending {answer} ."), ("*", f"A: {table}"), ("*", f"A: keeping\n{table}")],
            [("*", f"B: {answer}"), ("*", f"B: agreeing {answer} ."), ("*", f"B: {table}"), ("*", f"B: keeping\n{table}")],
        ],
        [("*", "Assessment .")] * 4,
        [("*", helpers.ed_table("Life:Die", "killed")), ("*", table)],
    )
    config = SessionConfig(team=team, scorer=helpers.passthrough_scorer(), embedder=embedder)
    result = run_session(sentence, ontology, train_index, config, pool)
    assert result.records == [
        EventMention(
            event_type="Life:Die",
            trigger="killed",
            arguments=(("Victim", "the mayor"), ("Instrument", "the blast")),
        )
    ]


def test_survivor_that_changes_its_answer_is_regated(ontology, train_index, embedder, pool):
    # Both debaters pass the gate with Life:Die; in cross-examination A
    # switches to an answer the gate rejects, so A's statement never
    # reaches the judge.
    sentence = Sentence.from_text("pipeline-2", "Witnesses said the blast killed the mayor instantly .")
    answer, switched = '["Life:Die", "killed"]', '["Conflict:Attack", "blast"]'
    rows = (("Agent", None), ("Victim", "the mayor"), ("Instrument", "the blast"), ("Place", None))
    table = helpers.eae_table("Life:Die", rows)
    team = helpers.make_team(
        [
            [("*", f"A: {answer}"), ("*", f"A: on reflection {switched} .")] + [("*", f"A: keeping\n{table}")] * 2,
            [("*", f"B: {answer}"), ("*", f"B: agreeing {answer} .")] + [("*", f"B: keeping\n{table}")] * 2,
        ],
        [("*", "Assessment .")] * 2,
        [("*", helpers.ed_table("Life:Die", "killed"))],
    )
    scorer = KeyedScorer(keys=[("*", answer)])
    config = SessionConfig(team=team, scorer=scorer, embedder=embedder, max_rounds=1)
    result = run_session(sentence, ontology, train_index, config, pool)
    ((judge_prompt, _),) = team.judge.calls
    assert "Debater B's statement" in judge_prompt
    assert "Debater A's statement" not in judge_prompt and switched not in judge_prompt
    ed = [(e.stage, e.role, e.text) for e in result.transcript if e.stage.startswith("ed.")]
    ce = ed.index(("ed.cross_examination", "debater_A", f"A: on reflection {switched} ."))
    stage, role, note = ed[ce + 1]
    assert (stage, role) == ("ed.gate", "scorer")
    assert note.startswith(f"debater_A answer {switched!r} risk=2.000000 ") and note.endswith("accepted=False")
    assert result.records == [EventMention("Life:Die", "killed")]


def test_calibration_scores_the_text_the_gate_scores(ontology, corpus_entries, train_index, embedder, pool):
    # Calibrated and in-debate risks are exchangeable only if both score the
    # same prompt and answer text; the gate appends the retrieval packet.
    calib = [e for e in corpus_entries if e.split == "calib" and e.events]
    assert calib
    for entry in calib:
        (event,) = entry.events
        roles = ontology[event.event_type].roles
        answer = serialize_trigger_answer(event)
        table = helpers.eae_table(event.event_type, canonical_argument_rows(roles, dict(event.arguments)))
        script = [("*", answer), ("*", f"I keep {answer} ."), ("*", table), ("*", f"Kept .\n{table}")]
        team = helpers.make_team(
            [script, script],
            [("*", "Assessment .")] * 2,
            [("*", helpers.ed_table(event.event_type, event.trigger)), ("*", table)],
        )
        scorer = helpers.RecordingScorer(helpers.passthrough_scorer())
        config = SessionConfig(team=team, scorer=scorer, embedder=embedder)
        result = run_session(entry.sentence, ontology, train_index, config, pool)
        assert len(result.records) == 1
        scored = [(prompt, completion) for prompt, completion, _ in config.scorer.calls]
        for task in ("ed", "eae"):
            ((calib_prompt, calib_answer),) = calibration_pairs(task, [entry], ontology)
            gate = [p for p, completion in scored if completion == calib_answer]
            assert gate, (entry.sentence.id, task)
            for prompt in gate:
                assert prompt.startswith(calib_prompt + "\n\n")
                assert prompt[len(calib_prompt) + 2 :].startswith("Reference information:")


def test_calibration_skips_an_argument_event_of_a_type_the_ontology_lacks(ontology):
    sentence = Sentence.from_text("s1", "The general was killed in a coup .")
    known = EventMention("Life:Die", "killed", (("Victim", "general"),))
    entry = ReferenceEntry(sentence, (EventMention("Coup:Start", "coup"), known))
    (pair,) = calibration_pairs("eae", [entry], ontology)
    assert pair == calibration_pairs("eae", [ReferenceEntry(sentence, (known,))], ontology)[0]
    # Detection keeps every gold answer, whatever its type.
    assert len(calibration_pairs("ed", [entry], ontology)) == 2


def test_team_takes_no_summarizer():
    team = helpers.make_team([[("*", "reply")]] * 2, [], [])
    with pytest.raises(InvalidTeam, match="the LLM summarizer was removed"):
        AgentTeam(team.debaters, team.critic, team.judge, summarizer=team.judge)
    # The benchmark harness rebuilds each team with `summarizer=team.summarizer`.
    assert team.summarizer is None
    assert AgentTeam(team.debaters, team.critic, team.judge, summarizer=None).summarizer is None


def test_agreed_unknown_type_emits_record_without_arguments(ontology, train_index, embedder, pool):
    from dao.corpus import Sentence

    sentence = Sentence.from_text("unk-1", "Something odd happened downtown yesterday .")
    answer = '["Made:Up", "happened"]'
    team = helpers.make_team(
        [
            [("*", f"A: {answer}"), ("*", f"A: defend {answer} .")],
            [("*", f"B: {answer}"), ("*", f"B: agree {answer} .")],
        ],
        [("*", "Assessment .")] * 2,
        [("*", helpers.ed_table("Made:Up", "happened"))],
    )
    config = SessionConfig(team=team, scorer=helpers.passthrough_scorer(), embedder=embedder)
    result = run_session(sentence, ontology, train_index, config, pool)
    assert result.records == [
        EventMention(event_type="Made:Up", trigger="happened", arguments=())
    ]
    assert not any(e.stage.startswith("eae.") for e in result.transcript)


def test_argument_no_event_emits_record_without_arguments(ontology, train_index, embedder, pool):
    from dao.corpus import Sentence

    sentence = Sentence.from_text("eae-none-1", "Witnesses said the blast killed the mayor instantly .")
    answer = '["Life:Die", "killed"]'
    table = helpers.eae_table("Life:Die", (("Victim", "the mayor"),))
    team = helpers.make_team(
        [
            [("*", f"A: {answer}"), ("*", f"A: defending {answer} ."), ("*", f"A: {table}"), ("*", f"A: keeping\n{table}")],
            [("*", f"B: {answer}"), ("*", f"B: agreeing {answer} ."), ("*", f"B: {table}"), ("*", f"B: keeping\n{table}")],
        ],
        [("*", "Assessment .")] * 2,
        [("*", helpers.ed_table("Life:Die", "killed")), ("*", "No event")],
    )
    config = SessionConfig(team=team, scorer=helpers.passthrough_scorer(), embedder=embedder)
    result = run_session(sentence, ontology, train_index, config, pool)
    assert result.records == [EventMention(event_type="Life:Die", trigger="killed", arguments=())]
    assert [e.text for e in result.transcript if e.stage == "eae.judgement"] == ["No event"]


def test_session_runs_on_empty_reference_index(ontology, embedder, pool):
    from dao.corpus import Sentence, build_index

    empty_index = build_index([], embedder)
    sentence = Sentence.from_text("empty-1", "Rebels attacked the town at dawn .")
    answer = '["Conflict:Attack", "attacked"]'
    table = helpers.eae_table("Conflict:Attack", (("Target", "the town"),))
    team = helpers.make_team(
        [
            [("*", f"A: {answer}"), ("*", f"A: defending {answer} ."), ("*", f"A: {table}"), ("*", f"A: keep\n{table}")],
            [("*", f"B: {answer}"), ("*", f"B: agreeing {answer} ."), ("*", f"B: {table}"), ("*", f"B: keep\n{table}")],
        ],
        [("*", "Assessment .")] * 4,
        [("*", helpers.ed_table("Conflict:Attack", "attacked")), ("*", table)],
    )
    config = SessionConfig(team=team, scorer=helpers.passthrough_scorer(), embedder=embedder)
    result = run_session(sentence, ontology, empty_index, config, pool)
    assert len(result.records) == 1
    packets = [e.text for e in result.transcript if e.text.startswith("Reference information:")]
    assert packets and all("Examples:" not in p for p in packets)


def test_backend_failure_aborts_with_transcript_preserved(ontology, train_index, embedder, pool):
    from dao.errors import BackendError, ScriptExhausted

    # Debater B's script runs dry during cross-examination.
    team = helpers.make_team(
        [
            [("*", 'A: ["Life:Die", "killed"]'), ("*", "A: I defend my answer .")],
            [("*", 'B: ["Life:Die", "killed"]')],
        ],
        [("*", "Assessment .")] * 2,
        [("*", helpers.ed_table("Life:Die", "killed"))],
    )
    config = SessionConfig(team=team, scorer=helpers.passthrough_scorer(), embedder=embedder)
    from dao.corpus import Sentence

    sentence = Sentence.from_text("abort-1", "The blast killed the mayor .")
    result = run_session(sentence, ontology, train_index, config, pool)
    assert isinstance(result.error, ScriptExhausted)
    assert isinstance(result.error, BackendError)
    assert result.records == []
    transcript = result.transcript
    assert any(e.stage == "ed.opinion" for e in transcript)
    assert any(e.stage == "ed.retrieval" for e in transcript)


def test_unbound_placeholder_propagates_out_of_the_session(ontology, train_index, embedder, pool, monkeypatch):
    import dao.prompts
    from dao.corpus import Sentence

    # A template bug is not a backend fault: it leaves the session as a
    # plain error, never as the result's `error`.
    monkeypatch.setitem(dao.prompts.TEMPLATES, "judge_ed", dao.prompts.TEMPLATES["judge_ed"] + " {UNBOUND}")
    answer = '["Life:Die", "killed"]'
    team = helpers.make_team(
        [
            [("*", f"A: {answer}"), ("*", f"A: defending {answer} .")],
            [("*", f"B: {answer}"), ("*", f"B: agreeing {answer} .")],
        ],
        [("*", "Assessment .")],
        [("*", helpers.ed_table("Life:Die", "killed"))],
    )
    config = SessionConfig(team=team, scorer=helpers.passthrough_scorer(), embedder=embedder)
    sentence = Sentence.from_text("unbound-1", "The blast killed the mayor .")
    with pytest.raises(KeyError, match="judge_ed: no binding for 'UNBOUND'"):
        run_session(sentence, ontology, train_index, config, pool)


def test_multi_row_agreement_runs_one_eae_per_row(ontology, train_index, embedder, pool):
    from dao.corpus import Sentence

    sentence = Sentence.from_text("multi-1", "The war is sure to kill many people .")
    ed_agreement = (
        "| event type | event trigger |\n| --- | --- |\n"
        "| Conflict:Attack | war |\n| Life:Die | kill |"
    )
    attack_rows = (("Attacker", None), ("Target", "many people"), ("Instrument", None), ("Place", None))
    die_rows = (("Agent", None), ("Victim", "many people"), ("Instrument", None), ("Place", None))
    attack_table = helpers.eae_table("Conflict:Attack", attack_rows)
    die_table = helpers.eae_table("Life:Die", die_rows)
    answer = '["Conflict:Attack", "war"]'
    team = helpers.make_team(
        [
            [("*", f"A: {answer}"), ("*", f"A: defending {answer} .")]
            + [("*", f"A: {attack_table}"), ("*", f"A: keep\n{attack_table}")]
            + [("*", f"A: {die_table}"), ("*", f"A: keep\n{die_table}")],
            [("*", f"B: {answer}"), ("*", f"B: agreeing {answer} .")]
            + [("*", f"B: {attack_table}"), ("*", f"B: keep\n{attack_table}")]
            + [("*", f"B: {die_table}"), ("*", f"B: keep\n{die_table}")],
        ],
        [("*", "Assessment .")] * 6,
        [("*", ed_agreement), ("*", attack_table), ("*", die_table)],
    )
    config = SessionConfig(team=team, scorer=helpers.passthrough_scorer(), embedder=embedder)
    result = run_session(sentence, ontology, train_index, config, pool)
    assert [r.event_type for r in result.records] == ["Conflict:Attack", "Life:Die"]
    assert result.records[0].arguments == (("Target", "many people"),)
    assert result.records[1].arguments == (("Victim", "many people"),)


# -- concurrent stages and the score memo


class _BarrierChat:
    """Chat backend whose calls, from the `skip`-th up to before the
    `stop`-th, wait until its peers are called too."""

    def __init__(self, inner, barrier, skip=0, stop=None):
        self.inner, self.barrier, self.calls = inner, barrier, inner.calls
        self.skip, self.stop = skip, stop

    def complete(self, messages, temperature=0.0):
        if self.skip <= len(self.calls) and (self.stop is None or len(self.calls) < self.stop):
            self.barrier.wait()
        return self.inner.complete(messages, temperature)


def test_debater_calls_of_a_stage_run_at_once(ontology, train_index, embedder, pool):
    import threading
    from dataclasses import replace

    from dao.corpus import Sentence

    # A sequential engine would time the barrier out on the first opinion.
    barrier = threading.Barrier(2, timeout=5)
    team = helpers.make_team(
        [[("*", "A: []"), ("*", "A: no event , [] .")], [("*", "B: []"), ("*", "B: none , [] .")]],
        [("*", "Assessment .")],
        [("*", "No event")],
    )
    team = replace(
        team, debaters=tuple(replace(b, backend=_BarrierChat(b.backend, barrier)) for b in team.debaters)
    )
    config = SessionConfig(team=team, scorer=helpers.passthrough_scorer(), embedder=embedder)
    sentence = Sentence.from_text("barrier-1", "The committee read the report on Monday .")
    result = run_session(sentence, ontology, train_index, config, pool)
    assert result.records == []
    assert [len(b.backend.calls) for b in team.debaters] == [2, 2]


def test_critic_call_overlaps_cross_examination(ontology, train_index, embedder, pool):
    import threading
    from dataclasses import replace

    from dao.corpus import Sentence

    # The debaters' opinions go through; their cross-examination calls and
    # the critic's wait for each other, which a critic called after the
    # cross-examination would time out.
    barrier = threading.Barrier(3, timeout=5)
    team = helpers.make_team(
        [[("*", "A: []"), ("*", "A: no event , [] .")], [("*", "B: []"), ("*", "B: none , [] .")]],
        [("*", "Assessment .")],
        [("*", "No event")],
    )
    team = replace(
        team,
        debaters=tuple(
            replace(b, backend=_BarrierChat(b.backend, barrier, skip=1)) for b in team.debaters
        ),
        critic=_BarrierChat(team.critic, barrier),
    )
    config = SessionConfig(team=team, scorer=helpers.passthrough_scorer(), embedder=embedder)
    sentence = Sentence.from_text("barrier-2", "The committee read the report on Monday .")
    result = run_session(sentence, ontology, train_index, config, pool)
    assert result.records == []
    assert [len(b.backend.calls) for b in team.debaters] == [2, 2]
    assert len(team.critic.calls) == 1
    ce_roles = [e.role for e in result.transcript if e.stage == "ed.cross_examination"]
    assert ce_roles == ["debater_A", "debater_B", "critic"]


def test_topk_runs_while_the_first_opinions_are_out(ontology, train_index, embedder, pool, monkeypatch):
    import threading
    from dataclasses import replace

    import dao.drag
    from dao.corpus import Sentence

    # The top-K scan and both debaters' opinions wait for each other, which
    # a scan made before or after the opinions would time out.
    barrier = threading.Barrier(3, timeout=5)
    real = dao.drag.retrieve_topk
    scans = []

    def waiting(*args):
        scans.append(args)
        barrier.wait()
        return real(*args)

    monkeypatch.setattr(dao.drag, "retrieve_topk", waiting)
    team = helpers.make_team(
        [[("*", "A: []"), ("*", "A: no event , [] .")], [("*", "B: []"), ("*", "B: none , [] .")]],
        [("*", "Assessment .")],
        [("*", "No event")],
    )
    team = replace(
        team,
        debaters=tuple(
            replace(b, backend=_BarrierChat(b.backend, barrier, stop=1)) for b in team.debaters
        ),
    )
    config = SessionConfig(team=team, scorer=helpers.passthrough_scorer(), embedder=embedder)
    sentence = Sentence.from_text("barrier-3", "The committee read the report on Monday .")
    result = run_session(sentence, ontology, train_index, config, pool)
    assert result.records == []
    assert len(scans) == 1
    assert result.transcript[0].stage == "session.embed"


class _BarrierEmbedder:
    """Embedder whose calls wait until their peers are called too."""

    def __init__(self, inner, barrier):
        self.inner, self.barrier = inner, barrier

    def dimension(self):
        return self.inner.dimension()

    def embed(self, text):
        self.barrier.wait()
        return self.inner.embed(text)


def test_query_embed_runs_while_the_first_opinions_are_out(ontology, train_index, embedder, pool):
    import threading
    from dataclasses import replace

    from dao.corpus import Sentence

    # The query embed and debater A's first opinion wait for each other,
    # which an embed made before the opinions would time out.
    barrier = threading.Barrier(2, timeout=5)
    team = helpers.make_team(
        [[("*", "A: []"), ("*", "A: no event , [] .")], [("*", "B: []"), ("*", "B: none , [] .")]],
        [("*", "Assessment .")],
        [("*", "No event")],
    )
    first, second = team.debaters
    team = replace(team, debaters=(replace(first, backend=_BarrierChat(first.backend, barrier, stop=1)), second))
    config = SessionConfig(
        team=team, scorer=helpers.passthrough_scorer(), embedder=_BarrierEmbedder(embedder, barrier)
    )
    sentence = Sentence.from_text("barrier-4", "The committee read the report on Monday .")
    result = run_session(sentence, ontology, train_index, config, pool)
    assert result.records == []
    assert [e.stage for e in result.transcript[:2]] == ["session.embed", "ed.opinion"]


def test_aborted_session_leaves_no_scan_running(ontology, train_index, embedder, pool, monkeypatch):
    import time

    import dao.drag
    from dao.corpus import Sentence
    from dao.errors import ScriptExhausted

    # Debater A's script is empty, so its first opinion fails at once,
    # long before the slowed scan is done.
    real = dao.drag.retrieve_topk
    finished = []

    def slow(*args):
        time.sleep(0.2)
        result = real(*args)
        finished.append(len(result))
        return result

    monkeypatch.setattr(dao.drag, "retrieve_topk", slow)
    team = helpers.make_team([[], [("*", "B: []")]], [], [])
    config = SessionConfig(team=team, scorer=helpers.passthrough_scorer(), embedder=embedder)
    sentence = Sentence.from_text("abort-scan", "The committee read the report on Monday .")
    result = run_session(sentence, ontology, train_index, config, pool)
    assert isinstance(result.error, ScriptExhausted)
    assert len(finished) == 1


def _ce_prompts(result):
    return {
        (e.stage, e.round_index, e.role): e.prompt
        for e in result.transcript
        if e.stage.endswith(".cross_examination") and e.role.startswith("debater_")
    }


def test_cross_examination_is_simultaneous_and_order_free(ontology, train_index, embedder, pool):
    from dataclasses import replace

    from dao.backends import KeyedScorer
    from dao.corpus import Sentence

    # A is gated out on a wrong trigger and takes B's answer in the CE; both
    # name one type, so the packet does not depend on the debater order.
    wrong, good = '["Conflict:Attack", "town"]', '["Conflict:Attack", "attacked"]'
    sentence = Sentence.from_text("ce-1", "Rebels attacked the town at dawn .")
    prompts = []
    for order in (1, -1):
        team = helpers.make_team(
            [
                [("*", f"A: {wrong}"), ("*", f"A: I now say {good} .")],
                [("*", f"B: {good}"), ("*", f"B: I keep {good} .")],
            ],
            [("*", "Assessment .")],
            [("*", "No event")],
        )
        team = replace(team, debaters=team.debaters[::order])
        config = SessionConfig(team=team, scorer=KeyedScorer(keys=[("*", good)]), embedder=embedder)
        prompts.append(_ce_prompts(run_session(sentence, ontology, train_index, config, pool)))
    assert prompts[0] == prompts[1]
    # B sees A's answer from before the cross-examination, not A's revision.
    assert f"Debater A's current answer: {wrong}" in prompts[0][("ed.cross_examination", 0, "debater_B")]


def test_critic_sees_the_answers_cross_examination_started_from(ontology, train_index, embedder, pool):
    from dao.backends import KeyedScorer
    from dao.corpus import Sentence

    # A is gated out on a wrong trigger and revises in the cross-examination.
    wrong, good = '["Conflict:Attack", "town"]', '["Conflict:Attack", "attacked"]'
    sentence = Sentence.from_text("ce-2", "Rebels attacked the town at dawn .")
    team = helpers.make_team(
        [
            [("*", f"A: {wrong}"), ("*", f"A: I now say {good} .")],
            [("*", f"B: {good}"), ("*", f"B: I keep {good} .")],
        ],
        [("*", "Assessment .")],
        [("*", "No event")],
    )
    config = SessionConfig(team=team, scorer=KeyedScorer(keys=[("*", good)]), embedder=embedder)
    result = run_session(sentence, ontology, train_index, config, pool)
    assert any(not r.accepted and r.debater == "A" for r in result.risk_log)
    prompts = {
        e.role: e.prompt
        for e in result.transcript
        if e.stage == "ed.cross_examination" and e.round_index == 0 and e.prompt
    }

    def shown_answer_of_a(prompt):
        return re.search(r"^Debater A's current answer: .*$", prompt, re.M).group(0)

    assert shown_answer_of_a(prompts["critic"]) == f"Debater A's current answer: {wrong}"
    assert shown_answer_of_a(prompts["critic"]) == shown_answer_of_a(prompts["debater_B"])


def test_each_distinct_scoring_request_is_sent_once(ontology, train_index, embedder, pool):
    for seed in range(12):
        scenario, config, result = _run_scenario(seed, ontology, train_index, embedder, pool)
        requests = [(prompt, completion) for prompt, completion, _ in config.scorer.calls]
        assert len(requests) == len(set(requests)), scenario.name
        if scenario.flow == "immediate_agree":  # both debaters give the same answer
            gates = [e for e in result.transcript if e.stage == "ed.gate"]
            assert len(gates) == 2 and gates[0].prompt == gates[1].prompt
            assert sum(p == gates[0].prompt for p, _ in requests) == 1


class _InFlight:
    """Counts the calls of the chat backends it wraps that have not yet
    returned."""

    def __init__(self):
        import threading

        self.count = 0
        self._lock = threading.Lock()

    def wrap(self, backend, delay=0.0):
        return _InFlightChat(backend, self, delay)

    def add(self, n):
        with self._lock:
            self.count += n


class _InFlightChat:
    """A chat backend counted by `in_flight`; `delay` makes its reply come
    after a faster call of the same stage has failed."""

    def __init__(self, inner, in_flight, delay):
        self.inner, self.in_flight, self.delay, self.calls = inner, in_flight, delay, inner.calls

    def complete(self, messages, temperature=0.0):
        import time

        self.in_flight.add(1)
        try:
            time.sleep(self.delay)
            return self.inner.complete(messages, temperature)
        finally:
            self.in_flight.add(-1)


def _counted(team, in_flight, slow_debaters, slow_critic):
    from dataclasses import replace

    return replace(
        team,
        debaters=tuple(
            replace(b, backend=in_flight.wrap(b.backend, 0.05 * (i in slow_debaters)))
            for i, b in enumerate(team.debaters)
        ),
        critic=in_flight.wrap(team.critic, 0.05 * slow_critic),
    )


def test_failed_cross_examination_call_aborts_with_earlier_entries(ontology, train_index, embedder, pool):
    from dao.corpus import Sentence
    from dao.errors import ScriptExhausted

    def team(a_replies):
        return helpers.make_team(
            [
                [("*", 'A: ["Life:Die", "killed"]'), ("*", "A: I defend my answer .")][:a_replies],
                [("*", 'B: ["Life:Die", "killed"]'), ("*", "B: I agree .")],
            ],
            [("*", "Assessment .")],
            [("*", "No event")],
        )

    sentence = Sentence.from_text("abort-2", "The blast killed the mayor .")
    full = run_session(
        sentence,
        ontology,
        train_index,
        SessionConfig(team=team(2), scorer=helpers.passthrough_scorer(), embedder=embedder),
        pool,
    )
    a_ce_row = next(
        i
        for i, e in enumerate(full.transcript)
        if e.stage == "ed.cross_examination" and e.role == "debater_A"
    )
    # A's cross-examination call fails at once; B's and the critic's reply
    # later, and have all returned by the time the session returns its error.
    in_flight = _InFlight()
    config = SessionConfig(
        team=_counted(team(1), in_flight, slow_debaters={1}, slow_critic=True),
        scorer=helpers.passthrough_scorer(),
        embedder=embedder,
    )
    result = run_session(sentence, ontology, train_index, config, pool)
    assert isinstance(result.error, ScriptExhausted)
    assert in_flight.count == 0
    assert result.transcript == full.transcript[:a_ce_row]
    assert len(config.team.critic.calls) == 1


def test_failed_critic_call_aborts_before_the_cross_examination_rows(
    ontology, train_index, embedder, pool
):
    from dao.corpus import Sentence
    from dao.errors import ScriptExhausted

    def team(critic_replies):
        return helpers.make_team(
            [
                [("*", 'A: ["Life:Die", "killed"]'), ("*", "A: I defend my answer .")],
                [("*", 'B: ["Life:Die", "killed"]'), ("*", "B: I agree .")],
            ],
            [("*", "Assessment .")][:critic_replies],
            [("*", "No event")],
        )

    sentence = Sentence.from_text("abort-3", "The blast killed the mayor .")
    full = run_session(
        sentence,
        ontology,
        train_index,
        SessionConfig(team=team(1), scorer=helpers.passthrough_scorer(), embedder=embedder),
        pool,
    )
    first_ce_row = next(
        i for i, e in enumerate(full.transcript) if e.stage == "ed.cross_examination"
    )
    # The critic's call fails at once; the debaters' reply later, and have
    # all returned by the time the session returns its error.
    in_flight = _InFlight()
    config = SessionConfig(
        team=_counted(team(0), in_flight, slow_debaters={0, 1}, slow_critic=False),
        scorer=helpers.passthrough_scorer(),
        embedder=embedder,
    )
    result = run_session(sentence, ontology, train_index, config, pool)
    assert isinstance(result.error, ScriptExhausted)
    assert in_flight.count == 0
    assert result.transcript == full.transcript[:first_ce_row]
    # The debaters' cross-examination calls were made; none of them was noted.
    assert [len(b.backend.calls) for b in config.team.debaters] == [2, 2]


# -- the session generator


def _sequential(calls):
    return [call() for call in calls]


def _reversed(calls):
    """Makes the calls last-to-first; their results in call order."""
    return [call() for call in reversed(calls)][::-1]


def _step(sentence, ontology, index, config, run):
    """Step a session's `steps()` by hand, each batch made by `run`; its
    result and every batch it yielded."""
    session = _Session(sentence, ontology, index, config)
    steps, results, batches = session.steps(), None, []
    while True:
        try:
            batches.append(steps.send(results))
        except StopIteration as done:
            return SessionResult(sentence, done.value, session.transcript, session.risk_log), batches
        results = run(batches[-1])


@pytest.mark.parametrize("run", [_sequential, _reversed], ids=["sequential", "reversed"])
def test_session_does_not_depend_on_its_runner(run, ontology, train_index, embedder, pool):
    # Batch order, not thread timing, fixes a session: every scenario gives
    # the same records and the same transcript bytes when its batches are
    # made one by one on this thread, in call order or backwards, as on
    # the call pool.
    flows = set()
    for seed in range(50):
        scenario = helpers.build_scenario(seed, ontology)
        config = scenario.build_config(embedder)
        pooled = run_session(scenario.sentence, ontology, train_index, config, pool)
        config = scenario.build_config(embedder)
        alone, _ = _step(scenario.sentence, ontology, train_index, config, run)
        assert alone.records == pooled.records, scenario.name
        assert _transcript_rows(alone) == _transcript_rows(pooled), scenario.name
        flows.add(scenario.flow)
    assert len(flows) == 6


def test_cap_disagree_on_a_sequential_runner_with_no_pool(ontology, train_index, embedder, pool):
    scenario = helpers.build_scenario(3, ontology)
    assert scenario.flow == "cap_disagree"
    config = scenario.build_config(embedder)
    pooled = run_session(scenario.sentence, ontology, train_index, config, pool)
    config = scenario.build_config(embedder)
    alone, _ = _step(scenario.sentence, ontology, train_index, config, _sequential)
    assert any(e.stage == "ed.adjudication" for e in alone.transcript)
    assert alone.transcript == pooled.transcript
    assert alone.records == pooled.records


def _is_scan(call):
    return getattr(call, "__func__", None) is _Session._embed_and_scan


def test_every_model_call_is_in_a_yielded_batch(ontology, train_index, embedder, pool):
    import dao.debate
    from dao.debate import fan_out

    for seed in range(12):
        scenario = helpers.build_scenario(seed, ontology)
        config = scenario.build_config(embedder)
        _, batches = _step(scenario.sentence, ontology, train_index, config, partial(fan_out, pool))
        # The session's one other call, its bound `_embed_and_scan`, embeds
        # the sentence and scans the index.
        (scan,) = [call for batch in batches for call in batch if _is_scan(call)]
        seen = [call for batch in batches for call in batch if not _is_scan(call)]
        assert scan.__self__.sentence == scenario.sentence and scan.__self__.index is train_index
        team = config.team
        backends = [b.backend for b in team.debaters] + [team.critic, team.judge]
        # A chat call is its backend's bound `complete`, given the prompt.
        for backend in backends:
            sent = [c.args[0] for c in seen if getattr(c.func, "__self__", None) is backend]
            assert sent == [prompt for prompt, _ in backend.calls], scenario.name
        # A scoring call is `risk_score` on the scorer, the context and the
        # answer; the scorer sees that context unchanged.
        scored = [c.args for c in seen if c.func is dao.debate.risk_score]
        assert all(args[0] is config.scorer for args in scored)
        requests = [(context, answer) for _, context, answer in scored]
        assert requests == [(prompt, answer) for prompt, answer, _ in config.scorer.calls]
        assert len(seen) == sum(len(b.calls) for b in backends) + len(scored)


def test_a_session_yields_no_empty_batch(ontology, train_index, embedder):
    # Each yield is one model wait: a stage with nothing to ask, such as a
    # gate whose every request was scored before, yields no batch at all.
    for seed in range(50):
        scenario = helpers.build_scenario(seed, ontology)
        config = scenario.build_config(embedder)
        _, batches = _step(scenario.sentence, ontology, train_index, config, _sequential)
        assert all(batches), scenario.name
        # The first batch is the scan, then one chat call per debater.
        scan, *opinions = batches[0]
        assert _is_scan(scan)
        assert [call.func.__self__ for call in opinions] == [b.backend for b in config.team.debaters]


def test_critic_prompt_names_the_team(ontology, train_index, embedder, pool):
    from dataclasses import replace

    from dao.corpus import Sentence

    script = [("*", "[]"), ("*", "No event , [] .")]
    team = helpers.make_team([script] * 3, [("*", "Assessment .")], [("*", "No event")])
    names = ("Ann", "Bo", "Cy")
    team = replace(team, debaters=tuple(replace(b, name=n) for b, n in zip(team.debaters, names)))
    config = SessionConfig(team=team, scorer=helpers.passthrough_scorer(), embedder=embedder)
    sentence = Sentence.from_text("critic-names", "The committee read the report on Monday .")
    result = run_session(sentence, ontology, train_index, config, pool)
    (prompt,) = [e.prompt for e in result.transcript if e.role == "critic"]
    assert "responses from Debater Ann, Debater Bo and Debater Cy. For debaters' answers" in prompt
    assert "Debater A " not in prompt
