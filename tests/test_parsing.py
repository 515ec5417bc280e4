import pytest

from dao.debate import (
    EAE_HEADER,
    ED_JUDGE_HEADER,
    ArgumentExtraction,
    Detection,
    TriggerAnswer,
    VerdictKind,
    parse_debater_ed,
    parse_judge,
    parse_table,
    serialize_trigger_answer,
)
from dao.errors import HeaderMismatch, NoTableFound, ParseFailure


# -- parse_debater_ed


def test_role_prefixed_answer():
    answer = parse_debater_ed('A: ["Personnel:End-Position", "former"]')
    assert answer == TriggerAnswer("Personnel:End-Position", "former")


def test_bare_empty_list_is_no_event():
    assert parse_debater_ed("[]").is_no_event


def test_single_element_list_is_parse_failure():
    with pytest.raises(ParseFailure):
        parse_debater_ed('the answer is ["Life:Die"]')


def test_last_answer_wins():
    text = 'I first thought ["Life:Die", "killed"] but now I say ["Conflict:Attack", "war"] .'
    assert parse_debater_ed(text) == TriggerAnswer("Conflict:Attack", "war")


def test_later_empty_list_overrides_pair():
    text = 'I said ["Life:Die", "killed"] before, but there is no event: []'
    assert parse_debater_ed(text).is_no_event


def test_prose_without_answer_is_parse_failure():
    with pytest.raises(ParseFailure):
        parse_debater_ed("I am not sure what to answer here.")


def test_answer_with_surrounding_prose():
    text = 'After reviewing the examples, my answer is **B: ["Life:Divorce", "divorced"]** .'
    assert parse_debater_ed(text) == TriggerAnswer("Life:Divorce", "divorced")


def test_serialize_round_trip():
    answer = TriggerAnswer("Life:Die", "killed")
    assert parse_debater_ed(serialize_trigger_answer(answer)) == answer
    assert serialize_trigger_answer(TriggerAnswer()) == "[]"


def test_trigger_answer_requires_both_or_neither():
    with pytest.raises(ValueError):
        TriggerAnswer(event_type="Life:Die", trigger=None)


# -- parse_table


def test_simple_ed_table():
    text = "| event type | event trigger |\n|---|---|\n| Life:Die | killed |"
    assert parse_table(text, ED_JUDGE_HEADER) == [("Life:Die", "killed")]


def test_none_cell_becomes_none():
    text = (
        "| event type | argument role | argument content |\n"
        "| --- | --- | --- |\n"
        "| Life:Die | Victim | None |"
    )
    assert parse_table(text, EAE_HEADER) == [("Life:Die", "Victim", None)]


def test_no_pipes_is_no_table():
    with pytest.raises(NoTableFound):
        parse_table("just some prose without any tables", ED_JUDGE_HEADER)


def test_wrong_header_is_mismatch():
    text = "| foo | bar |\n| a | b |"
    with pytest.raises(HeaderMismatch):
        parse_table(text, ED_JUDGE_HEADER)


def test_header_match_case_insensitive():
    text = "| Event Type | EVENT TRIGGER |\n| Life:Die | killed |"
    assert parse_table(text, ED_JUDGE_HEADER) == [("Life:Die", "killed")]


def test_table_found_after_prose_and_bold_cells():
    text = (
        "Here is my final answer:\n\n"
        "| event type | event trigger |\n"
        "| :--- | ---: |\n"
        "| **Conflict:Attack** | **war** |\n"
        "Thank you."
    )
    assert parse_table(text, ED_JUDGE_HEADER) == [("Conflict:Attack", "war")]


def test_second_table_used_when_first_header_differs():
    text = (
        "| foo | bar |\n| 1 | 2 |\n"
        "\n"
        "| event type | event trigger |\n| Life:Die | killed |"
    )
    assert parse_table(text, ED_JUDGE_HEADER) == [("Life:Die", "killed")]


def test_rows_with_wrong_width_dropped():
    text = "| event type | event trigger |\n| Life:Die | killed | extra |\n| Conflict:Attack | war |"
    assert parse_table(text, ED_JUDGE_HEADER) == [("Conflict:Attack", "war")]


# -- parse_judge

_LIFE_DIE = ArgumentExtraction("Life:Die", "killed", ("Victim", "Place"))


def test_no_agreement_sentinel():
    verdict = parse_judge("No agreement, debate continues", Detection())
    assert verdict.kind is VerdictKind.CONTINUE


def test_no_event_sentinel():
    assert parse_judge("No event", Detection()).kind is VerdictKind.NO_EVENT


def test_ed_agreement_table():
    text = "| event type | event trigger |\n|---|---|\n| Life:Die | killed |"
    verdict = parse_judge(text, Detection())
    assert verdict.kind is VerdictKind.AGREEMENT
    assert verdict.trigger_answers == (TriggerAnswer("Life:Die", "killed"),)


def test_ed_agreement_multiple_rows_deduplicated():
    text = (
        "| event type | event trigger |\n|---|---|\n"
        "| Life:Die | kill |\n| Conflict:Attack | war |\n| Life:Die | kill |"
    )
    verdict = parse_judge(text, Detection())
    assert verdict.trigger_answers == (
        TriggerAnswer("Life:Die", "kill"),
        TriggerAnswer("Conflict:Attack", "war"),
    )


def test_eae_agreement_rows():
    text = (
        "| event type | argument role | argument content |\n"
        "| --- | --- | --- |\n"
        "| Life:Die | Victim | the general |\n"
        "| Life:Die | Place | None |"
    )
    verdict = parse_judge(text, _LIFE_DIE)
    assert verdict.kind is VerdictKind.AGREEMENT
    assert verdict.argument_rows == (("Victim", "the general"), ("Place", None))


def test_eae_disagreement_sentinel():
    verdict = parse_judge("Disagreement observed, debate continues", _LIFE_DIE)
    assert verdict.kind is VerdictKind.CONTINUE


def test_sentinel_precedence_over_table():
    text = (
        "No agreement, debate continues\n"
        "| event type | event trigger |\n| Life:Die | killed |"
    )
    assert parse_judge(text, Detection()).kind is VerdictKind.CONTINUE


def test_unparseable_judge_reply_degrades_to_continue():
    assert parse_judge("I cannot decide.", Detection()).kind is VerdictKind.CONTINUE


def test_empty_agreement_table_degrades_to_continue():
    text = "| event type | event trigger |\n| --- | --- |"
    assert parse_judge(text, Detection()).kind is VerdictKind.CONTINUE
