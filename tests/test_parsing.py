import pytest

from dao.corpus import EventMention
from dao.debate import (
    EAE_HEADER,
    ED_JUDGE_HEADER,
    ArgumentExtraction,
    Detection,
    parse_debater_ed,
    parse_judge,
    parse_table,
    serialize_trigger_answer,
)
from dao.errors import ParseFailure


# -- parse_debater_ed


def test_role_prefixed_answer():
    answer = parse_debater_ed('A: ["Personnel:End-Position", "former"]')
    assert answer == EventMention("Personnel:End-Position", "former")


def test_bare_empty_list_is_no_event():
    assert parse_debater_ed("[]") is None


def test_single_element_list_is_parse_failure():
    with pytest.raises(ParseFailure):
        parse_debater_ed('the answer is ["Life:Die"]')


def test_last_answer_wins():
    text = 'I first thought ["Life:Die", "killed"] but now I say ["Conflict:Attack", "war"] .'
    assert parse_debater_ed(text) == EventMention("Conflict:Attack", "war")


def test_later_empty_list_overrides_pair():
    text = 'I said ["Life:Die", "killed"] before, but there is no event: []'
    assert parse_debater_ed(text) is None


def test_prose_without_answer_is_parse_failure():
    with pytest.raises(ParseFailure):
        parse_debater_ed("I am not sure what to answer here.")


def test_answer_with_surrounding_prose():
    text = 'After reviewing the examples, my answer is **B: ["Life:Divorce", "divorced"]** .'
    assert parse_debater_ed(text) == EventMention("Life:Divorce", "divorced")


def test_serialize_round_trip():
    answer = EventMention("Life:Die", "killed")
    assert parse_debater_ed(serialize_trigger_answer(answer)) == answer
    assert serialize_trigger_answer(None) == "[]"
    assert parse_debater_ed("[]") is None


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
    with pytest.raises(ParseFailure, match="no pipe-delimited table"):
        parse_table("just some prose without any tables", ED_JUDGE_HEADER)


def test_wrong_header_is_mismatch():
    text = "| foo | bar |\n| a | b |"
    with pytest.raises(ParseFailure, match="no table with header"):
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
    assert parse_judge("No agreement, debate continues", Detection()) is None


def test_no_event_sentinel():
    assert parse_judge("No event", Detection()) == ()
    assert parse_judge("No event", _LIFE_DIE) == ()


def test_ed_agreement_table():
    text = "| event type | event trigger |\n|---|---|\n| Life:Die | killed |"
    assert parse_judge(text, Detection()) == (EventMention("Life:Die", "killed"),)
    # A debater's answer and the judge's agreed row are one value.
    assert parse_debater_ed('A: ["Life:Die", "killed"]') == parse_judge(text, Detection())[0]


def test_ed_agreement_multiple_rows_deduplicated():
    text = (
        "| event type | event trigger |\n|---|---|\n"
        "| Life:Die | kill |\n| Conflict:Attack | war |\n| Life:Die | kill |"
    )
    assert parse_judge(text, Detection()) == (
        EventMention("Life:Die", "kill"),
        EventMention("Conflict:Attack", "war"),
    )


def test_ed_agreement_row_with_an_empty_cell_skipped():
    text = (
        "| event type | event trigger |\n|---|---|\n"
        "| None | war |\n| Life:Die | killed |\n| Conflict:Attack | None |"
    )
    assert parse_judge(text, Detection()) == (EventMention("Life:Die", "killed"),)


def test_eae_agreement_rows():
    header = "| event type | argument role | argument content |\n| --- | --- | --- |\n"
    victim = "| Life:Die | Victim | the general |"
    text = f"{header}{victim}\n| Life:Die | Place | None |"
    answer = EventMention("Life:Die", "killed", (("Victim", "the general"),))
    assert parse_judge(text, _LIFE_DIE) == (answer,)
    # A debater's table with a None row is the judge's table without it.
    assert _LIFE_DIE.parse(text) == parse_judge(header + victim, _LIFE_DIE)[0] == answer


def test_eae_row_for_a_role_the_ontology_lacks_dropped():
    text = (
        "| event type | argument role | argument content |\n| --- | --- | --- |\n"
        "| Life:Die | Weapon | a rifle |\n| Life:Die | Victim | the general |"
    )
    answer = EventMention("Life:Die", "killed", (("Victim", "the general"),))
    assert parse_judge(text, _LIFE_DIE) == (answer,)


def test_eae_disagreement_sentinel():
    assert parse_judge("Disagreement observed, debate continues", _LIFE_DIE) is None


def test_sentinel_precedence_over_table():
    text = (
        "No agreement, debate continues\n"
        "| event type | event trigger |\n| Life:Die | killed |"
    )
    assert parse_judge(text, Detection()) is None


def test_unparseable_judge_reply_degrades_to_continue():
    assert parse_judge("I cannot decide.", Detection()) is None


def test_empty_agreement_table_degrades_to_continue():
    text = "| event type | event trigger |\n| --- | --- |"
    assert parse_judge(text, Detection()) is None
