import pytest

from dao.prompts import TEMPLATES, render_prompt


def test_debater_ed_binds_sentence():
    rendered = render_prompt(
        "debater_ed",
        {"SENT": "The general was killed .", "ROLE": "A"},
    )
    assert 'Consider the sentence: "The general was killed ."' in rendered
    assert '**A: ["event type", "trigger token"]**' in rendered


def test_debater_eae_binds_trigger():
    rendered = render_prompt(
        "debater_eae",
        {
            "SENT": "McCarthy was formerly a top civil servant .",
            "event type": "Personnel:End-Position",
            "trigger": "formerly",
            "role list": "Person, Entity, Position, Place",
        },
    )
    assert "triggered by the token **formerly**" in rendered
    assert "**Personnel:End-Position**" in rendered
    assert "| event type | argument role | argument content |" in rendered


def test_missing_binding_raises():
    with pytest.raises(KeyError, match="debater_eae: no binding for 'role list'"):
        render_prompt(
            "debater_eae",
            {"SENT": "x", "event type": "Life:Die", "trigger": "killed"},
        )


def test_missing_sent_raises():
    with pytest.raises(KeyError):
        render_prompt("critic_ed", {})


def test_judge_templates_have_no_placeholders():
    assert render_prompt("judge_ed", {}) == TEMPLATES["judge_ed"]
    assert render_prompt("judge_eae", {}) == TEMPLATES["judge_eae"]
    assert render_prompt("judge_ed", {}).startswith("If all agents state there is no event")
    assert "**No agreement, debate continues**" in TEMPLATES["judge_ed"]
    assert "**Disagreement observed, debate continues**" in TEMPLATES["judge_eae"]


def test_substitution_only_no_other_transformation():
    rendered = render_prompt("critic_ed", {"SENT": "a & b < c", "debaters": "Debater A and Debater B"})
    assert 'Review the given sentence: "a & b < c".' in rendered


def test_quoted_format_examples_not_treated_as_placeholders():
    # The literal ["event type", "trigger token"] in the detection template
    # is prompt text, not a placeholder: SENT and ROLE are all it needs.
    rendered = render_prompt("debater_ed", {"SENT": "x", "ROLE": "A"})
    assert '["event type", "trigger token"]' in rendered


def test_unknown_template_id():
    with pytest.raises(KeyError):
        render_prompt("nonexistent", {})


def test_extra_bindings_ignored():
    rendered = render_prompt("debater_ce", {"unused": "x"})
    assert rendered.startswith("Carefully review the information")


@pytest.mark.parametrize("text", ["He wrote {trigger} and {ROLE} here", "He wrote [SENT] and [ROLE] here"])
def test_sentence_text_is_carried_verbatim(text):
    # A bound value is never scanned again, so placeholder-like text in the
    # sentence survives even when a binding of that name exists.
    bindings = {
        "SENT": text,
        "ROLE": "Debater A",
        "event type": "Life:Die",
        "trigger": "killed",
        "role list": "Victim",
        "debaters": "Debater A and Debater B",
    }
    for template_id in ("debater_ed", "debater_eae", "critic_ed", "critic_eae"):
        assert text in render_prompt(template_id, bindings)


def test_critic_ed_names_the_debaters_it_is_given():
    rendered = render_prompt("critic_ed", {"SENT": "x", "debaters": "Debater A, Debater B and Debater C"})
    assert "and responses from Debater A, Debater B and Debater C. For debaters' answers" in rendered
