"""Prompt templates and placeholder substitution.

`TEMPLATES` is the one table of every prompt part with no per-round
data, by id: the debaters' task, cross-examination and revise prompts,
the critic's, the judge's, and the answer-format reminders that end
every cross-examination prompt (`reminder_ed` names `{ROLE}`).

Placeholders are `{name}`, filled by one `str.format_map` pass: a bound
value (a sentence, say) is never scanned again, so a prompt carries it
verbatim. Templates hold no literal braces, since `format_map` would
read them as placeholders. Every placeholder in a template must receive
a binding.
"""

from __future__ import annotations

TEMPLATES: dict[str, str] = {
    "debater_ed": (
        'Consider the sentence: "{SENT}". Carefully read the event definition, event type, '
        "and trigger tokens in the given examples. Examine whether it mentions any possible "
        'event from the provided list. If no events are mentioned, respond with "[]". If an '
        "event are mentioned, determine the event type from the list. Then identify the event "
        "trigger, which is **one word** closely associated with the occurrence of a pre-defined "
        'event type. Respond in the format **{ROLE}: ["event type", "trigger token"]**, or '
        "**{ROLE}: []** if no event trigger is identified."
    ),
    "debater_eae": (
        "Give a sentence: **{SENT}**, it contains an event mention. The event type is "
        "**{event type}**, and the event is triggered by the token **{trigger}**. Now let's "
        "focus on the Argument Extraction task.\n"
        "The list of argument roles corresponding to the event type **{event type}** is "
        "**{role list}**.\n"
        "Event arguments are entities that directly relate to the event mention. Please extract "
        "the event arguments of the above sentence according to the argument roles, and return "
        "them in the form of a table.\n"
        "The header of the table is | event type | argument role | argument content |.\n"
        "If no entity in the sentence plays the corresponding argument role, its argument "
        "content returns **None**."
    ),
    "debater_ce": (
        "Carefully review the information in the event definitions and retrieved examples. "
        "Defend your answer, or update your answer."
    ),
    "debater_revise": (
        "Your answer was rejected by the answer-quality gate. Carefully review the information "
        "in the event definitions and retrieved examples, then revise your answer."
    ),
    "critic_ed": (
        'Review the given sentence: "{SENT}". Thoroughly evaluate the event definitions, '
        "typical triggers, listed examples, and responses from {debaters}. For "
        "debaters' answers, rigorously examine: Is there an event mention? Does the identified "
        "event trigger indeed express an occurrence of the identified event type, based on the "
        "event definition? Does the identified trigger align with typical triggers and the "
        "examples provided? Considering the valid examples, is there a more suitable trigger "
        "token to express the event? Provide concise assessments."
    ),
    "critic_eae": (
        "Remember the given sentence: **{SENT}**. Now, please judge critically and identify "
        "possible errors. Do the identified argument roles correctly match the entity mentions? "
        "Are there extra or missing argument roles, or misclassified argument roles? Please "
        "reply concisely."
    ),
    "judge_ed": (
        "If all agents state there is no event mention involved, reply **No event**. If all "
        "agents have agree with the same event type and event trigger answers, respond in a "
        "table. The header of the table is | event type | event trigger |. If there is any "
        "disagreement in responses, respond with **No agreement, debate continues** to "
        "encourage further discussion to resolve the differences."
    ),
    "judge_eae": (
        "If debaters agree with each other, reply the event arguments in the form of a table. "
        "The header of the table is | event type | argument role | argument content |. If no "
        "argument role has a corresponding argument content, the argument content returns "
        "**None**.\n"
        "If debaters disagree on any argument content, require reply: **Disagreement observed, "
        "debate continues**.\n"
        "Make sure reply only a table or **Disagreement observed, debate continues**"
    ),
    "reminder_ed": (
        'State your final answer in the format **{ROLE}: ["event type", "trigger token"]**, '
        "or **{ROLE}: []**."
    ),
    "reminder_eae": (
        "State your final answer as a table. The header of the table is "
        "| event type | argument role | argument content |."
    ),
}

def render_prompt(template_id: str, bindings: dict[str, str]) -> str:
    """Fill a template's placeholders from `bindings` in one pass.

    An unknown template, or a placeholder with no binding, is a bug in the
    caller and raises `KeyError`. Extra bindings are ignored.
    """
    try:
        template = TEMPLATES[template_id]
    except KeyError:
        raise KeyError(f"unknown template id: {template_id!r}") from None
    try:
        return template.format_map(bindings)
    except KeyError as exc:
        raise KeyError(f"{template_id}: no binding for {exc.args[0]!r}") from None
