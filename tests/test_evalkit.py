import itertools

import pytest
from hypothesis import given, strategies as st

from dao.evalkit import head_f1, trigger_f1, type_overlap_f1

GOV_TEXT = (
    "Powell said that talks were now underway with the South Korean, Japanese, Russian "
    "and Australian as well as other governments ."
)
GOV_SPAN = "the South Korean, Japanese, Russian and Australian as well as other governments"
HAWAII_TEXT = "The premier pleaded no contest to driving drunk during a Hawaiian vacation in January ."


def _head_is(text, span, head):
    """True when head F1 over `text` reduces `span` to `head`: the span,
    predicted, matches `head`, a single token, as gold."""
    score = head_f1([("s", "L", span)], [("s", "L", head)], {"s": text})
    return (score.tp, score.fp, score.fn) == (1, 0, 0)


# -- trigger_f1


def test_identical_preds_and_golds():
    items = [("s1", "Conflict:Attack", "war"), ("s2", "Life:Die", "kill")]
    score = trigger_f1(items, items)
    assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)


def test_hand_counted_two_thirds():
    preds = [("s1", "Conflict:Attack", "war")]
    golds = [("s1", "Conflict:Attack", "war"), ("s1", "Life:Die", "kill")]
    score = trigger_f1(preds, golds)
    assert score.precision == 1.0
    assert score.recall == 0.5
    assert score.f1 == pytest.approx(2 / 3, abs=1e-12)
    assert (score.tp, score.fp, score.fn) == (1, 1 - 1, 1)


def test_empty_preds_zero_f1():
    golds = [("s1", "Life:Die", "kill")]
    score = trigger_f1([], golds)
    assert score.f1 == 0.0
    assert score.fn == 1


def test_both_empty_scores_one():
    score = trigger_f1([], [])
    assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)


def test_duplicate_predictions_match_once():
    preds = [("s1", "Life:Die", "kill"), ("s1", "Life:Die", "kill")]
    golds = [("s1", "Life:Die", "kill")]
    score = trigger_f1(preds, golds)
    assert (score.tp, score.fp, score.fn) == (1, 1, 0)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["s1", "s2"]),
            st.sampled_from(["A:B", "C:D"]),
            st.sampled_from(["x", "y", "z"]),
        ),
        max_size=6,
    ),
    st.lists(
        st.tuples(
            st.sampled_from(["s1", "s2"]),
            st.sampled_from(["A:B", "C:D"]),
            st.sampled_from(["x", "y", "z"]),
        ),
        max_size=6,
    ),
)
def test_swap_duality(preds, golds):
    forward = trigger_f1(preds, golds)
    backward = trigger_f1(golds, preds)
    assert forward.precision == backward.recall
    assert forward.recall == backward.precision
    assert forward.f1 == backward.f1


def test_spurious_prediction_never_raises_precision():
    golds = [("s1", "Life:Die", "kill")]
    preds = [("s1", "Life:Die", "kill")]
    base = trigger_f1(preds, golds).precision
    worse = trigger_f1(preds + [("s9", "C:D", "zzz")], golds).precision
    assert worse <= base


# -- head rule


def test_governments_head():
    assert _head_is(GOV_TEXT, GOV_SPAN, "governments")


def test_single_token_head():
    assert _head_is(HAWAII_TEXT, "Hawaiian", "Hawaiian")


def test_prepositional_phrase_head():
    text = "McCarthy was formerly a top civil servant at the Department of Trade and Industry ."
    assert _head_is(text, "the Department of Trade", "Department")
    assert not _head_is(text, "the Department of Trade", "Trade")


def test_trailing_punctuation_stripped():
    assert _head_is("They blamed the storm, among other things .", "the storm,", "storm")


def test_span_not_in_sentence_is_scored_by_its_own_head(caplog):
    assert _head_is("Nothing here .", "absent span", "span")
    assert "span 'absent span' not in sentence" in caplog.text


def test_lenient_extractor_tolerates_missing_span(caplog):
    texts = {"s6": "Nothing here ."}
    score = head_f1([("s6", "A:B", "some other phrase")], [("s6", "A:B", "phrase")], texts)
    assert (score.tp, score.fp, score.fn) == (1, 0, 0)
    assert "span 'some other phrase' not in sentence" in caplog.text


# -- head_f1


def test_head_match_despite_longer_span():
    texts = {"s1": GOV_TEXT}
    golds = [("s1", ("Contact:Meet", "Entity"), GOV_SPAN)]
    preds = [("s1", ("Contact:Meet", "Entity"), "other governments")]
    score = head_f1(preds, golds, texts)
    assert (score.tp, score.fp, score.fn) == (1, 0, 0)


def test_hawaii_vs_hawaiian_mismatch():
    texts = {"s1": HAWAII_TEXT}
    golds = [("s1", ("Movement:Transport", "Destination"), "Hawaiian")]
    preds = [("s1", ("Movement:Transport", "Destination"), "Hawaii")]
    score = head_f1(preds, golds, texts)
    assert (score.tp, score.fp, score.fn) == (0, 1, 1)


def test_exact_equality_is_tp():
    texts = {"s1": "The blast killed the mayor ."}
    items = [("s1", ("Life:Die", "Victim"), "the mayor")]
    score = head_f1(items, items, texts)
    assert score.f1 == 1.0


def test_unknown_sentence_id_scored_not_crashed():
    golds = [("s1", ("Life:Die", "Victim"), "the mayor")]
    preds = [("s9", ("Life:Die", "Victim"), "the mayor")]
    score = head_f1(preds, golds, {"s1": "The blast killed the mayor ."})
    assert (score.tp, score.fp, score.fn) == (0, 1, 1)


# -- type_overlap_f1


def test_containment_counts_as_overlap():
    texts = {"s1": "The rebels attacked the village before dawn ."}
    golds = [("s1", "Conflict:Attack", "attacked")]
    preds = [("s1", "Conflict:Attack", "rebels attacked the village")]
    score = type_overlap_f1(preds, golds, texts)
    assert score.tp == 1


def test_same_span_different_type_no_match():
    texts = {"s1": "The rebels attacked the village ."}
    golds = [("s1", "Conflict:Attack", "attacked")]
    preds = [("s1", "Life:Die", "attacked")]
    score = type_overlap_f1(preds, golds, texts)
    assert (score.tp, score.fp, score.fn) == (0, 1, 1)


def test_two_preds_one_gold_single_match():
    texts = {"s1": "The rebels attacked the village before dawn ."}
    golds = [("s1", "Conflict:Attack", "attacked the village")]
    preds = [
        ("s1", "Conflict:Attack", "attacked"),
        ("s1", "Conflict:Attack", "the village"),
    ]
    score = type_overlap_f1(preds, golds, texts)
    assert (score.tp, score.fp, score.fn) == (1, 1, 0)


def test_span_absent_from_text_is_fp():
    texts = {"s1": "Quiet day ."}
    score = type_overlap_f1([("s1", "A:B", "missing")], [("s1", "A:B", "Quiet")], texts)
    assert (score.tp, score.fp, score.fn) == (0, 1, 1)


# -- greedy matching vs brute-force optimum


def _optimal_matches(pairs, n_preds, n_golds):
    """Maximum one-to-one matching size by exhaustive search."""
    best = 0
    pair_list = list(pairs)

    def recurse(i, used_preds, used_golds, count):
        nonlocal best
        best = max(best, count)
        if i == len(pair_list):
            return
        recurse(i + 1, used_preds, used_golds, count)
        pi, gi = pair_list[i]
        if pi not in used_preds and gi not in used_golds:
            recurse(i + 1, used_preds | {pi}, used_golds | {gi}, count + 1)

    recurse(0, frozenset(), frozenset(), 0)
    return best


def test_greedy_equals_bruteforce_on_small_overlap_instances():
    text = "a b c d e f g h i j k l m n o p"
    texts = {"s1": text}
    spans = ["a b c", "b c d", "c d e", "a b c d e", "d e f", "f g", "g h i", "k l m n"]
    rng_cases = itertools.combinations(spans, 4)
    for case_index, chosen in enumerate(itertools.islice(rng_cases, 40)):
        preds = [("s1", "T:T", span) for span in chosen[:4]]
        golds = [("s1", "T:T", span) for span in chosen[1:]]
        score = type_overlap_f1(preds, golds, texts)
        pairs = []
        for pi, (_, _, pspan) in enumerate(preds):
            p0 = text.find(pspan)
            for gi, (_, _, gspan) in enumerate(golds):
                g0 = text.find(gspan)
                if p0 != -1 and g0 != -1:
                    if min(p0 + len(pspan), g0 + len(gspan)) - max(p0, g0) >= 1:
                        pairs.append((pi, gi))
        assert score.tp == _optimal_matches(pairs, len(preds), len(golds))


def test_greedy_counter_matching_equals_bruteforce_exact():
    pool = [("s1", "A:B", "x"), ("s1", "A:B", "y"), ("s2", "A:B", "x"), ("s1", "C:D", "x")]
    for preds in itertools.product(pool, repeat=3):
        for golds in itertools.product(pool, repeat=2):
            score = trigger_f1(list(preds), list(golds))
            pairs = [
                (pi, gi)
                for pi, p in enumerate(preds)
                for gi, g in enumerate(golds)
                if p == g
            ]
            assert score.tp == _optimal_matches(pairs, len(preds), len(golds))
