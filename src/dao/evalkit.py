"""Scoring of predictions against gold annotations.

Each item is (sentence id, label, span): the event type and trigger for
detection, or the (event type, role) pair and argument content for
argument extraction. Three metrics: exact-match F1, head F1 (each span
replaced by its head token, by a documented heuristic, for triggers and
argument contents alike; a span missing from its sentence is scored by
its own head with a warning), and a span-overlap metric for corpora
scored by type overlap. The overlap rule is a stand-in for that corpus
family's official definition and reports label it as such.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from .corpus import Sentence
from .errors import SpanNotInSentence

logger = logging.getLogger(__name__)

_TRAILING_PUNCT = ".,;:!?'\""
_PREPOSITIONS = (" of ", " in ", " at ", " from ")

# (sentence_id, label, span)
Item = tuple[str, Hashable, str]


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int


def _prf(tp: int, fp: int, fn: int) -> PRF:
    # Corpus-level 0/0 scores 1.0 only when both sides are empty.
    if tp == 0 and fp == 0 and fn == 0:
        return PRF(1.0, 1.0, 1.0, 0, 0, 0)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return PRF(precision, recall, f1, tp, fp, fn)


def trigger_f1(preds: Sequence[Item], golds: Sequence[Item]) -> PRF:
    """Exact-match F1 on (sentence, label, span) with one-to-one matching."""
    pred_counts, gold_counts = Counter(preds), Counter(golds)
    tp = sum(min(count, gold_counts[key]) for key, count in pred_counts.items())
    return _prf(tp, len(preds) - tp, len(golds) - tp)


def _head_from_span(span: str) -> str:
    """Heuristic head: token before the first preposition, else last token."""
    text = span.strip().rstrip(_TRAILING_PUNCT).strip()
    positions = [text.find(prep) for prep in _PREPOSITIONS]
    hits = [pos for pos in positions if pos != -1]
    if hits:
        text = text[: min(hits)]
    tokens = text.split()
    if not tokens:
        return text
    return tokens[-1].strip(_TRAILING_PUNCT)


def head_of_span(sentence: Sentence, span: str) -> str:
    """Head token of an argument span that occurs in the sentence."""
    if span not in sentence.text:
        raise SpanNotInSentence(f"{sentence.id}: span {span!r} not in sentence")
    return _head_from_span(span)


def head_f1(preds: Sequence[Item], golds: Sequence[Item], texts: Mapping[str, str]) -> PRF:
    """Exact-match F1 with each span replaced by its head. A span that is
    not in its sentence's text is scored by its own head, with a warning."""

    def keyed(items: Sequence[Item]) -> list[Item]:
        result = []
        for sentence_id, label, span in items:
            if span not in texts.get(sentence_id, ""):
                logger.warning("%s: span %r not in sentence; head taken from span text", sentence_id, span)
            result.append((sentence_id, label, _head_from_span(span)))
        return result

    return trigger_f1(keyed(preds), keyed(golds))


def _locate(texts: Mapping[str, str], sentence_id: str, span: str) -> tuple[int, int] | None:
    text = texts.get(sentence_id)
    if text is None:
        return None
    start = text.find(span)
    if start == -1:
        return None
    return start, start + len(span)


def type_overlap_f1(
    preds: Sequence[Item],
    golds: Sequence[Item],
    texts: Mapping[str, str],
) -> PRF:
    """F1 where a pair matches when types agree and spans overlap by at
    least one character (first occurrence in the sentence), matched
    greedily longest-overlap-first, one-to-one."""
    pred_spans = [(item, _locate(texts, item[0], item[2])) for item in preds]
    gold_spans = [(item, _locate(texts, item[0], item[2])) for item in golds]
    pairs: list[tuple[int, int, int]] = []  # (-overlap, pred_idx, gold_idx)
    for pi, (pred, ps) in enumerate(pred_spans):
        if ps is None:
            continue
        for gi, (gold, gs) in enumerate(gold_spans):
            if gs is None or pred[0] != gold[0] or pred[1] != gold[1]:
                continue
            overlap = min(ps[1], gs[1]) - max(ps[0], gs[0])
            if overlap >= 1:
                pairs.append((-overlap, pi, gi))
    pairs.sort()
    matched_preds: set[int] = set()
    matched_golds: set[int] = set()
    for _, pi, gi in pairs:
        if pi in matched_preds or gi in matched_golds:
            continue
        matched_preds.add(pi)
        matched_golds.add(gi)
    tp = len(matched_preds)
    return _prf(tp, len(preds) - tp, len(golds) - tp)
