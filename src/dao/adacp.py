"""Adaptive conformal gating of extraction answers.

An initial acceptance threshold is either fixed per task or calibrated
as a conformal quantile of risk scores on annotated pairs; during a
debate it is tightened geometrically each round, so answers must become
more plausible as the discussion accumulates evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .backends import ScoringBackend


@dataclass(frozen=True)
class AdaCPConfig:
    """Gate parameters.

    `initial_threshold` maps task name ("ed", "eae") to a fixed starting
    threshold; a missing or None entry means the threshold must be
    calibrated from data instead. `delta` gives the calibrated initial
    threshold 1 - delta coverage only when calibration and gate scores
    are exchangeable, and nothing for the thresholds after `beta` decays
    them.
    """

    delta: float = 0.1
    beta: float = 0.5
    initial_threshold: dict[str, float | None] = field(
        default_factory=lambda: {"ed": 1.0, "eae": 3.0}
    )

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")


def calibrate(risks: Sequence[float], delta: float) -> float:
    """Conformal quantile of the calibration risks at miscoverage `delta`.

    Returns the ceil((n+1)(1-delta))-th smallest risk (1-based); when the
    index exceeds n the threshold is +infinity (accept everything). The
    index is computed in exact rational arithmetic because a float ceil
    misrounds near integral values of (n+1)(1-delta). No risks at all
    raises `ValueError`: `dao calibrate` rejects an empty calibration set
    before it calls this.
    """
    # Imported here, not at module top: only calibration needs it, and a
    # run would otherwise pay its import memory.
    from fractions import Fraction

    if not risks:
        raise ValueError("cannot calibrate from zero risk scores")
    ordered = sorted(risks)
    n = len(ordered)
    index = math.ceil((n + 1) * (1 - Fraction(delta)))
    if index > n:
        return math.inf
    return float(ordered[index - 1])


def risk_score(scorer: ScoringBackend, input_text: str, retrieved: str, answer: str) -> float:
    """Risk of `answer` given the input plus whatever has been retrieved.

    Concatenating an empty retrieval block is an identity, so calibration
    (which has no retrieval) and in-debate scoring share one code path.
    """
    if not answer:
        raise ValueError("cannot score an empty answer")
    prompt = input_text if not retrieved else f"{input_text}\n\n{retrieved}"
    return scorer.negative_log_likelihood(prompt, answer)


def accept(risk: float, threshold: float) -> bool:
    """True iff the risk does not exceed the threshold, which may be
    +infinity (rejection is strict)."""
    return risk <= threshold


def decay_threshold(threshold: float, beta: float) -> float:
    """Tighten the threshold by the constant factor `beta`, in (0, 1]."""
    return threshold * beta
