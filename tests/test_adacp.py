import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import helpers
from dao.adacp import (
    AdaCPConfig,
    accept,
    calibrate,
    decay_threshold,
    risk_score,
)
from dao.backends import KeyedScorer


# -- calibrate


def test_calibrate_nine_risks():
    risks = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    assert calibrate(risks, 0.1) == 0.9


def test_calibrate_small_n_gives_infinity():
    assert calibrate([0.1, 0.2, 0.3, 0.4], 0.1) == math.inf


def test_calibrate_singleton():
    assert calibrate([0.42], 0.5) == 0.42


def test_calibrate_empty_rejected():
    with pytest.raises(ValueError, match="zero risk scores"):
        calibrate([], 0.1)


def test_calibrate_oracle_on_all_subsets_of_pool():
    pool = [0.12, 0.37, 0.41, 0.55, 0.68, 0.74, 0.83, 0.96]
    for size in range(1, len(pool) + 1):
        for subset in itertools.combinations(pool, size):
            for delta in (0.05, 0.1, 0.2):
                assert calibrate(list(subset), delta) == helpers.oracle_quantile(subset, delta)


@given(
    st.lists(st.floats(min_value=0.0, max_value=50.0, allow_nan=False), min_size=1, max_size=200),
    st.sampled_from([0.05, 0.1, 0.2, 0.5]),
)
def test_calibrate_matches_oracle(risks, delta):
    assert calibrate(risks, delta) == helpers.oracle_quantile(risks, delta)


def test_coverage_on_lognormal_draws():
    rng = np.random.default_rng(7)
    covered = 0
    trials = 2000
    for _ in range(trials):
        draws = rng.lognormal(0.0, 1.0, 100)
        threshold = calibrate(list(draws[:99]), 0.1)
        covered += accept(float(draws[99]), threshold)
    assert covered / trials >= 0.88


# -- risk_score


def test_retrieved_block_changes_prompt():
    # The scorer receives the context exactly as given, a retrieval block
    # in it included: `risk_score` joins nothing.
    calls = []

    class Spy:
        def negative_log_likelihood(self, prompt, completion):
            calls.append((prompt, completion))
            return 0.0

    risk_score(Spy(), "input\n\nretrieved block", "answer")
    assert calls == [("input\n\nretrieved block", "answer")]


def test_keyed_ordering():
    scorer = KeyedScorer(keys=[("*", '["Conflict:Attack", "war"]')])
    risk_a = risk_score(scorer, "p", '["Conflict:Attack", "war"]')
    risk_b = risk_score(scorer, "p", '["Conflict:Attack", "raid"]')
    assert risk_a < risk_b


def test_risk_score_deterministic():
    scorer = KeyedScorer(keys=[("*", "x")])
    assert risk_score(scorer, "p\n\nr", "x y") == risk_score(scorer, "p\n\nr", "x y")


def test_risk_score_rejects_empty_answer():
    with pytest.raises(ValueError):
        risk_score(KeyedScorer(), "p", "")


# -- accept


def test_boundary_risk_accepted():
    assert accept(0.5, 0.5)


def test_above_threshold_rejected():
    assert not accept(0.6, 0.5)


def test_infinite_threshold_accepts_everything():
    assert accept(1e12, math.inf)


# -- decay_threshold


def test_decay_ed_default():
    assert decay_threshold(1.0, 0.5) == 0.5


def test_decay_eae_default():
    assert decay_threshold(3.0, 0.5) == 1.5


def test_decay_identity_keeps_value():
    assert decay_threshold(0.7, 1.0) == 0.7


def test_decay_keeps_infinity():
    assert decay_threshold(math.inf, 0.5) == math.inf


def test_threshold_sequence_exact_for_halving():
    threshold = 1.0
    for t in range(1, 11):
        threshold = decay_threshold(threshold, 0.5)
        assert threshold == 1.0 * 0.5**t


@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=1, max_size=50),
    st.floats(min_value=0.1, max_value=1.0),
    st.floats(min_value=0.01, max_value=5.0),
)
def test_accepted_sets_shrink_as_threshold_decays(risks, beta, start):
    before = start
    after = decay_threshold(before, beta)
    accepted_before = {i for i, r in enumerate(risks) if accept(r, before)}
    accepted_after = {i for i, r in enumerate(risks) if accept(r, after)}
    assert accepted_after <= accepted_before


# -- config plumbing


def test_adacp_config_validation():
    with pytest.raises(ValueError):
        AdaCPConfig(delta=0.0)
    with pytest.raises(ValueError):
        AdaCPConfig(beta=0.0)
    assert AdaCPConfig().initial_threshold == {"ed": 1.0, "eae": 3.0}
