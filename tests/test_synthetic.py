import itertools

import numpy as np
import pytest

from dao.corpus import EmbeddedIndex
from dao.drag import cluster_candidates
from synthetic import InvalidSpec, SyntheticSpec, gen_clustered_points, gen_risks


def test_gen_risks_seeded_reproducible():
    spec = SyntheticSpec(seed=42, n_calib=50, n_test=5)
    assert gen_risks(spec) == gen_risks(spec)


def test_gen_risks_sizes():
    calib, test = gen_risks(SyntheticSpec(seed=1, n_calib=99, n_test=1))
    assert len(calib) == 99 and len(test) == 1
    assert all(r > 0 for r in calib + test)


def test_degenerate_spread_gives_full_coverage():
    spec = SyntheticSpec(seed=3, n_calib=20, n_test=5, risk_log_sigma=0.0)
    calib, test = gen_risks(spec)
    assert len(set(calib)) == 1
    from dao.adacp import accept, calibrate

    threshold = calibrate(calib, 0.1)
    assert threshold == calib[0]
    assert all(accept(r, threshold) for r in test)


def test_resplit_exchangeability_preserves_coverage():
    # For a fixed pool of 100 distinct draws, a uniformly random re-split
    # into 99 calibration + 1 test covers with probability exactly 90/100.
    calib, test = gen_risks(SyntheticSpec(seed=9, n_calib=99, n_test=1))
    pool = np.array(calib + test)
    rng = np.random.default_rng(123)
    resamples = 10_000
    tiled = np.tile(pool, (resamples, 1))
    shuffled = rng.permuted(tiled, axis=1)
    thresholds = np.partition(shuffled[:, :99], 89, axis=1)[:, 89]
    coverage = float(np.mean(shuffled[:, 99] <= thresholds))
    assert abs(coverage - 0.9) < 0.02


def _points_to_candidates(points):
    from dao.corpus import ReferenceEntry, Sentence

    entries = []
    for i, point in enumerate(points):
        entry = ReferenceEntry(
            sentence=Sentence.from_text(f"p{i:03d}", f"point {i:03d} ."),
            events=(),
            split="train",
        )
        entries.append(entry)
    return EmbeddedIndex(tuple(entries), np.vstack(points))


def _recovered_partition(points, radius):
    candidates = _points_to_candidates(points)
    clusters = cluster_candidates(candidates, radius)
    assignment = {}
    for label, cluster in enumerate(clusters):
        for member in cluster:
            assignment[candidates.entries[member].sentence.id] = label
    return [assignment[f"p{i:03d}"] for i in range(len(points))], len(clusters)


def test_planted_partition_recovered():
    spec = SyntheticSpec(seed=5, n_points=30, n_planted_clusters=3, intra_spread=0.1, inter_separation=0.9)
    points, labels = gen_clustered_points(spec)
    recovered, n_clusters = _recovered_partition(points, 0.4)
    assert n_clusters == 3
    # Same partition up to relabeling.
    mapping = {}
    for found, planted in zip(recovered, labels):
        assert mapping.setdefault(found, planted) == planted


def test_construction_guarantees():
    spec = SyntheticSpec(seed=8, n_points=24, n_planted_clusters=4, intra_spread=0.1, inter_separation=0.8, dimension=16)
    points, labels = gen_clustered_points(spec)
    for vec in points:
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-9
    for (i, a), (j, b) in itertools.combinations(enumerate(points), 2):
        distance = 1.0 - a @ b
        if labels[i] == labels[j]:
            assert distance <= spec.intra_spread + 1e-9
        else:
            assert distance >= spec.inter_separation - 1e-9


def test_radius_above_everything_gives_one_cluster():
    spec = SyntheticSpec(seed=5, n_points=18, n_planted_clusters=3)
    points, _ = gen_clustered_points(spec)
    _, n_clusters = _recovered_partition(points, 2.0)
    assert n_clusters == 1


def test_radius_below_min_pairwise_gives_singletons():
    spec = SyntheticSpec(seed=5, n_points=15, n_planted_clusters=3, intra_spread=0.1)
    points, _ = gen_clustered_points(spec)
    min_pairwise = min(
        1.0 - a @ b for a, b in itertools.combinations(points, 2)
    )
    assert min_pairwise > 0.0  # seeded points are generically distinct
    radius = min(min_pairwise, spec.intra_spread) * 0.5
    _, n_clusters = _recovered_partition(points, radius)
    assert n_clusters == len(points)


def test_seeded_points_reproducible():
    spec = SyntheticSpec(seed=31)
    points_a, labels_a = gen_clustered_points(spec)
    points_b, labels_b = gen_clustered_points(spec)
    assert labels_a == labels_b
    assert all(np.array_equal(a, b) for a, b in zip(points_a, points_b))


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        gen_clustered_points(SyntheticSpec(inter_separation=0.15, intra_spread=0.1))
    with pytest.raises(InvalidSpec):
        gen_clustered_points(SyntheticSpec(n_planted_clusters=20, dimension=16))
    with pytest.raises(InvalidSpec):
        gen_clustered_points(SyntheticSpec(n_points=2, n_planted_clusters=3))
