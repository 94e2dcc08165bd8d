"""Confusion-matrix math: normalization, differences, top-4 overlap, correlation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from emgadapt.analysis import (
    ConfusionMatrix,
    confusion,
    confusion_diff,
    pearson,
    recognition_correlation,
    similarity_cell,
    top4_sets,
    top4_similarity,
)


def test_confusion_counts_match_a_hand_tally():
    rng = np.random.default_rng(0)
    g = 5
    pred = rng.integers(0, g, size=200)
    true = rng.integers(0, g, size=200)
    cm = confusion(pred, true, g)
    want = np.zeros((g, g), dtype=int)
    for p, t in zip(pred, true):
        want[p, t] += 1
    assert np.array_equal(cm.counts, want)
    # column sums equal the per-class test counts
    assert np.array_equal(cm.counts.sum(axis=0), np.bincount(true, minlength=g))


def test_perfect_predictions_normalize_to_identity():
    true = np.repeat(np.arange(4), 5)
    cm = confusion(true, true, 4)
    assert_allclose(cm.normalized(), np.eye(4))
    assert_allclose(cm.recognition(), 1.0)


def test_constant_predictor_fills_one_row():
    true = np.repeat(np.arange(3), 4)
    cm = confusion(np.zeros_like(true), true, 3)
    norm = cm.normalized()
    assert_allclose(norm[0], 1.0)
    assert_allclose(norm[1:], 0.0)


def test_empty_true_class_column_is_zero():
    cm = confusion(np.array([0, 1]), np.array([0, 1]), 3)
    assert_allclose(cm.normalized()[:, 2], 0.0)


def test_confusion_label_range_errors():
    with pytest.raises(ValueError):
        confusion(np.array([0, 5]), np.array([0, 1]), 3)
    with pytest.raises(ValueError):
        confusion(np.array([0, -1]), np.array([0, 1]), 3)


def test_diff_zero_for_equal_and_bounded():
    rng = np.random.default_rng(2)
    a = ConfusionMatrix(rng.integers(0, 30, size=(6, 6)))
    b = ConfusionMatrix(rng.integers(0, 30, size=(6, 6)))
    assert_allclose(confusion_diff(a, a), 0.0)
    d = confusion_diff(a, b)
    assert np.all(d >= -1.0) and np.all(d <= 1.0)
    with pytest.raises(ValueError):
        confusion_diff(a, ConfusionMatrix(np.zeros((4, 4), dtype=int)))


def test_top4_sets_take_largest_with_ties_to_smaller_id():
    counts = np.zeros((5, 5), dtype=int)
    counts[:, 0] = [10, 10, 10, 10, 10]  # full tie: ids 0-3 win
    counts[:, 1] = [0, 1, 2, 3, 4]
    counts[:, 2] = [9, 0, 8, 7, 6]
    m = ConfusionMatrix(counts)
    sets = top4_sets(m)
    assert sets[0] == (0, 1, 2, 3)
    assert sets[1] == (1, 2, 3, 4)
    assert sets[2] == (0, 2, 3, 4)
    with pytest.raises(ValueError):
        top4_sets(ConfusionMatrix(np.eye(3, dtype=int)))


def test_top4_similarity_hand_built_overlap():
    # note: with fewer than 6 classes two top-4 sets always share >= 3 ids
    # (4 + 4 - 5 = 3), so a non-trivial fraction needs a larger matrix
    g = 8
    a = np.zeros((g, g), dtype=int)
    b = np.zeros((g, g), dtype=int)
    a[0:4, :] = 5            # every a column: top-4 = {0, 1, 2, 3}
    b[1:5, 0:2] = 5          # columns 0, 1: {1, 2, 3, 4} -> overlap 3
    b[4:8, 2:] = 5           # columns 2..7: {4, 5, 6, 7} -> overlap 0
    frac, matching = top4_similarity(ConfusionMatrix(a), ConfusionMatrix(b))
    assert matching == [0, 1]
    assert frac == pytest.approx(0.25)


def test_top4_similarity_enumeration_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = int(rng.integers(4, 9))
        a = ConfusionMatrix(rng.integers(0, 40, size=(g, g)))
        b = ConfusionMatrix(rng.integers(0, 40, size=(g, g)))
        frac, matching = top4_similarity(a, b)
        sa, sb = top4_sets(a), top4_sets(b)
        want = [c for c in range(g) if len(set(sa[c]) & set(sb[c])) >= 3]
        assert matching == want
        assert frac == pytest.approx(len(want) / g)


def test_top4_similarity_extremes():
    g = 8
    ident = np.zeros((g, g), dtype=int)
    for c in range(g):
        ident[c, c] = 10
        ident[(c + 1) % g, c] = 3
        ident[(c + 2) % g, c] = 2
        ident[(c + 3) % g, c] = 1
    m = ConfusionMatrix(ident)
    assert top4_similarity(m, m)[0] == 1.0
    # shift every top-4 set by 4 classes: zero overlap
    rolled = ConfusionMatrix(np.roll(ident, 4, axis=0))
    assert top4_similarity(m, rolled)[0] == 0.0


def test_similarity_cell_format():
    assert similarity_cell(13, 18) == "72% (13/18)"
    assert similarity_cell(1, 8) == "13% (1/8)"   # 12.5 rounds half-up
    assert similarity_cell(0, 5) == "0% (0/5)"
    assert similarity_cell(5, 5) == "100% (5/5)"


def test_pearson_textbook_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        u = rng.normal(size=12)
        v = rng.normal(size=12)
        want = np.corrcoef(u, v)[0, 1]
        assert pearson(u, v) == pytest.approx(want, abs=1e-12)


def test_pearson_extremes():
    v = np.array([0.2, 0.5, 0.9, 0.1])
    assert pearson(v, 1.0 - v) == pytest.approx(-1.0, abs=1e-12)
    assert pearson(v, v) == pytest.approx(1.0, abs=1e-12)
    assert np.isnan(pearson(v, np.full(4, 0.3)))


def test_recognition_correlation_identical_runs():
    rng = np.random.default_rng(9)
    counts = rng.integers(1, 20, size=(5, 5))
    runs = {"a": ConfusionMatrix(counts), "b": ConfusionMatrix(counts.copy())}
    keys, corr = recognition_correlation(runs)
    assert keys == ["a", "b"]
    assert_allclose(corr, 1.0, atol=1e-12)


def test_recognition_correlation_mixed_sizes_error():
    runs = {
        "a": ConfusionMatrix(np.eye(4, dtype=int)),
        "b": ConfusionMatrix(np.eye(5, dtype=int)),
    }
    with pytest.raises(ValueError):
        recognition_correlation(runs)


def test_confusion_matrix_validation():
    with pytest.raises(ValueError):
        ConfusionMatrix(np.zeros((3, 4), dtype=int))
    with pytest.raises(ValueError):
        ConfusionMatrix(np.array([[1, -1], [0, 2]]))
