"""Metric contracts; the brute-force AUC and AP oracles are rows of
``gazecast.checks.ORACLE_CASES``."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazecast import metrics as M
from gazecast.errors import DomainError


def dump(in_frame, auc=None, min_dist=None, avg_dist=None, inout=None):
    """A per-sample record holding the fields ``aggregate`` reads."""
    return M.SampleDump(sample_id=0, in_frame=int(in_frame), p_gaze=(0.5, 0.5),
                        min_dist=min_dist, avg_dist=avg_dist, auc=auc, weights={},
                        inout=inout)


def test_auc_perfect_prediction():
    pts = [(0.5, 0.5)]
    mask = M.binarize_gt(pts, 64, 64, 9.0)
    assert M.auc_score(mask.astype(float), pts, radius=9.0) == 1.0


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(2)
    img = rng.random((32, 32))
    pts = [(0.3, 0.6)]
    a = M.auc_score(img, pts, radius=9.0)
    b = M.auc_score(np.exp(3.0 * img) + 7.0, pts, radius=9.0)
    assert a == pytest.approx(b, abs=1e-12)


def test_auc_degenerate_mask_excluded_with_warning():
    img = np.random.default_rng(3).random((4, 4))
    with pytest.warns(UserWarning, match="single-class"):
        assert M.auc_score(img, [(0.5, 0.5)], radius=50.0) is None


def _stable_roc_auc(scores, labels):
    """The ROC sweep with a stable sort, as a reference."""
    order = np.argsort(-scores, kind="stable")
    s, lab = scores[order], labels[order]
    last = np.append(s[1:] != s[:-1], True)
    tpr = np.concatenate(([0.0], np.cumsum(lab)[last] / lab.sum()))
    fpr = np.concatenate(([0.0], np.cumsum(~lab)[last] / (~lab).sum()))
    return float(np.trapezoid(tpr, fpr))


@pytest.mark.parametrize("levels", [2, 5, 40, None], ids=["2", "5", "40", "untied"])
def test_roc_auc_on_tied_scores_equals_stable_sort(levels):
    """The ROC points sit at the end of each tie group, so the unstable
    sort gives the stable sort's area exactly."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        scores = rng.random(64 * 64)
        if levels is not None:
            scores = np.floor(scores * levels) / levels
        labels = rng.random(64 * 64) < 0.1
        assert M.roc_auc(scores, labels) == _stable_roc_auc(scores, labels)


def test_distance_scores_basic():
    assert M.distance_scores((0.2, 0.4), [(0.2, 0.4)]) == (0.0, 0.0)
    mn, av = M.distance_scores((0.0, 0.0), [(1.0, 1.0)])
    assert mn == pytest.approx(math.sqrt(2.0))
    assert av == pytest.approx(math.sqrt(2.0))
    mn2, av2 = M.distance_scores((0.0, 0.0), [(0.0, 0.0), (1.0, 0.0)])
    assert (mn2, av2) == (0.0, 0.5)
    with pytest.raises(DomainError):
        M.distance_scores((0.5, 0.5), [])


def test_distance_symmetry():
    rng = np.random.default_rng(4)
    p, q = rng.random(2), rng.random(2)
    a = M.distance_scores(tuple(p), [tuple(q)])
    b = M.distance_scores(tuple(q), [tuple(p)])
    assert a == b


def test_average_precision_basic():
    assert M.average_precision([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0
    n = 5
    scores = [float(n - i) for i in range(n)]
    labels = [0, 0, 0, 0, 1]
    assert M.average_precision(scores, labels) == pytest.approx(1.0 / n)
    with pytest.raises(DomainError):
        M.average_precision([0.5], [0])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(0.01, 0.99), st.integers(0, 1)), min_size=2, max_size=15))
def test_ap_invariant_appending_zero_score_negative(pairs):
    scores = [s for s, _ in pairs]
    labels = [l for _, l in pairs]
    if sum(labels) == 0:
        labels[0] = 1
    a = M.average_precision(scores, labels)
    b = M.average_precision(scores + [0.0], labels + [0])
    assert a == pytest.approx(b, abs=1e-12)


def test_aggregate_single_sample_and_duplicates():
    s = dump(in_frame=True, auc=0.9, min_dist=0.1, avg_dist=0.2, inout=0.8)
    r1 = M.aggregate([s], 9.0)
    assert (r1.auc, r1.min_dist, r1.avg_dist) == (0.9, 0.1, 0.2)
    r2 = M.aggregate([s, s, s], 9.0)
    assert r2.auc == pytest.approx(0.9)
    assert r2.min_dist == pytest.approx(0.1)
    assert r2.avg_dist == pytest.approx(0.2)
    assert r2.n_samples == 3


def test_aggregate_min_leq_avg():
    rng = np.random.default_rng(6)
    samples = []
    for _ in range(20):
        d = np.sort(rng.random(3))
        samples.append(
            dump(in_frame=True, auc=0.5, min_dist=float(d[0]), avg_dist=float(d.mean()))
        )
    rep = M.aggregate(samples, 9.0)
    assert rep.min_dist <= rep.avg_dist


def test_aggregate_out_of_frame_contract():
    outs = [dump(in_frame=False, inout=0.3),
            dump(in_frame=False, inout=0.9)]
    with pytest.raises(DomainError):
        M.aggregate(outs, 9.0)
    # AP itself is still computable across the same set
    assert M.average_precision([0.3, 0.9, 0.7], [0, 0, 1]) > 0.0


@pytest.mark.parametrize("per_sample", [[], [dump(in_frame=True, min_dist=0.1, avg_dist=0.1)]],
                         ids=["empty", "every-auc-excluded"])
def test_aggregate_without_a_scored_sample_is_domain_error(per_sample):
    with pytest.raises(DomainError, match="no in-frame samples|excluded from AUC"):
        M.aggregate(per_sample, 9.0)


def test_aggregate_ap_over_all_samples():
    samples = [
        dump(in_frame=True, auc=0.8, min_dist=0.1, avg_dist=0.1, inout=0.9),
        dump(in_frame=False, inout=0.2),
        dump(in_frame=True, auc=0.6, min_dist=0.3, avg_dist=0.4, inout=0.7),
    ]
    rep = M.aggregate(samples, 9.0)
    assert rep.ap == M.average_precision([0.9, 0.2, 0.7], [1, 0, 1])
    assert rep.n_samples == 3
    # distances averaged over in-frame only
    assert rep.avg_dist == pytest.approx(0.25)


def test_report_json_fields():
    rep = M.MetricsReport(auc=0.9, avg_dist=0.1, min_dist=0.05, ap=None, n_samples=7,
                          config_hash="abc", binarization_radius=9.0)
    data = json.loads(rep.to_json())
    assert data["auc"] == 0.9 and data["ap"] is None and data["config_hash"] == "abc"


def test_record_json_key_order():
    """The report and dump schemas are their dataclass fields, in order."""
    rep = M.MetricsReport(auc=0.9, avg_dist=0.1, min_dist=0.05, ap=0.5, n_samples=7,
                          config_hash="abc", binarization_radius=9.0,
                          attention_means={"raw": 1.0})
    assert list(json.loads(rep.to_json())) == [
        "auc", "avg_dist", "min_dist", "ap", "n_samples", "config_hash",
        "binarization_radius", "ap_interpolation", "attention_means"]
    line = M.SampleDump(sample_id=3, in_frame=1, p_gaze=(0.25, 0.75), min_dist=0.1,
                        avg_dist=0.2, auc=0.9, weights={"raw": 1.0}, inout=0.8,
                        config_hash="abc").to_json()
    assert "\n" not in line
    data = json.loads(line)
    assert list(data) == ["sample_id", "in_frame", "p_gaze", "min_dist", "avg_dist", "auc",
                          "weights", "inout", "config_hash"]
    assert data["p_gaze"] == [0.25, 0.75]
