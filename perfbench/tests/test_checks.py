"""Each output check rejects a wrong answer."""

import numpy as np
import pytest

from perfbench.checks import (
    ResponseChecker,
    expected_for,
    percentiles_of,
    sigma_error,
    top_ids,
)


@pytest.fixture()
def expected():
    rng = np.random.default_rng(3)
    sigma = rng.pareto(1.5, 500) + 1.0
    sigma[:50] = 1.0  # ties
    return expected_for(sigma, 100)


def _checker(expected, versions=(1, 2)):
    return ResponseChecker(lambda v: expected if v in versions else None)


def test_correct_responses_pass(expected):
    checker = _checker(expected)
    ids = [0, 7, 499]
    assert checker.check({"op": "score", "ids": ids}, {"ok": True, "version": 1, "values": expected.sigma[ids].tolist()}) is None
    assert checker.check({"op": "percentile", "id": 7}, {"ok": True, "version": 1, "value": float(expected.percentiles[7])}) is None
    assert checker.check({"op": "top_k", "k": 10}, {"ok": True, "version": 2, "ids": expected.top[:10].tolist()}) is None


def test_perturbed_value_is_rejected(expected):
    checker = _checker(expected)
    values = expected.sigma[[1, 2, 3]].copy()
    values[1] *= 1 + 1e-7
    assert checker.check({"op": "score", "ids": [1, 2, 3]}, {"ok": True, "version": 1, "values": values.tolist()}) == "value"
    pct = float(expected.percentiles[4]) + 1e-6
    assert checker.check({"op": "percentile", "id": 4}, {"ok": True, "version": 1, "value": pct}) == "value"


def test_wrong_top_k_order_is_rejected(expected):
    checker = _checker(expected)
    ids = expected.top[:10].tolist()
    ids[3], ids[4] = ids[4], ids[3]
    assert checker.check({"op": "top_k", "k": 10}, {"ok": True, "version": 1, "ids": ids}) == "order"


def test_stale_and_unknown_versions_are_rejected(expected):
    checker = _checker(expected)
    good = {"ok": True, "values": expected.sigma[[5]].tolist()}
    assert checker.check({"op": "score", "ids": [5]}, {**good, "version": 1}, min_version=2) == "stale_version"
    assert checker.check({"op": "score", "ids": [5]}, {**good, "version": 9}) == "unknown_version"
    assert checker.check({"op": "score", "ids": [5]}, {"ok": False, "error": "ServingError"}) == "error"


def test_sigma_error_sees_a_perturbation():
    sigma = np.full(10, 0.1)
    assert sigma_error(sigma, sigma) == 0.0
    bent = sigma.copy()
    bent[3] += 2e-9
    assert sigma_error(bent, sigma) > 1e-9
    assert sigma_error(sigma[:5], sigma) == float("inf")


def test_expected_tables_follow_their_definitions():
    scores = np.array([0.1, 0.4, 0.1, 0.4])
    # Ties: ids 1 and 3 share the top score, lower id first.
    assert top_ids(scores, 4).tolist() == [1, 3, 0, 2]
    # Worst pair: 0 strictly worse + half of 1 tie, over n - 1 = 3.
    assert percentiles_of(scores).tolist() == pytest.approx([100 * 0.5 / 3, 100 * 2.5 / 3, 100 * 0.5 / 3, 100 * 2.5 / 3])
