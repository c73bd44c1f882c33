"""Output checks: every measured operation is verified outside its timing.

The expected values are computed here, independently of the program's
read path: percentiles from their definition (items strictly worse plus
half the ties, over ``n - 1``) and the top-k order by ``(-score, id)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Scores and percentiles must match to this relative tolerance.
VALUE_RTOL = 1e-9
#: A solved σ must match its reference to this max-abs difference.
SIGMA_ATOL = 1e-9


@dataclass(frozen=True)
class Expected:
    """What a correct replica serves for one σ."""

    sigma: np.ndarray
    percentiles: np.ndarray
    top: np.ndarray


def percentiles_of(scores: np.ndarray) -> np.ndarray:
    """Percentile per item, 100 = best, ties averaged."""
    n = scores.size
    ordered = np.sort(scores)
    lo = np.searchsorted(ordered, scores, side="left")
    hi = np.searchsorted(ordered, scores, side="right")
    return 100.0 * (lo + 0.5 * (hi - lo - 1)) / max(n - 1, 1)


def top_ids(scores: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` best ids, higher score first, ties broken by lower id."""
    ids = np.arange(scores.size)
    return np.lexsort((ids, -scores))[:k].astype(np.int64)


def expected_for(sigma: np.ndarray, k: int) -> Expected:
    scores = np.asarray(sigma, dtype=np.float64)
    scores = scores / scores.sum()
    return Expected(scores, percentiles_of(scores), top_ids(scores, k))


def values_match(got, expected: np.ndarray) -> bool:
    got = np.asarray(got, dtype=np.float64)
    if got.shape != expected.shape:
        return False
    return bool(np.all(np.abs(got - expected) <= VALUE_RTOL * np.abs(expected) + 1e-300))


def sigma_error(sigma: np.ndarray, reference: np.ndarray) -> float:
    """Max-abs difference between two σ vectors (inf on a shape mismatch)."""
    sigma = np.asarray(sigma, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if sigma.shape != reference.shape or not np.all(np.isfinite(sigma)):
        return float("inf")
    return float(np.max(np.abs(sigma - reference)))


class ResponseChecker:
    """Checks read responses against the σ of the version each one names.

    ``expected_of(version)`` returns the :class:`Expected` of a published
    version, or ``None`` for a version that was never published.  A
    response from a version below the caller's ``min_version`` is stale.
    """

    def __init__(self, expected_of: Callable[[int], Expected | None]) -> None:
        self._expected_of = expected_of

    def check(self, request: dict, response: dict, *, min_version: int = 0) -> str | None:
        """``None`` when the response is correct, else the reason it is not."""
        if not isinstance(response, dict) or not response.get("ok"):
            return "error"
        version = response.get("version")
        if not isinstance(version, int):
            return "no_version"
        expected = self._expected_of(version)
        if expected is None:
            return "unknown_version"
        if version < min_version:
            return "stale_version"
        op = request["op"]
        if op == "top_k":
            k = int(request["k"])
            got = np.asarray(response.get("ids", ()), dtype=np.int64)
            return None if np.array_equal(got, expected.top[:k]) else "order"
        table = expected.sigma if op == "score" else expected.percentiles
        ids = np.asarray([request["id"]] if "id" in request else request["ids"], dtype=np.int64)
        # The door answers a single-id read with "value"; a replica always with "values".
        got = [response["value"]] if "value" in response else response.get("values", ())
        return None if values_match(got, table[ids]) else "value"
