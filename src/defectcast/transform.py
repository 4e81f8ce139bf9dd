"""Variable transforms: logs, complexity-adjustment factor, QQ checks, ranks.

The complexity adjustment factor condenses 14 system-characteristic ratings
(integers 0..5) into a single multiplier: 0.65 + 0.01 * sum of ratings,
ranging from 0.65 (all zeros) to 1.35 (all fives).  It is computed here as
(65 + sum) / 100 so both endpoints are the correctly rounded doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.special import ndtri as _ndtri

from ._errors import DataError
from .dataset import Dataset

GSC_COUNT = 14
GSC_MIN_RATING = 0
GSC_MAX_RATING = 5
VAF_MIN = 0.65
VAF_MAX = 1.35

__all__ = [
    "GscVector",
    "QQResult",
    "ln_transform",
    "compute_vaf",
    "qq_normal",
    "rank_average",
    "apply_schema_transforms",
]


@dataclass(frozen=True)
class GscVector:
    """14 general system characteristic ratings, each an integer in 0..5."""

    ratings: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ratings", tuple(int(r) for r in self.ratings))
        if len(self.ratings) != GSC_COUNT:
            raise DataError(f"expected {GSC_COUNT} ratings, got {len(self.ratings)}")
        for i, r in enumerate(self.ratings):
            if not GSC_MIN_RATING <= r <= GSC_MAX_RATING:
                raise DataError(f"rating {i} out of range 0..5: {r}")


def compute_vaf(gsc: GscVector | Sequence[int]) -> float:
    """Adjustment factor 0.65 + 0.01 * sum(ratings), exact at both endpoints."""
    if not isinstance(gsc, GscVector):
        gsc = GscVector(tuple(gsc))
    return (65 + sum(gsc.ratings)) / 100.0


def ln_transform(values, mode: str = "ln") -> np.ndarray:
    """Elementwise natural log (``ln``) or log1p (``ln1p``).

    NaN marks a missing entry and passes through.  An infinite value, or
    one outside the transform's domain, raises DataError naming the first
    offending row.
    """
    if mode not in ("ln", "ln1p"):
        raise DataError(f"unknown transform mode {mode!r}")
    vals = np.asarray(values, dtype=float)
    present = ~np.isnan(vals)
    bad = np.isinf(vals)
    if bad.any():
        raise DataError(f"non-finite value at row {int(np.flatnonzero(bad)[0])}")
    if mode == "ln":
        domain_bad = present & (vals <= 0.0)
        if domain_bad.any():
            row = int(np.flatnonzero(domain_bad)[0])
            raise DataError(f"ln of nonpositive value {vals[row]} at row {row}")
    else:
        domain_bad = present & (vals <= -1.0)
        if domain_bad.any():
            row = int(np.flatnonzero(domain_bad)[0])
            raise DataError(f"ln1p of value {vals[row]} <= -1 at row {row}")
    out = np.full(vals.shape, np.nan)
    out[present] = np.log(vals[present]) if mode == "ln" else np.log1p(vals[present])
    return out


def apply_schema_transforms(ds: Dataset) -> tuple[Dataset, dict[str, str]]:
    """Apply each numeric variable's declared transform.

    Returns the transformed dataset (its schema shows ``transform='none'``
    so a second pass is a no-op) together with {variable: mode} for what was
    applied.
    """
    applied: dict[str, str] = {}
    columns = dict(ds.columns)
    new_schema = []
    for spec in ds.schema:
        if spec.kind == "numeric" and spec.transform != "none":
            columns[spec.name] = ln_transform(ds.columns[spec.name], spec.transform)
            applied[spec.name] = spec.transform
            new_schema.append(replace(spec, transform="none"))
        else:
            new_schema.append(spec)
    return Dataset(new_schema, columns), applied


@dataclass(frozen=True)
class QQResult:
    """Normal QQ pairs and their Pearson correlation (a straightness score)."""

    theoretical: np.ndarray
    ordered: np.ndarray
    correlation: float
    n: int


def qq_normal(values) -> QQResult:
    """Normal QQ plot data using Blom plotting positions (i - 0.375)/(n + 0.25).

    NaN (missing) and infinite values are dropped first.
    """
    vals = np.asarray(values, dtype=float)
    vals = vals[np.isfinite(vals)]
    n = vals.size
    if n < 3:
        raise DataError(f"QQ check needs at least 3 non-missing values, got {n}")
    ordered = np.sort(vals)
    positions = (np.arange(1, n + 1) - 0.375) / (n + 0.25)
    # Blom positions lie strictly inside (0, 1), so every quantile is finite
    theoretical = _ndtri(positions)
    sd_o = ordered.std()
    if sd_o == 0.0:
        raise DataError("QQ check undefined for a constant sample")
    corr = float(np.corrcoef(theoretical, ordered)[0, 1])
    return QQResult(theoretical=theoretical, ordered=ordered, correlation=corr, n=n)


def rank_average(values) -> np.ndarray:
    """1-based ranks with ties receiving the average of their positions."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1:
        raise DataError("rank_average expects a 1-d array")
    if not np.all(np.isfinite(vals)):
        raise DataError("rank_average got missing or non-finite values")
    order = np.argsort(vals, kind="stable")
    ordered = vals[order]
    # each run of equal values covers sorted positions starts..ends-1
    # (0-based), which share the average rank
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], vals.size]
    ranks = np.empty(vals.size, dtype=float)
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    return ranks
