"""Pointwise linear model and the test statistics producing a stat field.

Signals are an N x m matrix: one row per observed functional signal, one
column per product-grid point. The three shipped statistics are the squared
two-sample t (pooled variance), the one-sided trend t floored at zero, and
the squared OLS slope. All are nonnegative by construction.
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DesignSpec",
    "HypothesisSpec",
    "t_two_sample_sq",
    "t_trend_cutoff",
    "slope_sq",
    "stat_field",
    "load_signals_csv",
    "save_signals_csv",
    "load_signals_bin",
    "save_signals_bin",
]

STATISTICS = ("t_two_sample_sq", "t_trend_cutoff", "slope_sq")


@dataclass
class DesignSpec:
    """Scalar covariates and/or a two-group partition for N observations.

    ``covariates`` is N x K (no intercept column; the intercept is implicit).
    ``group_labels`` is a length-N 0/1 vector for the two-sample shortcut.
    """

    covariates: np.ndarray | None = None
    group_labels: np.ndarray | None = None

    def __post_init__(self):
        if self.covariates is not None:
            self.covariates = np.atleast_2d(np.asarray(self.covariates, dtype=float))
            if self.covariates.shape[0] == 1 and self.covariates.shape[1] > 1:
                self.covariates = self.covariates.T
        if self.group_labels is not None:
            self.group_labels = np.asarray(self.group_labels)
            _, sizes = np.unique(self.group_labels, return_counts=True)
            if len(sizes) != 2:
                raise ValueError("group_labels must define exactly two groups")
            if sizes.min() < 2:
                raise ValueError("both groups need at least two observations")

    @property
    def n_obs(self) -> int:
        if self.covariates is not None:
            return self.covariates.shape[0]
        if self.group_labels is not None:
            return len(self.group_labels)
        raise ValueError("empty design")


@dataclass
class HypothesisSpec:
    """Which statistic to evaluate pointwise (one of ``STATISTICS``)."""

    statistic: str

    def __post_init__(self):
        if self.statistic not in STATISTICS:
            raise ValueError(
                f"unknown statistic {self.statistic!r}; choose from {STATISTICS}"
            )


def _check_degenerate(numerator_zero: np.ndarray, se_zero: np.ndarray):
    bad = se_zero & ~numerator_zero
    if np.any(bad):
        raise ValueError(
            "zero residual variance with nonzero effect at grid point(s) "
            f"{np.nonzero(bad)[0].tolist()}"
        )


def t_two_sample_sq(y: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Squared pooled-variance two-sample t, columnwise.

    ``y`` is (N,) or (N, m); ``groups`` a length-N two-valued label vector.
    Zero pooled variance yields 0 when the group means agree and raises
    otherwise.
    """
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 1
    Y = y[:, None] if scalar else y
    groups = np.asarray(groups)
    labels = np.unique(groups)
    if len(labels) != 2:
        raise ValueError("two groups required")
    g1, g2 = groups == labels[0], groups == labels[1]
    n1, n2 = int(g1.sum()), int(g2.sum())
    if n1 < 2 or n2 < 2:
        raise ValueError("both groups need at least two observations")
    m1, m2 = Y[g1].mean(axis=0), Y[g2].mean(axis=0)
    v1 = Y[g1].var(axis=0, ddof=1)
    v2 = Y[g2].var(axis=0, ddof=1)
    sp2 = ((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2)
    se = np.sqrt(sp2 * (1.0 / n1 + 1.0 / n2))
    diff = m1 - m2
    zero = se == 0
    _check_degenerate(diff == 0, zero)
    t2 = np.zeros_like(diff)
    np.divide(diff, se, out=t2, where=~zero)
    t2 = t2 ** 2
    return float(t2[0]) if scalar else t2


def _slope_and_se(y: np.ndarray, t: np.ndarray):
    """Columnwise OLS slope and its standard error for y ~ 1 + t."""
    Y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    n = len(t)
    tc = t - t.mean()
    sxx = tc @ tc
    if sxx == 0:
        raise ValueError("covariate is constant")
    yc = Y - Y.mean(axis=0)
    b = tc @ yc / sxx
    rss = (yc ** 2).sum(axis=0) - b ** 2 * sxx
    rss = np.maximum(rss, 0.0)
    if n > 2:
        se = np.sqrt(rss / (n - 2) / sxx)
    else:
        se = np.full_like(np.atleast_1d(b), np.nan)
    return b, se


def t_trend_cutoff(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """One-sided positive-trend statistic max(0, slope / SE), columnwise.

    A perfect fit (zero SE) with nonpositive slope is floored to 0 like any
    other nonpositive trend; a perfect positive fit has no finite value and
    raises.
    """
    y = np.asarray(y, dtype=float)
    if len(t) < 3:
        raise ValueError("trend t statistic needs at least 3 observations")
    scalar = y.ndim == 1
    b, se = _slope_and_se(y[:, None] if scalar else y, t)
    b, se = np.atleast_1d(b), np.atleast_1d(se)
    zero = se == 0
    _check_degenerate(b <= 0, zero)
    stat = np.zeros_like(b)
    np.divide(b, se, out=stat, where=~zero)
    stat = np.maximum(stat, 0.0)
    return float(stat[0]) if scalar else stat


def slope_sq(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Squared OLS slope of y on t, columnwise."""
    y = np.asarray(y, dtype=float)
    if len(t) < 2:
        raise ValueError("slope needs at least 2 observations")
    scalar = y.ndim == 1
    Y = y[:, None] if scalar else y
    t = np.asarray(t, dtype=float)
    tc = t - t.mean()
    sxx = tc @ tc
    if sxx == 0:
        raise ValueError("covariate is constant")
    b = tc @ (Y - Y.mean(axis=0)) / sxx
    out = b ** 2
    return float(out[0]) if scalar else out


def stat_field(
    signals: np.ndarray, design: DesignSpec, hypothesis: HypothesisSpec
) -> np.ndarray:
    """Evaluate the selected statistic at every product-grid point.

    ``signals`` is N x m; the result is a nonnegative length-m vector.
    """
    Y = np.asarray(signals, dtype=float)
    if Y.ndim != 2:
        raise ValueError("signal matrix must be 2-D (observations x grid points)")
    if not np.all(np.isfinite(Y)):
        raise ValueError("signal matrix contains non-finite entries")
    if hypothesis.statistic == "t_two_sample_sq":
        if design.group_labels is None:
            raise ValueError("t_two_sample_sq requires group_labels")
        return t_two_sample_sq(Y, design.group_labels)
    if design.covariates is None or design.covariates.shape[1] != 1:
        raise ValueError(
            f"{hypothesis.statistic} requires exactly one scalar covariate"
        )
    t = design.covariates[:, 0]
    if hypothesis.statistic == "t_trend_cutoff":
        return t_trend_cutoff(Y, t)
    return slope_sq(Y, t)


# --- signal matrix I/O -------------------------------------------------------

def save_signals_csv(signals: np.ndarray, path, column_ids=None) -> None:
    """CSV with a header row of grid-point IDs and one row per observation."""
    Y = np.asarray(signals, dtype=float)
    if column_ids is None:
        column_ids = [f"g{j}" for j in range(Y.shape[1])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(column_ids)
        for row in Y:
            writer.writerow([f"{v:.17g}" for v in row])


def load_signals_csv(path) -> tuple[np.ndarray, list[str]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty signal file") from None
        try:
            rows = [[float(v) for v in row] for row in reader if row]
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    Y = np.array(rows, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != len(header):
        raise ValueError(f"{path}: ragged or empty signal matrix")
    return Y, header


def save_signals_bin(signals: np.ndarray, path) -> None:
    """Flat binary: uint64 N and m, then the row-major float64 matrix."""
    Y = np.ascontiguousarray(signals, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<QQ", Y.shape[0], Y.shape[1]))
        fh.write(Y.tobytes())


def load_signals_bin(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) < 16:
            raise ValueError(f"{path}: truncated signal file")
        n, m = struct.unpack("<QQ", head)
        size = os.fstat(fh.fileno()).st_size - 16
        if size != 8 * n * m:
            raise ValueError(f"{path}: expected {n * m} entries, found {size / 8:g}")
        data = np.fromfile(fh, dtype="<f8", count=n * m)
    return data.reshape(n, m).astype(float, copy=False)
