"""Pointwise linear model and the test statistics producing a stat field.

Signals are an N x m matrix: one row per observed functional signal, one
column per product-grid point. The three shipped statistics are the squared
two-sample t (pooled variance), the one-sided trend t floored at zero, and
the squared OLS slope. All are nonnegative by construction, and all are
statistics of the slope of each column on one centred design vector x (the
covariate, or the indicator of the first group): with u = x'y, SS the centred
sum of squares of y and RSS = SS - u^2 / x'x, the slope is u / x'x and its
squared t is (N - 2) (u^2 / x'x) / RSS. ``StatKernel`` evaluates them for a
whole chunk of permutations of the signals' rows, one product of a permuted x
with the centred signals per permutation.
"""

from __future__ import annotations

import csv
import math
import os
import struct

import numpy as np

__all__ = [
    "StatKernel",
    "check_statistic",
    "design_vector",
    "load_signals_csv",
    "save_signals_csv",
    "load_signals_bin",
    "save_signals_bin",
]

STATISTICS = ("t_two_sample_sq", "t_trend_cutoff", "slope_sq")


def check_statistic(statistic) -> str:
    """``statistic``, once it is one of ``STATISTICS``."""
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}; choose from {STATISTICS}")
    return statistic


def design_vector(statistic: str, design) -> np.ndarray:
    """The centred vector x that ``statistic`` regresses every column on, of
    the one vector ``design`` that it reads: for the two-sample t the group
    labels, two groups of two or more, whose first group's indicator is x (the
    pooled two-sample t is the t of the slope on it), otherwise the covariate,
    N numbers flat, N x 1 or 1 x N. Raises ``ValueError`` if it does not suit.
    """
    check_statistic(statistic)
    if statistic == "t_two_sample_sq":
        if design is None:
            raise ValueError("t_two_sample_sq requires group_labels")
        labels = np.asarray(design)
        groups, sizes = np.unique(labels, return_counts=True)
        if len(sizes) != 2:
            raise ValueError("group_labels must define exactly two groups")
        if sizes.min() < 2:
            raise ValueError("both groups need at least two observations")
        x = (labels == groups[0]).astype(float)
    else:
        x = np.empty((0, 0)) if design is None else np.atleast_2d(np.asarray(design, float))
        x = x.T if x.shape[0] == 1 else x
        if x.shape[1] != 1:
            raise ValueError(f"{statistic} requires exactly one scalar covariate")
        x = x[:, 0]
        if statistic == "t_trend_cutoff" and len(x) < 3:
            raise ValueError("trend t statistic needs at least 3 observations")
        if len(x) < 2:
            raise ValueError("slope needs at least 2 observations")
        if not np.all(np.isfinite(x)):
            raise ValueError("covariate contains non-finite entries")
        if x.min() == x.max():
            raise ValueError("covariate is constant")
    return x - x.mean()


class StatKernel:
    """The statistic field of permuted copies of the signals, a chunk at a time.

    ``design`` is the one vector that ``statistic`` reads, the group labels
    or the covariate (``design_vector``). The signals are centred once and
    permuted by their rows. Permuting the rows of the signals by p is the
    same as permuting the design by the inverse of p and keeping the signals
    fixed, so every statistic of a chunk comes from the product of its
    permuted design row with the fixed, centred signals, plus column moments
    that no permutation changes. A permuted design depends only on the
    grouping (or the covariate order) it makes, and each row's product is
    formed on its own, so two permutations that make the same grouping give
    bitwise equal fields in any chunks. Under the intercept-only null, the
    only one a config states, this is also Freedman-Lane's scheme: the
    intercept's fits plus the permuted residuals are the permuted signals.
    """

    def __init__(self, signals: np.ndarray, statistic: str, design):
        Y = np.asarray(signals, dtype=float)
        if Y.ndim != 2:
            raise ValueError("signal matrix must be 2-D (observations x grid points)")
        if not np.all(np.isfinite(Y)):
            raise ValueError("signal matrix contains non-finite entries")
        self.x = design_vector(statistic, design)
        if len(self.x) != Y.shape[0]:
            raise ValueError(
                f"the design has {len(self.x)} observations but the signal "
                f"matrix has {Y.shape[0]} rows"
            )
        self.statistic = statistic
        self.sxx = float(self.x @ self.x)
        # a constant column has no centred variation in exact arithmetic;
        # zeroing it keeps its statistic equal under every permutation
        self.Z = Y - Y.mean(axis=0)
        self.Z[:, Y.min(axis=0) == Y.max(axis=0)] = 0.0
        self.ss = _col_ss(self.Z)
        # by Cauchy-Schwarz every permutation's u^2 is at most x'x SS and its
        # squared slope at most SS / x'x; past float range a field would come
        # out inf or nan, which no tie floor compares with
        ss = float(self.ss.max(initial=0.0))
        if not 0 < self.sxx < math.inf or not math.isfinite(
            2 * (ss / self.sxx if statistic == "slope_sq" else ss * self.sxx)
        ):
            raise ValueError(f"{statistic} would overflow on these signals and this design; "
                             "rescale the signals or the covariate")
        # a residual sum of squares within this share of SS is a perfect fit:
        # the rounding error of the one-pass SS - u^2 / x'x grows with N (up to
        # about N eps / 2 on exactly degenerate columns), so below it the
        # residual carries no information
        self.perfect_fit_tol = 4 * len(self.x) * np.finfo(float).eps * self.ss

    @property
    def n_obs(self) -> int:
        return len(self.x)

    def fields(self, perms: np.ndarray) -> np.ndarray:
        """(B, m) statistic fields of the signals permuted by each row of the
        (B, N) ``perms``; row b is the field of ``signals[perms[b]]``."""
        inv = np.argsort(perms, axis=1)
        U = _row_products(self.x[inv], self.Z)
        if self.statistic == "slope_sq":
            U /= self.sxx
            return np.square(U, out=U)
        E = np.square(U)
        E /= self.sxx
        rss = self.ss - E
        perfect = rss <= self.perfect_fit_tol
        if perfect.any():
            effect = E > self.perfect_fit_tol
            if self.statistic == "t_trend_cutoff":
                effect &= U > 0
            bad = perfect & effect
            if bad.any():
                raise ValueError(
                    "zero residual variance with nonzero effect at grid point(s) "
                    f"{np.unique(np.nonzero(bad)[-1]).tolist()}"
                )
            rss[perfect] = np.inf  # no effect, or a floored trend: 0
        if self.statistic == "t_two_sample_sq":
            E /= rss
            E *= self.n_obs - 2
            return E
        # slope / SE = u / sqrt(RSS x'x / (N - 2)), floored at 0
        rss *= self.sxx / (self.n_obs - 2)
        U /= np.sqrt(rss, out=rss)
        return np.maximum(U, 0.0, out=U)


def _row_products(A: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """``A @ Z``, one row at a time: BLAS rounds a one-row product and a
    many-row one differently, so this keeps a row's bits the same in every
    chunk, the observed field's one-row chunk included."""
    out = np.empty((len(A), Z.shape[1]))
    for a, row in zip(A, out):
        np.dot(a, Z, out=row)
    return out


def _col_ss(A: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", A, A)


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
