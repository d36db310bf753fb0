"""Pointwise linear model and the test statistics producing a stat field.

Signals are an N x m matrix: one row per observed functional signal, one
column per product-grid point. The three shipped statistics are the squared
two-sample t (pooled variance), the one-sided trend t floored at zero, and
the squared OLS slope. All are nonnegative by construction, and all are
statistics of the slope of each column on one centred design vector x (the
covariate, or the indicator of the first group): with u = x'y, SS the centred
sum of squares of y and RSS = SS - u^2 / x'x, the slope is u / x'x and its
squared t is (N - 2) (u^2 / x'x) / RSS. ``StatKernel`` evaluates them for a
whole chunk of permutations, one product of a permuted x with the signals per
permutation.
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "DesignSpec",
    "HypothesisSpec",
    "StatKernel",
    "design_vector",
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


def design_vector(design: DesignSpec, hypothesis: HypothesisSpec) -> np.ndarray:
    """The centred vector x that the statistic regresses every column on.

    Raises ``ValueError`` when the design does not suit the statistic. For the
    covariate statistics x is the centred covariate; for the two-sample t it
    is the centred indicator of the first group, since the pooled two-sample
    t is the t of the slope on a group indicator.
    """
    if hypothesis.statistic == "t_two_sample_sq":
        if design.group_labels is None:
            raise ValueError("t_two_sample_sq requires group_labels")
        # DesignSpec checked the two groups; np.unique would import numpy.ma
        x = (design.group_labels == np.sort(design.group_labels)[0]).astype(float)
    else:
        if design.covariates is None or design.covariates.shape[1] != 1:
            raise ValueError(
                f"{hypothesis.statistic} requires exactly one scalar covariate"
            )
        x = design.covariates[:, 0]
        if hypothesis.statistic == "t_trend_cutoff" and len(x) < 3:
            raise ValueError("trend t statistic needs at least 3 observations")
        if len(x) < 2:
            raise ValueError("slope needs at least 2 observations")
        if not np.all(np.isfinite(x)):
            raise ValueError("covariate contains non-finite entries")
        if x.min() == x.max():
            raise ValueError("covariate is constant")
    return x - x.mean()


class _CentredFits(NamedTuple):
    """The non-constant centred columns of a reduced design and what the
    kernel needs of their fits: ``cols`` (K, N), ``coef`` (K, m), the fits'
    x'F (m,) and their centred sums of squares (m,)."""

    cols: np.ndarray
    coef: np.ndarray
    u: np.ndarray
    ss: np.ndarray


class StatKernel:
    """The statistic field of permuted copies of the signals, a chunk at a time.

    Permuting the rows of the signals by p is the same as permuting the design
    by the inverse of p and keeping the signals fixed, so every statistic of a
    chunk comes from the product of its permuted design row with the fixed,
    centred signals, plus column moments that no permutation changes. A
    permuted design depends only on the grouping (or the covariate order) it
    makes, and each row's product is formed on its own, so two permutations
    that make the same grouping give bitwise equal fields in any chunks.

    With a ``reduced_design`` X0 (N x K) the permuted data are Freedman-Lane's
    ``F + R[p]``: the reduced-model fits F = X0 beta plus the permuted
    residuals R. Their centred sum of squares has a cross term between the
    centred fits and the permuted residuals, one more product per
    non-constant column of X0. Without it the signals themselves are permuted.
    """

    def __init__(
        self,
        signals: np.ndarray,
        design: DesignSpec,
        hypothesis: HypothesisSpec,
        reduced_design: np.ndarray | None = None,
    ):
        Y = np.asarray(signals, dtype=float)
        if Y.ndim != 2:
            raise ValueError("signal matrix must be 2-D (observations x grid points)")
        if not np.all(np.isfinite(Y)):
            raise ValueError("signal matrix contains non-finite entries")
        self.x = design_vector(design, hypothesis)
        if len(self.x) != Y.shape[0]:
            raise ValueError(
                f"the design has {len(self.x)} observations but the signal "
                f"matrix has {Y.shape[0]} rows"
            )
        self.statistic = hypothesis.statistic
        self.sxx = self.x @ self.x
        # a residual sum of squares within this fraction of the sums it is
        # formed from is a perfect fit: the rounding error of the one-pass
        # SS - u^2 / x'x grows with N (up to about N eps / 2 on exactly
        # degenerate columns), so below it the residual carries no information
        self.perfect_fit_rtol = 4 * len(self.x) * np.finfo(float).eps
        self.fit = None
        resid = Y
        if reduced_design is not None:
            X0 = np.asarray(reduced_design, dtype=float)
            X0 = X0[:, None] if X0.ndim == 1 else X0
            if np.linalg.matrix_rank(X0) < X0.shape[1]:
                raise ValueError("reduced design is rank deficient")
            beta, *_ = np.linalg.lstsq(X0, Y, rcond=None)
            resid = Y - X0 @ beta
            # the intercept centres to exact zeros and drops out
            X0c = X0 - X0.mean(axis=0)
            varying = np.any(X0c != 0, axis=0)
            if varying.any():
                X0c, beta = X0c[:, varying], beta[varying]
                fits = X0c @ beta
                self.fit = _CentredFits(X0c.T.copy(), beta, self.x @ fits, _col_ss(fits))
        # a constant column has no centred variation in exact arithmetic;
        # zeroing it keeps its statistic equal under every permutation
        self.Z = resid - resid.mean(axis=0)
        self.Z[:, resid.min(axis=0) == resid.max(axis=0)] = 0.0
        self.ss = _col_ss(self.Z)

    @property
    def n_obs(self) -> int:
        return len(self.x)

    def fields(self, perms: np.ndarray) -> np.ndarray:
        """(B, m) statistic fields of the signals permuted by each row of the
        (B, N) ``perms``; row b is the field of ``signals[perms[b]]`` (of
        ``F + R[perms[b]]`` under a reduced design)."""
        inv = np.argsort(perms, axis=1)
        U = _row_products(self.x[inv], self.Z)
        if self.fit is not None:
            U += self.fit.u
        if self.statistic == "slope_sq":
            U /= self.sxx
            return np.square(U, out=U)
        E = np.square(U)
        E /= self.sxx
        if self.fit is None:
            scale = self.ss
            rss = self.ss - E
        else:
            # SS of the centred F + R[p]: |Fc|^2 + |Z|^2 + 2 Fc'(Z[p]), with
            # Fc'(Z[p]) = sum_k coef_k * (X0c_k[inv] @ Z)
            cross = np.zeros_like(U)
            for col, coef in zip(self.fit.cols, self.fit.coef):
                cross += _row_products(col[inv], self.Z) * coef
            fixed = self.ss + self.fit.ss
            scale = fixed + 2.0 * np.abs(cross)
            rss = fixed + 2.0 * cross - E
        tol = self.perfect_fit_rtol * scale
        perfect = rss <= tol
        if perfect.any():
            effect = E > tol
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
