"""Diagonal Gaussians: estimation and KL divergence.

Estimation is population-style (divide by n, not n-1) and every variance is
clamped to a floor. The floor keeps the KL divergence finite when the
candidate side is estimated from one or two points, where per-dimension
variances can be exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyInput

# Smallest per-dimension variance. For unit-norm features this bounds the
# KL variance ratio by 1e6, which is far from overflow but barely perturbs
# well-conditioned estimates.
VAR_FLOOR = 1e-6


@dataclass(frozen=True)
class DiagonalGaussian:
    """Mean vector, per-dimension variance, and the sample count behind them."""

    mean: np.ndarray
    var: np.ndarray
    count: int

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "var", np.asarray(self.var, dtype=np.float64))
        _check_moments(self.mean, self.var, 1)

    @classmethod
    def per_row(cls, means: np.ndarray, variances: np.ndarray, counts) -> list["DiagonalGaussian"]:
        """One Gaussian per row of (C, D) float64 stacks, holding views of
        them. The stacks are checked once, as a Gaussian checks its own."""
        _check_moments(means, variances, 2)
        out = []
        for mean, var, count in zip(means, variances, counts.tolist()):
            g = object.__new__(cls)
            object.__setattr__(g, "mean", mean)
            object.__setattr__(g, "var", var)
            object.__setattr__(g, "count", count)
            out.append(g)
        return out

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def _check_moments(mean: np.ndarray, var: np.ndarray, ndim: int) -> None:
    if mean.shape != var.shape or mean.ndim != ndim:
        raise DimensionMismatch(f"mean and var must be {ndim}-D arrays of the same shape")
    if not (np.isfinite(mean).all() and np.isfinite(var).all()):
        raise ValueError("non-finite Gaussian parameters")
    if (var <= 0.0).any():
        raise ValueError("variances must be positive (floor not applied?)")


def estimate(vectors, var_floor: float = VAR_FLOOR) -> DiagonalGaussian:
    """Two-pass population estimate: mean = sum/n, var = mean squared deviation.

    The one-group case of `estimate_grouped`. Variances are clamped to
    `var_floor`. Raises EmptyInput on n = 0.
    """
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    n = arr.shape[0]
    if n == 0:
        raise EmptyInput("cannot estimate a Gaussian from zero vectors")
    means, variances = _group_moments(arr, np.zeros(n, dtype=np.intp), np.array([n]), var_floor)
    return DiagonalGaussian(means[0], variances[0], n)


def estimate_grouped(vectors: np.ndarray, labels: np.ndarray, var_floor: float = VAR_FLOOR):
    """`estimate` of every label's rows in one pass.

    Returns (classes, means, variances, counts): the distinct labels
    ascending, their (C, D) means and floored variances, and their row
    counts. Each class's sums add its rows in their order in `vectors`.
    """
    classes, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    means, variances = _group_moments(np.asarray(vectors, dtype=np.float64), inverse, counts, var_floor)
    return classes, means, variances, counts


def _group_moments(arr, group, counts, var_floor):
    """(C, D) means and floored variances of the rows of each group; row i
    is in group `group[i]` and group c has `counts[c]` rows."""
    # One bincount over (group, dimension) bins, as kmeans._update sums: each
    # bin adds its rows in row order from 0.0, which for D >= 2 gives the bits
    # of arr.mean(axis=0) on the group's rows. For D = 1 numpy sums the
    # contiguous column pairwise instead, so those bits differ.
    k, d = counts.shape[0], arr.shape[1]
    bins = (group[:, None] * d + np.arange(d)).ravel()
    n = counts[:, None]
    means = np.bincount(bins, weights=arr.ravel(), minlength=k * d).reshape(k, d) / n
    dev = means[group]  # then overwritten: one N x D temporary, not two
    np.subtract(arr, dev, out=dev)
    dev *= dev
    variances = np.bincount(bins, weights=dev.ravel(), minlength=k * d).reshape(k, d) / n
    np.maximum(variances, var_floor, out=variances)
    return means, variances


def estimate_per_class(vectors: np.ndarray, labels: np.ndarray,
                       var_floor: float = VAR_FLOOR) -> dict[int, DiagonalGaussian]:
    """`estimate` over each label's rows, in their order in `vectors`; keys ascending."""
    classes, means, variances, counts = estimate_grouped(vectors, labels, var_floor)
    return dict(zip(classes.tolist(), DiagonalGaussian.per_row(means, variances, counts)))


def kl_divergence(p: DiagonalGaussian, q: DiagonalGaussian) -> float:
    """KL divergence between diagonal Gaussians, reference first.

    d(p || q) = 1/2 * sum_d( var_p/var_q + (mu_q - mu_p)^2/var_q
                             + ln(var_q/var_p) - 1 )

    Not symmetric: `p` is the reference (whole-cluster) distribution and `q`
    is the candidate-selection distribution. A symmetric wrapper is
    deliberately not provided.
    """
    if p.dim != q.dim:
        raise DimensionMismatch(f"dim {p.dim} vs {q.dim}")
    return 0.5 * float(
        np.sum(
            p.var / q.var
            + (q.mean - p.mean) ** 2 / q.var
            + np.log(q.var / p.var)
            - 1.0
        )
    )
