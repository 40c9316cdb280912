"""Diagonal Gaussians: estimation, streaming moments, KL divergence, sampling.

Estimation is population-style (divide by n, not n-1) and every variance is
clamped to a floor. The floor keeps the KL divergence finite when the
candidate side is estimated from one or two points, where per-dimension
variances can be exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyAccumulator, EmptyInput

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
        if self.mean.shape != self.var.shape or self.mean.ndim != 1:
            raise DimensionMismatch("mean and var must be 1-D arrays of the same length")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.var))):
            raise ValueError("non-finite Gaussian parameters")
        if np.any(self.var <= 0.0):
            raise ValueError("variances must be positive (floor not applied?)")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def estimate(vectors, var_floor: float = VAR_FLOOR) -> DiagonalGaussian:
    """Two-pass population estimate: mean = sum/n, var = mean squared deviation.

    Variances are clamped to `var_floor`. Raises EmptyInput on n = 0.
    """
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.shape[0] == 0:
        raise EmptyInput("cannot estimate a Gaussian from zero vectors")
    mean = arr.mean(axis=0)
    var = np.maximum(((arr - mean) ** 2).mean(axis=0), var_floor)
    return DiagonalGaussian(mean, var, arr.shape[0])


def estimate_per_class(vectors: np.ndarray, labels: np.ndarray,
                       var_floor: float = VAR_FLOOR) -> dict[int, DiagonalGaussian]:
    """`estimate` over each label's rows, in their order in `vectors`; keys ascending."""
    return {c: estimate(vectors[rows], var_floor) for c, rows in group_by_label(labels)}


def group_by_label(labels: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(label, positions) per distinct label, labels ascending, each label's
    positions in their order in `labels`."""
    order = np.argsort(labels, kind="stable")
    classes, starts = np.unique(labels[order], return_index=True)
    return list(zip(classes.tolist(), np.split(order, starts[1:])))


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


def kl_divergence_batch(
    p: DiagonalGaussian, means: np.ndarray, variances: np.ndarray
) -> np.ndarray:
    """Vectorized kl_divergence(p, q_i) over rows of candidate moments."""
    if means.shape[1] != p.dim:
        raise DimensionMismatch(f"dim {p.dim} vs {means.shape[1]}")
    return 0.5 * np.sum(
        p.var[None, :] / variances
        + (means - p.mean[None, :]) ** 2 / variances
        + np.log(variances / p.var[None, :])
        - 1.0,
        axis=1,
    )


def sample(g: DiagonalGaussian, k: int, rng: np.random.Generator) -> np.ndarray:
    """Draw k independent vectors, component d ~ Normal(mean[d], var[d])."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return g.mean[None, :] + np.sqrt(g.var)[None, :] * rng.standard_normal((k, g.dim))


class MomentAccumulator:
    """Streaming sum / sum-of-squares over a multiset of vectors.

    Supports exact push/pop so the greedy selection loop can score a
    candidate in O(D) instead of re-estimating from scratch. Single-owner
    mutable; clone with `copy()` before sharing.
    """

    __slots__ = ("dim", "n", "sum", "sumsq")

    def __init__(self, dim: int):
        self.dim = int(dim)
        self.n = 0
        self.sum = np.zeros(self.dim, dtype=np.float64)
        self.sumsq = np.zeros(self.dim, dtype=np.float64)

    def push(self, v) -> "MomentAccumulator":
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dim,):
            raise DimensionMismatch(f"expected a vector of length {self.dim}")
        self.sum += v
        self.sumsq += v * v
        self.n += 1
        return self

    def pop(self, v) -> "MomentAccumulator":
        """Exact inverse of a prior push of the same vector."""
        if self.n == 0:
            raise EmptyAccumulator("pop on an empty accumulator")
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dim,):
            raise DimensionMismatch(f"expected a vector of length {self.dim}")
        self.sum -= v
        self.sumsq -= v * v
        self.n -= 1
        return self

    def finalize(self, var_floor: float = VAR_FLOOR) -> DiagonalGaussian:
        if self.n == 0:
            raise EmptyAccumulator("finalize requires at least one vector")
        mean = self.sum / self.n
        var = np.maximum(self.sumsq / self.n - mean * mean, var_floor)
        return DiagonalGaussian(mean, var, self.n)

    def copy(self) -> "MomentAccumulator":
        out = MomentAccumulator(self.dim)
        out.n = self.n
        out.sum = self.sum.copy()
        out.sumsq = self.sumsq.copy()
        return out
