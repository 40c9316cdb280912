"""Class Gaussians: diagonal Gaussians stacked one row per class
(`ClassGaussians`), their estimation and their KL divergence.

Estimation is population-style (divide by n, not n-1) and every variance is
clamped to a floor. The floor keeps the KL divergence finite when the
candidate side is estimated from one or two points, where per-dimension
variances can be exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

# Smallest per-dimension variance. For unit-norm features this bounds the
# KL variance ratio by 1e6, which is far from overflow but barely perturbs
# well-conditioned estimates.
VAR_FLOOR = 1e-6


@dataclass(frozen=True, eq=False)
class ClassGaussians:
    """The diagonal Gaussians of some classes, one row per class: ascending
    int64 class ids and (C, D) means and variances. `len()` is the number of
    classes."""

    classes: np.ndarray
    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        for name, dtype in zip(("classes", "mean", "var"), (np.int64, np.float64, np.float64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        classes, mean, var = self.classes, self.mean, self.var
        if mean.shape != var.shape or mean.ndim != 2 or classes.shape != mean.shape[:1]:
            raise DimensionMismatch("classes must be (C,), mean and var (C, D) arrays")
        if (np.diff(classes) <= 0).any():
            raise ValueError("class ids must be ascending and unique")
        if not (np.isfinite(mean).all() and np.isfinite(var).all()):
            raise ValueError("non-finite Gaussian parameters")
        if (var <= 0.0).any():
            raise ValueError("variances must be positive (floor not applied?)")

    def __len__(self) -> int:
        return len(self.classes)

    def take(self, rows) -> "ClassGaussians":
        """The Gaussians in rows `rows`, which must keep the classes ascending."""
        return ClassGaussians(self.classes[rows], self.mean[rows], self.var[rows])


def estimate_grouped(vectors: np.ndarray, labels: np.ndarray,
                     var_floor: float = VAR_FLOOR) -> ClassGaussians:
    """The Gaussians of the distinct labels, ascending, each estimated from
    its label's rows in one pass: two-pass population moments, mean = sum/n
    and var = mean squared deviation, variances clamped to `var_floor`. Each
    class's sums add its rows in their order in `vectors`.
    """
    classes, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    means, variances = _group_moments(np.asarray(vectors, dtype=np.float64), inverse, counts, var_floor)
    return ClassGaussians(classes, means, variances)


def _group_moments(arr, group, counts, var_floor):
    """(C, D) means and floored variances of the rows of each group; row i
    is in group `group[i]` and group c has `counts[c]` rows."""
    # One bincount over (group, dimension) bins, as in kmeans._sums: each
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


def kl_divergence(p: ClassGaussians, q: ClassGaussians) -> np.ndarray:
    """KL divergence between the diagonal Gaussians of two aligned stacks,
    reference first: one divergence per row,

    d(p || q) = 1/2 * sum_d( var_p/var_q + (mu_q - mu_p)^2/var_q
                             + ln(var_q/var_p) - 1 )

    Not symmetric: `p` is the reference (whole-cluster or whole-pool)
    distribution and `q` the selection's. A symmetric wrapper is
    deliberately not provided.
    """
    if p.mean.shape != q.mean.shape or not np.array_equal(p.classes, q.classes):
        raise DimensionMismatch(f"unaligned stacks: means {p.mean.shape} vs {q.mean.shape}")
    return 0.5 * np.sum(
        p.var / q.var
        + (q.mean - p.mean) ** 2 / q.var
        + np.log(q.var / p.var)
        - 1.0,
        axis=1,
    )
