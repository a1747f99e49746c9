"""PCA anomaly detection with the Q-statistic threshold (§III-B step 3).

The model of Xu et al.: the top-``k`` principal components of the
(TF-IDF weighted) event count matrix span the *normal space* S_d; the
remaining ``n − k`` dimensions form the *anomaly space* S_a.  A session
vector ``y`` is scored by its squared prediction error

    SPE = ‖y_a‖²,   y_a = (I − P Pᵀ) y,

the squared distance from the normal space, and flagged anomalous when
``SPE > Q_α``, the Jackson–Mudholkar Q-statistic threshold at
confidence level ``1 − α`` (the paper fixes α = 0.001 as in the
original work).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from repro.common.errors import MiningError

#: The paper's confidence parameter for Q_alpha.
DEFAULT_ALPHA = 0.001

#: Fraction of total variance the normal space must capture (Xu et al.).
DEFAULT_VARIANCE_FRACTION = 0.95


def q_statistic_threshold(
    eigenvalues: np.ndarray, k: int, alpha: float = DEFAULT_ALPHA
) -> float:
    """Jackson–Mudholkar threshold Q_α for the residual subspace.

    ``eigenvalues`` are the covariance eigenvalues sorted descending;
    the residual subspace is spanned by components ``k..n-1``.  Returns
    ``inf`` when the residual spectrum is (numerically) empty — no
    residual energy means nothing can exceed the threshold.
    """
    if not 0.0 < alpha < 1.0:
        raise MiningError(f"alpha must be in (0,1), got {alpha}")
    residual = np.clip(eigenvalues[k:], 0.0, None)
    theta1 = float(np.sum(residual))
    theta2 = float(np.sum(residual**2))
    theta3 = float(np.sum(residual**3))
    if theta1 <= 0 or theta2 <= 0:
        return float("inf")
    h0 = 1.0 - 2.0 * theta1 * theta3 / (3.0 * theta2**2)
    if h0 <= 0:
        # Degenerate spectrum; fall back to the 3-sigma-style bound.
        return theta1 + 3.0 * np.sqrt(theta2)
    c_alpha = NormalDist().inv_cdf(1.0 - alpha)
    term = (
        c_alpha * np.sqrt(2.0 * theta2 * h0**2) / theta1
        + 1.0
        + theta2 * h0 * (h0 - 1.0) / theta1**2
    )
    if term <= 0:
        return float("inf")
    return float(theta1 * term ** (1.0 / h0))


@dataclass
class PcaAnomalyModel:
    """PCA normal/anomaly-space model with an SPE threshold.

    Attributes populated by :meth:`fit`:
        mean: per-column mean used for centering.
        components: (n_features, k) orthonormal basis of normal space.
        threshold: the fitted Q_α.
        n_components: the chosen k.
    """

    alpha: float = DEFAULT_ALPHA
    variance_fraction: float = DEFAULT_VARIANCE_FRACTION
    n_components: int | None = None
    mean: np.ndarray = field(default=None, repr=False)
    components: np.ndarray = field(default=None, repr=False)
    threshold: float = field(default=None)
    eigenvalues: np.ndarray = field(default=None, repr=False)

    def fit(self, matrix: np.ndarray) -> "PcaAnomalyModel":
        """Fit normal space and Q_α threshold to *matrix* (rows=sessions)."""
        if matrix.ndim != 2 or matrix.shape[0] < 2:
            raise MiningError(
                f"need a 2-D matrix with >= 2 rows, got shape {matrix.shape}"
            )
        if not 0.0 < self.variance_fraction <= 1.0:
            raise MiningError(
                f"variance_fraction must be in (0,1], got "
                f"{self.variance_fraction}"
            )
        data = np.asarray(matrix, dtype=float)
        self.mean = data.mean(axis=0)
        centered = data - self.mean
        # SVD of the centered data gives covariance eigen-structure.
        _u, singular, v_transposed = np.linalg.svd(
            centered, full_matrices=False
        )
        eigenvalues = singular**2 / max(data.shape[0] - 1, 1)
        self.eigenvalues = eigenvalues
        if self.n_components is not None:
            if not 1 <= self.n_components <= len(eigenvalues):
                raise MiningError(
                    f"n_components must be in [1, {len(eigenvalues)}], "
                    f"got {self.n_components}"
                )
            k = self.n_components
        else:
            total = float(np.sum(eigenvalues))
            if total <= 0:
                k = 1
            else:
                cumulative = np.cumsum(eigenvalues) / total
                k = int(np.searchsorted(cumulative, self.variance_fraction) + 1)
                k = min(k, len(eigenvalues))
        self._k = k
        self.components = v_transposed[:k].T  # (n_features, k)
        self.threshold = q_statistic_threshold(eigenvalues, k, self.alpha)
        return self

    @property
    def fitted_components(self) -> int:
        if self.components is None:
            raise MiningError("model not fitted")
        return self.components.shape[1]

    def spe(self, matrix: np.ndarray) -> np.ndarray:
        """Squared prediction error of each row (distance to normal space)."""
        if self.components is None:
            raise MiningError("model not fitted")
        centered = np.asarray(matrix, dtype=float) - self.mean
        projection = centered @ self.components  # (n, k)
        residual = centered - projection @ self.components.T
        return np.einsum("ij,ij->i", residual, residual)

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        """Boolean anomaly flags: SPE > Q_α."""
        return self.spe(matrix) > self.threshold
