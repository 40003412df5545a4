"""Random-variable objects with explicit first and second moments.

The inversion analysis in the paper depends on two moments of the
inter-arrival and service-time distributions: the mean and the squared
coefficient of variation (CoV², written :math:`c^2`).  Every distribution
here exposes both analytically and supports reproducible sampling through
a caller-supplied :class:`numpy.random.Generator` (no hidden global RNG —
a hard requirement for reproducible simulation sweeps).

:func:`fit_two_moments` performs the standard two-moment fit used in
queueing network analysis: Deterministic for :math:`c^2 = 0`, Erlang for
:math:`0 < c^2 < 1`, Exponential for :math:`c^2 = 1`, and balanced-means
two-phase hyperexponential for :math:`c^2 > 1`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

__all__ = [
    "Distribution",
    "Deterministic",
    "Exponential",
    "Erlang",
    "HyperExponential",
    "LogNormal",
    "Uniform",
    "fit_two_moments",
]


class Distribution(ABC):
    """A non-negative random variable with known first two moments."""

    @property
    @abstractmethod
    def mean(self) -> float:
        """Expected value :math:`E[X]`."""

    @property
    @abstractmethod
    def variance(self) -> float:
        """Variance :math:`\\operatorname{Var}[X]`."""

    @property
    def cv2(self) -> float:
        """Squared coefficient of variation :math:`c^2 = Var[X]/E[X]^2`."""
        if self.mean == 0:
            return 0.0
        return self.variance / self.mean**2

    @property
    def std(self) -> float:
        """Standard deviation :math:`\\sqrt{\\operatorname{Var}[X]}`."""
        return math.sqrt(self.variance)

    @abstractmethod
    def sample(
        self, rng: np.random.Generator, size: int | None = None
    ) -> float | np.ndarray:
        """Draw samples.

        Parameters
        ----------
        rng:
            NumPy random generator; all randomness flows through it.
        size:
            Number of samples; ``None`` returns a scalar float.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(mean={self.mean:.6g}, cv2={self.cv2:.6g})"


class Deterministic(Distribution):
    """Point mass at ``value`` (:math:`c^2 = 0`)."""

    def __init__(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"value must be >= 0, got {value}")
        self.value = float(value)

    @property
    def mean(self) -> float:
        return self.value

    @property
    def variance(self) -> float:
        return 0.0

    def sample(
        self, rng: np.random.Generator, size: int | None = None
    ) -> float | np.ndarray:
        if size is None:
            return self.value
        return np.full(size, self.value)


class Exponential(Distribution):
    """Exponential distribution with the given ``mean`` (:math:`c^2 = 1`)."""

    def __init__(self, mean: float) -> None:
        if mean <= 0:
            raise ValueError(f"mean must be > 0, got {mean}")
        self._mean = float(mean)

    @property
    def rate(self) -> float:
        """Rate parameter :math:`\\lambda = 1/E[X]`."""
        return 1.0 / self._mean

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._mean**2

    def sample(
        self, rng: np.random.Generator, size: int | None = None
    ) -> float | np.ndarray:
        return rng.exponential(self._mean, size)


class Erlang(Distribution):
    """Erlang-:math:`k` distribution (sum of ``k`` exponential phases).

    Has :math:`c^2 = 1/k`, interpolating between exponential (``k=1``)
    and deterministic (``k → ∞``).  A good model for pipelined,
    low-variability compute such as DNN inference.
    """

    def __init__(self, shape: int, mean: float) -> None:
        if shape < 1:
            raise ValueError(f"shape must be >= 1, got {shape}")
        if mean <= 0:
            raise ValueError(f"mean must be > 0, got {mean}")
        self.shape = int(shape)
        self._mean = float(mean)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._mean**2 / self.shape

    def sample(
        self, rng: np.random.Generator, size: int | None = None
    ) -> float | np.ndarray:
        scale = self._mean / self.shape
        return rng.gamma(self.shape, scale, size)


class HyperExponential(Distribution):
    """Mixture of exponentials: phase ``i`` with prob ``probs[i]``, mean ``means[i]``.

    The workhorse high-variability distribution (:math:`c^2 > 1`), used to
    model bursty arrivals and heavy-ish tailed service.
    """

    def __init__(self, probs: Sequence[float], means: Sequence[float]) -> None:
        p = np.asarray(probs, dtype=float)
        m = np.asarray(means, dtype=float)
        if p.ndim != 1 or p.shape != m.shape or p.size == 0:
            raise ValueError("probs and means must be equal-length 1-D sequences")
        if np.any(p < 0) or not math.isclose(p.sum(), 1.0, rel_tol=1e-9):
            raise ValueError(f"probs must be non-negative and sum to 1, got {p}")
        if np.any(m <= 0):
            raise ValueError(f"means must be > 0, got {m}")
        self.probs = p
        self.means = m

    @classmethod
    def balanced(cls, mean: float, cv2: float) -> "HyperExponential":
        """Two-phase balanced-means H2 fit for a target mean and :math:`c^2 > 1`.

        Uses the standard construction with
        :math:`p = \\tfrac12(1 + \\sqrt{(c^2-1)/(c^2+1)})` and phase means
        :math:`m/(2p)` and :math:`m/(2(1-p))`.
        """
        if cv2 <= 1.0:
            raise ValueError(f"H2 requires cv2 > 1, got {cv2}")
        if mean <= 0:
            raise ValueError(f"mean must be > 0, got {mean}")
        p = 0.5 * (1.0 + math.sqrt((cv2 - 1.0) / (cv2 + 1.0)))
        return cls([p, 1.0 - p], [mean / (2.0 * p), mean / (2.0 * (1.0 - p))])

    @property
    def mean(self) -> float:
        return float(np.dot(self.probs, self.means))

    @property
    def variance(self) -> float:
        second_moment = float(np.dot(self.probs, 2.0 * self.means**2))
        return second_moment - self.mean**2

    def sample(
        self, rng: np.random.Generator, size: int | None = None
    ) -> float | np.ndarray:
        n = 1 if size is None else int(size)
        phases = rng.choice(self.means.size, size=n, p=self.probs)
        out = rng.exponential(self.means[phases])
        if size is None:
            return float(out[0])
        return out


class LogNormal(Distribution):
    """Log-normal distribution parameterized by its mean and :math:`c^2`.

    Matches the coarse execution-time distributions in the Azure
    serverless dataset, which are well described by log-normals.
    """

    def __init__(self, mean: float, cv2: float) -> None:
        if mean <= 0:
            raise ValueError(f"mean must be > 0, got {mean}")
        if cv2 <= 0:
            raise ValueError(f"cv2 must be > 0, got {cv2}")
        self._mean = float(mean)
        self._cv2 = float(cv2)
        self.sigma2 = math.log(1.0 + cv2)
        self.mu = math.log(mean) - self.sigma2 / 2.0

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._cv2 * self._mean**2

    def sample(
        self, rng: np.random.Generator, size: int | None = None
    ) -> float | np.ndarray:
        return rng.lognormal(self.mu, math.sqrt(self.sigma2), size)


class Uniform(Distribution):
    """Uniform distribution on ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low < high:
            raise ValueError(f"need 0 <= low < high, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    @property
    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    @property
    def variance(self) -> float:
        return (self.high - self.low) ** 2 / 12.0

    def sample(
        self, rng: np.random.Generator, size: int | None = None
    ) -> float | np.ndarray:
        return rng.uniform(self.low, self.high, size)


def fit_two_moments(mean: float, cv2: float) -> Distribution:
    """Fit a distribution to a target mean and squared CoV.

    Standard two-moment fit used in queueing-network tooling:

    * ``cv2 == 0`` → :class:`Deterministic`
    * ``0 < cv2 < 1`` → :class:`Erlang` with ``shape = round(1/cv2)``
    * ``cv2 == 1`` → :class:`Exponential`
    * ``cv2 > 1`` → balanced-means :class:`HyperExponential`

    The Erlang fit matches :math:`c^2` exactly only when :math:`1/c^2`
    is an integer; otherwise the closest integer shape is used (the usual
    engineering compromise).
    """
    if mean <= 0:
        raise ValueError(f"mean must be > 0, got {mean}")
    if cv2 < 0:
        raise ValueError(f"cv2 must be >= 0, got {cv2}")
    # Below ~1e-6 an Erlang fit would need millions of phases; a point mass
    # is indistinguishable at that point and avoids integer overflow.
    if cv2 < 1e-6:
        return Deterministic(mean)
    if math.isclose(cv2, 1.0, rel_tol=1e-9):
        return Exponential(mean)
    if cv2 < 1.0:
        shape = max(1, round(1.0 / cv2))
        return Erlang(shape, mean)
    return HyperExponential.balanced(mean, cv2)
