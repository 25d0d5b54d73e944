"""Learning-based parameter auto-configuration (paper Appendix A.3).

Users specify application-level performance metrics (hit ratio, accuracy,
precision) rather than device resources.  ClickINC maintains historical
records of (parameter, performance) pairs, fits a performance-estimation
model ``y = f(x)``, and searches for the cheapest parameters satisfying the
requested performance (Eq. 4).

The implementation uses a small least-squares polynomial model over
log-transformed resource parameters (adequate for the monotone saturating
curves cache-hit-ratio / sketch-accuracy follow) and a projected gradient /
grid search for the constrained minimisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ProfileError


@dataclass
class ResourceModel:
    """A fitted performance-estimation model for one template parameter set.

    ``features(x)`` maps a parameter vector to regression features; the model
    predicts each performance metric as a linear function of those features.
    """

    parameter_names: List[str]
    metric_names: List[str]
    coefficients: Optional[np.ndarray] = None   # shape (metrics, features)

    def features(self, params: np.ndarray) -> np.ndarray:
        logs = np.log1p(np.maximum(params, 0.0))
        return np.concatenate([[1.0], logs, logs ** 2])

    def fit(self, params: Sequence[Sequence[float]],
            metrics: Sequence[Sequence[float]]) -> "ResourceModel":
        X = np.array([self.features(np.asarray(p, dtype=float)) for p in params])
        Y = np.asarray(metrics, dtype=float)
        if X.shape[0] < X.shape[1]:
            # ridge-regularise when the history is short
            reg = 1e-3 * np.eye(X.shape[1])
            self.coefficients = np.linalg.solve(X.T @ X + reg, X.T @ Y).T
        else:
            solution, *_ = np.linalg.lstsq(X, Y, rcond=None)
            self.coefficients = solution.T
        return self

    def predict(self, params: Sequence[float]) -> np.ndarray:
        if self.coefficients is None:
            raise ProfileError("resource model has not been fitted")
        return self.coefficients @ self.features(np.asarray(params, dtype=float))


class ParameterAutoConfigurator:
    """Searches for the cheapest parameters meeting performance requirements."""

    def __init__(self, model: ResourceModel,
                 resource_cost: Optional[Callable[[np.ndarray], float]] = None) -> None:
        self.model = model
        self.resource_cost = resource_cost or (lambda p: float(np.sum(p)))

    def history_from_simulator(self, simulate: Callable[[Dict[str, float]], Dict[str, float]],
                               parameter_grid: Sequence[Dict[str, float]]) -> None:
        """Build the historical record by probing *simulate* on a grid."""
        params = []
        metrics = []
        for point in parameter_grid:
            params.append([point[name] for name in self.model.parameter_names])
            observed = simulate(point)
            metrics.append([observed[name] for name in self.model.metric_names])
        self.model.fit(params, metrics)

    def configure(self, requirements: Dict[str, float],
                  bounds: Dict[str, Tuple[float, float]],
                  grid_points: int = 12) -> Dict[str, float]:
        """Find the cheapest parameters predicted to satisfy *requirements*.

        A coarse grid search (robust for the low-dimensional template
        parameter spaces) is followed by a local refinement around the best
        feasible point.
        """
        names = self.model.parameter_names
        axes = []
        for name in names:
            low, high = bounds[name]
            axes.append(np.geomspace(max(low, 1.0), max(high, low + 1.0), grid_points))
        best: Optional[Tuple[float, np.ndarray]] = None
        mesh = np.meshgrid(*axes, indexing="ij")
        flat = np.stack([m.ravel() for m in mesh], axis=1)
        for candidate in flat:
            prediction = self.model.predict(candidate)
            satisfied = all(
                prediction[i] >= requirements[name] - 1e-9
                for i, name in enumerate(self.model.metric_names)
                if name in requirements
            )
            if not satisfied:
                continue
            cost = self.resource_cost(candidate)
            if best is None or cost < best[0]:
                best = (cost, candidate)
        if best is None:
            raise ProfileError(
                "no parameter setting within bounds satisfies the requested "
                f"performance {requirements!r}"
            )
        refined = self._refine(best[1], requirements, bounds)
        return {name: float(value) for name, value in zip(names, refined)}

    def _refine(self, start: np.ndarray, requirements: Dict[str, float],
                bounds: Dict[str, Tuple[float, float]],
                iterations: int = 40, shrink: float = 0.9) -> np.ndarray:
        """Greedy local descent: shrink parameters while requirements hold."""
        current = np.array(start, dtype=float)
        names = self.model.parameter_names
        for _ in range(iterations):
            improved = False
            for index, name in enumerate(names):
                trial = current.copy()
                trial[index] = max(bounds[name][0], trial[index] * shrink)
                prediction = self.model.predict(trial)
                satisfied = all(
                    prediction[i] >= requirements[metric] - 1e-9
                    for i, metric in enumerate(self.model.metric_names)
                    if metric in requirements
                )
                if satisfied and self.resource_cost(trial) < self.resource_cost(current):
                    current = trial
                    improved = True
            if not improved:
                break
        return current

