"""Unit tests for the learning-based parameter auto-configuration."""

from typing import Callable, Dict

import numpy as np
import pytest

from repro.apps.autoconfig import ParameterAutoConfigurator, ResourceModel
from repro.exceptions import ProfileError


def kvs_hit_ratio_simulator(num_keys: int = 10000, skew: float = 1.2
                            ) -> Callable[[Dict[str, float]], Dict[str, float]]:
    """Analytic simulator of KVS cache hit ratio / heavy-hitter accuracy.

    Used to build the historical record the auto-configurator learns from,
    standing in for the paper's empirical measurements.
    """
    ranks = np.arange(1, num_keys + 1, dtype=float)
    weights = ranks ** (-skew)
    weights /= weights.sum()

    def simulate(params: Dict[str, float]) -> Dict[str, float]:
        depth = int(params.get("depth", 1000))
        cms_size = int(params.get("cms_size", 1024))
        hit = float(weights[: min(depth, num_keys)].sum())
        # count-min error decays with counter array size relative to key count
        accuracy = float(1.0 - min(1.0, num_keys / (4.0 * max(1, cms_size))))
        return {"hit_ratio": hit, "accuracy": accuracy}

    return simulate


def make_configurator():
    model = ResourceModel(
        parameter_names=["depth", "cms_size"],
        metric_names=["hit_ratio", "accuracy"],
    )
    configurator = ParameterAutoConfigurator(model)
    simulate = kvs_hit_ratio_simulator(num_keys=10000, skew=1.2)
    grid = [
        {"depth": d, "cms_size": c}
        for d in (100, 500, 1000, 2000, 5000, 8000)
        for c in (256, 1024, 4096, 16384)
    ]
    configurator.history_from_simulator(simulate, grid)
    return configurator, simulate


class TestResourceModel:
    def test_fit_and_predict_interpolates(self):
        configurator, simulate = make_configurator()
        observed = simulate({"depth": 3000, "cms_size": 2048})
        predicted = configurator.model.predict([3000, 2048])
        assert abs(predicted[0] - observed["hit_ratio"]) < 0.15
        assert abs(predicted[1] - observed["accuracy"]) < 0.25

    def test_predict_without_fit_raises(self):
        model = ResourceModel(["a"], ["m"])
        with pytest.raises(ProfileError):
            model.predict([1.0])

    def test_fit_with_few_samples_uses_ridge(self):
        model = ResourceModel(["a"], ["m"])
        model.fit([[1.0], [2.0]], [[0.1], [0.2]])
        assert model.coefficients is not None


class TestConfigurator:
    def test_configuration_meets_requirements(self):
        configurator, simulate = make_configurator()
        params = configurator.configure(
            requirements={"hit_ratio": 0.55, "accuracy": 0.6},
            bounds={"depth": (100, 10000), "cms_size": (256, 65536)},
        )
        observed = simulate(params)
        assert observed["hit_ratio"] >= 0.5      # small model tolerance
        assert observed["accuracy"] >= 0.5

    def test_cheaper_requirements_need_fewer_resources(self):
        configurator, _ = make_configurator()
        loose = configurator.configure(
            requirements={"hit_ratio": 0.3},
            bounds={"depth": (100, 10000), "cms_size": (256, 65536)},
        )
        tight = configurator.configure(
            requirements={"hit_ratio": 0.7},
            bounds={"depth": (100, 10000), "cms_size": (256, 65536)},
        )
        assert loose["depth"] <= tight["depth"]

    def test_impossible_requirements_raise(self):
        configurator, _ = make_configurator()
        with pytest.raises(ProfileError):
            configurator.configure(
                requirements={"hit_ratio": 2.0},
                bounds={"depth": (100, 10000), "cms_size": (256, 65536)},
            )

    def test_custom_resource_cost(self):
        model = ResourceModel(["depth"], ["hit_ratio"])
        model.fit([[100], [1000], [10000]], [[0.2], [0.5], [0.9]])
        configurator = ParameterAutoConfigurator(
            model, resource_cost=lambda p: float(p[0] ** 2)
        )
        params = configurator.configure(
            requirements={"hit_ratio": 0.4}, bounds={"depth": (100, 10000)}
        )
        assert params["depth"] < 10000
