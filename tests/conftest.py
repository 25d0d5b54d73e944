"""Shared fixtures for the test suite.

Compiled template programs and topologies are expensive enough to build that
they are session-scoped; tests that mutate them must copy first.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

from repro.frontend import FrontendCompiler, compile_template
from repro.lang.profile import default_profile
from repro.topology import build_paper_emulation_topology
from repro.topology.fattree import build_chain, build_fattree

# The comparison baselines (benchmarks/baselines.py) are imported as
# ``benchmarks.baselines`` however pytest was started.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))


def pytest_addoption(parser):
    """Keep ``timeout``/``timeout_method`` (pyproject.toml) valid ini keys.

    They belong to pytest-timeout.  Where the plugin is not installed the
    keys are registered here as inert options, so the run is free of
    "Unknown config option" warnings; where it is installed it registers
    (and enforces) them itself.
    """
    if importlib.util.find_spec("pytest_timeout") is None:
        parser.addini("timeout", "per-test timeout in seconds "
                      "(inert: pytest-timeout is not installed)")
        parser.addini("timeout_method", "pytest-timeout's timeout method "
                      "(inert: pytest-timeout is not installed)")


@pytest.fixture(scope="session")
def kvs_program():
    return compile_template(default_profile("KVS"), name="kvs_fixture")


@pytest.fixture(scope="session")
def mlagg_program():
    return compile_template(default_profile("MLAgg"), name="mlagg_fixture")


@pytest.fixture(scope="session")
def dqacc_program():
    return compile_template(default_profile("DQAcc"), name="dqacc_fixture")


@pytest.fixture()
def paper_topology():
    """A fresh Fig.-11 emulation topology (function scoped: tests allocate)."""
    return build_paper_emulation_topology()


@pytest.fixture()
def chain_topology():
    return build_chain(4)


@pytest.fixture()
def small_fattree():
    return build_fattree(k=4)


@pytest.fixture()
def compiler():
    return FrontendCompiler()
