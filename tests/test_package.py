"""The package's import surface: lazy top-level names and layering."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]

LAZY_EXPORTS = {
    "OptimizerSession": "repro.service.session",
    "BatchScheduler": "repro.service.scheduler",
    "MaterializationCache": "repro.service.matcache",
}


@pytest.mark.parametrize("name", sorted(LAZY_EXPORTS))
def test_top_level_name_is_the_service_class(name):
    module = importlib.import_module(LAZY_EXPORTS[name])
    assert getattr(repro, name) is getattr(module, name)


def test_top_level_workloads_is_the_subpackage():
    assert repro.workloads is importlib.import_module("repro.workloads")


def test_unknown_top_level_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="MultiQueryOptimizer"):
        repro.MultiQueryOptimizer


def test_core_does_not_import_the_service_layer():
    """``repro.core`` sits below ``repro.service``: importing it (and every
    module it pulls in) leaves the serving layer unloaded."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = (
        "import sys, repro.core, repro.core.mqo, repro.core.strategies\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.service')))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"
