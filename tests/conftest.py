"""Checks that hold after every test."""

import multiprocessing
import threading

import pytest

from lossprio import harness


@pytest.fixture(autouse=True)
def no_helper_left_running():
    # the package names its helper threads lossprio-draw and lossprio-eval, and
    # joins each before the call that started it returns, however that call
    # ends; its worker processes are joined before _run_seeds returns, and
    # _run_seeds restores the process-global _spare_core it sets
    spare_core = harness._spare_core
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith("lossprio-")]
    assert left == [], f"helper threads still running: {left}"
    workers = multiprocessing.active_children()
    assert workers == [], f"worker processes still running: {workers}"
    assert harness._spare_core == spare_core, "harness._spare_core was left changed"
