"""Checks that hold after every test."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_helper_thread_left_running():
    # the package names its helper threads lossprio-draw and lossprio-eval, and
    # joins each before the call that started it returns, however that call ends
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith("lossprio-")]
    assert left == [], f"helper threads still running: {left}"
