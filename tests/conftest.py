"""Fixtures shared by every test module."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a child process running, and stop it."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.kill()
        proc.join(timeout=5)
    assert not left, f"processes left running: {left}"
