"""Fixtures shared by the test modules."""

import tracemalloc

import pytest

from otkit import DenseGeometry, Geometry, GridGeometry, PointCloudGeometry, lowrank


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` is ``(fn(), peak)``: the result of ``fn()`` and
    the peak of the memory tracemalloc traced while it ran, in bytes."""

    def trace(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return trace


@pytest.fixture
def lse_calls(monkeypatch) -> list:
    """Records every log-domain kernel application on the three backends:
    each ``_lse_kernel`` call, which ``apply_lse_kernel`` makes after its
    checks and a solver's log-domain step makes directly."""
    calls = []
    for cls in (DenseGeometry, PointCloudGeometry, GridGeometry):
        original = cls._lse_kernel

        def spy(self, *args, _original=original, **kwargs):
            calls.append(type(self).__name__)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "_lse_kernel", spy)
    return calls


@pytest.fixture
def cost_matrix_calls(monkeypatch) -> list:
    """Records every cost_matrix call, by backend; the backends share the
    method of the Geometry base."""
    calls = []
    original = Geometry.cost_matrix

    def spy(self, *args, **kwargs):
        calls.append(type(self).__name__)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Geometry, "cost_matrix", spy)
    return calls


@pytest.fixture
def log_domain(monkeypatch):
    """Call it to make every backend's kernel builder decline, so that the
    solves that follow run in the log domain, the reference."""

    def force():
        for cls in (Geometry, PointCloudGeometry, GridGeometry):
            monkeypatch.setattr(cls, "_gibbs", lambda self, eps, old: None)

    return force


@pytest.fixture
def infeasible_after_first_step(monkeypatch):
    """Makes every low-rank Newton projection after the start's and the
    first accepted step's decline, so that no later step can be accepted.
    Returns the list of those two projections."""
    original = lowrank._newton
    accepted = []

    def newton(*args):
        if len(accepted) >= 2:
            return None
        result = original(*args)
        if result is not None and result[3] <= lowrank._PROJECTION_ACCEPT:
            accepted.append(result)
        return result

    monkeypatch.setattr(lowrank, "_newton", newton)
    return accepted
