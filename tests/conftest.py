"""The ``backend`` fixture: run a test once per kernel backend.

The backend is fixed for a process by ``COMBGRAD_BACKEND``; a test that
asks for ``backend`` runs once on each, with the module's choice set for
the test's own duration.
"""

import pytest

from combgrad import _kernels

_BACKENDS = [
    "numpy",
    pytest.param(
        "c", marks=pytest.mark.skipif(_kernels.c_library() is None, reason="the C kernel library could not be built")
    ),
]


@pytest.hookimpl(trylast=True)
def pytest_generate_tests(metafunc):
    # After the parametrize marks, so the backend ends the test id.
    if "backend" in metafunc.fixturenames:
        metafunc.parametrize("backend", _BACKENDS, indirect=True)


@pytest.fixture
def backend(request, monkeypatch):
    monkeypatch.setattr(_kernels, "_BACKEND", request.param)
    return request.param
