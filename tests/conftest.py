"""The ``backend`` fixture: run a test once per kernel backend.

A process runs on C when the C library builds or loads, and on the numpy
reference otherwise.  A test that asks for ``backend`` runs once on each
backend this machine has, with the module's choice set for the test's own
duration.  Without a C build, the C cases skip and the rest of the suite
runs on numpy.
"""

import warnings

import pytest

from combgrad import _kernels

# The probe builds or loads the library once for the session.  Its
# fallback warning is expected where C cannot be built, so it must not
# become an error under the suite's RuntimeWarning filter.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", RuntimeWarning)
    _HAVE_C = _kernels.c_library() is not None

_BACKENDS = [
    "numpy",
    pytest.param("c", marks=pytest.mark.skipif(not _HAVE_C, reason="the C kernel library could not be built")),
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
