"""Shared fixtures for the test suite."""

import tracemalloc
import warnings

import pytest

from acsplit import verify


@pytest.fixture(scope="session")
def check_result():
    """Run a `verify.CHECKS` entry once per session and return `(ok, detail)`.

    `test_check_passes` and the acceptance criteria assert the same entries;
    sharing the result keeps each check to one run.  A `RuntimeWarning`
    inside a check is an error.
    """
    results = {}

    def run(name):
        if name not in results:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                results[name] = verify.CHECKS[name]()
        return results[name]

    return run


@pytest.fixture(scope="session")
def peak_field_sizes():
    """`peak(fn, nbytes)`: the peak bytes tracemalloc sees while `fn()` runs, in
    units of `nbytes` (a field's size), after one untraced call has warmed
    numpy's FFT caches.

    The figures the tests hold it to assume numpy 2.4's allocation pattern
    (pocketfft, ufunc and einsum temporaries): another release that keeps one
    more small buffer alive can exceed them with the code unchanged, and then
    they are measured anew.
    """

    def peak(fn, nbytes):
        fn()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / nbytes
        finally:
            tracemalloc.stop()

    return peak
