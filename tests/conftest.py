"""Shared fixtures for the test suite."""

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
