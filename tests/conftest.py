import numpy as np
import pytest

from magmech import reference_baseline


def pytest_addoption(parser):
    parser.addoption(
        "--discrepancy-report", metavar="PATH", default=None,
        help="write the acceptance discrepancy report to PATH, e.g. "
             "discrepancy_report.json to refresh the tracked copy "
             "(default: a pytest temporary directory)")


@pytest.fixture
def baseline():
    return reference_baseline()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
