import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import worker  # noqa: E402


@pytest.fixture(scope="session")
def cli():
    return worker._import_homtrack(os.path.dirname(BENCH_DIR))
