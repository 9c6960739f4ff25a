"""Benchmark-suite configuration.

Makes ``pytest benchmarks/`` work from the repository root (the package
config sets ``testpaths = tests``) and keeps pytest-benchmark rounds
small — the experiments themselves are deterministic; the timing is a
bonus, not the result.
"""

import sys
from pathlib import Path

import pytest

# Allow `import _support` from any benchmark module.
sys.path.insert(0, str(Path(__file__).parent))


def pytest_addoption(parser):
    parser.addoption(
        "--results-dir",
        default=None,
        help="directory the paper tables are written to (default: a temp "
        "dir, so a run never dirties benchmarks/results/)",
    )


@pytest.fixture(scope="session")
def results_dir(request, tmp_path_factory):
    """Where this run's ``report()`` tables go."""
    chosen = request.config.getoption("--results-dir")
    if chosen is None:
        return tmp_path_factory.mktemp("results")
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path
