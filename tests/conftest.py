import os
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[1] / "src"

# pytest imports the package from the source tree (pyproject's `pythonpath`);
# the Python subprocesses that tests start import it from there too
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES
