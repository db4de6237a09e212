import os

import pytest
from hypothesis import settings

# Tier-1 is deterministic: every run draws the same examples (each test
# keeps its own max_examples) and no example database carries failures
# from one run into the next.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: spawns real server subprocesses (SIGKILL/SIGTERM cases)")
    config.addinivalue_line(
        "markers",
        "soak: long-running chaos soak, excluded from tier-1 "
        "(set REPRO_RUN_SOAK=1 to run)")


def pytest_collection_modifyitems(config, items):
    if os.environ.get("REPRO_RUN_SOAK") == "1":
        return
    skip_soak = pytest.mark.skip(
        reason="soak test excluded from tier-1; set REPRO_RUN_SOAK=1 to run")
    for item in items:
        if "soak" in item.keywords:
            item.add_marker(skip_soak)
