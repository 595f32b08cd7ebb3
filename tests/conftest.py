import os
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = REPO_ROOT / "scenarios"

# The CLI tests start `python -m normal_vv.cli` in fresh interpreters;
# they inherit this, so the suite runs from a checkout without an install.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")))
)

ACCEPTANCE_CRITERIA = {
    1: "analytic Greeks match central finite differences; put-call parity",
    2: "implied-vol inversion round trip at 1e-10",
    3: "hedge-weight residuals <= 1e-12 and closed form matches a linear solve",
    4: "every smile construction returns pivot vols at pivot strikes",
    5: "scenario 1: VV tracks SABR between the pivots; wings rise with reference vol",
    6: "scenario 2 frown: SABR cannot fit, VV can; only high references fail on wings",
    7: "densities: flat-smile oracle, nonnegativity, bimodality, unit mass",
    8: "fourth-quote calibration recovers the planted reference vol",
    9: "SABR smile convexity and self-calibration round trip",
    10: "CLI determinism: byte-identical scenario outputs",
}


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return SCENARIO_DIR


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    pattern = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")
    outcomes: dict[int, str] = {}
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            match = pattern.search(getattr(report, "nodeid", ""))
            if match and getattr(report, "when", "call") == "call":
                outcomes[int(match.group(1))] = status
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    words = {"passed": "PASS", "failed": "FAIL", "error": "FAIL", "skipped": "SKIP"}
    for num in sorted(outcomes):
        label = ACCEPTANCE_CRITERIA.get(num, "")
        terminalreporter.write_line(f"criterion {num:>2}: {words[outcomes[num]]}  {label}")
