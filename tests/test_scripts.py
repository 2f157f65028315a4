"""Smoke test of the exploration script scripts/profile_sweep.py."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "profile_sweep.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("profile_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_profile_sweep_runs_on_two_energies(capsys):
    """Two energies give a header, a rule and two rows with a vanishing
    Einstein defect on the family member."""
    assert _load_script().main(["--steps", "2", "--dim", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = lines[3:]
    assert len(rows) == 2
    for row in rows:
        t, v, admissibility, gamma, defect, hsc = (float(x) for x in row.split())
        assert admissibility > 0.0
        assert abs(gamma) < 1e-9
        assert defect < 1e-6
