"""The declared dependency floor covers the numpy API the package calls."""

import re
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_numpy_floor_has_vecdot_matvec_and_vecmat():
    """``np.vecdot`` needs numpy 2.0 and ``np.matvec``/``np.vecmat`` 2.2, so
    the floor in ``pyproject.toml`` is at least 2.2."""
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', PYPROJECT.read_text(encoding="utf-8"))
    assert floor is not None
    assert tuple(int(part) for part in floor.groups()) >= (2, 2)
