import subprocess
import sys
from pathlib import Path

import focuslab
from focuslab import bench, image, metric, optics, search

MODULES = (image, optics, metric, search, bench)


def test_package_exports_the_union_of_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert focuslab.__all__ == names
    assert len(set(names)) == len(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(focuslab, name) is getattr(module, name), name
    assert not [name for name in names if name.startswith("_")]


FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_is_reported_and_later_tests_still_run(tmp_path):
    # Runs the suite's own pytest settings, warnings-as-errors included, on a
    # failing hypothesis test followed by a passing one.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    config = Path(__file__).parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout + proc.stderr
