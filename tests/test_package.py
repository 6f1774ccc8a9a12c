import ast
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import focuslab
from focuslab import bench, cli, image, metric, optics, search

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


def _referenced_names(tree: ast.AST) -> Counter:
    """How often each name appears, as a bare name, an attribute or an import."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
    return names


def test_every_private_helper_has_a_caller():
    # A module-level _function or _Class that only its own body names is dead code.
    trees = [ast.parse(path.read_text(), str(path))
             for path in sorted(Path(focuslab.__file__).parent.glob("*.py"))]
    references = sum((_referenced_names(tree) for tree in trees), Counter())
    helpers = [node for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert helpers
    unused = [h.name for h in helpers if references[h.name] == _referenced_names(h)[h.name]]
    assert unused == []


def test_the_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    z_star, d_star, evaluations = (float(token) for token in capsys.readouterr().out.split())
    assert abs(z_star) <= 0.5 and d_star > 0 and evaluations > 0


def test_the_readme_error_example_is_what_the_cli_prints(capsys, tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    quoted = " ".join(re.search(r"`(error: [^`]*)`", readme)[1].split())
    scene = tmp_path / "scene.pgm"
    image.save_pgm(image.make_texture(32, 32, 0), scene)
    assert cli.main(["sweep", "--in", str(scene), "--seed", "-3"]) == 1
    assert capsys.readouterr().err == quoted + "\n"
