"""scripts/src_size.py counts the code lines of each module of the package."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "src_size.py"

MODULE = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts


# a comment line does not count
def area(r):
    """A function's docstring."""
    text = """a string over
two lines"""
    return math.pi * r ** 2, text


class Shape:
    """A class docstring."""

    sides = (
        3,
    )
'''


def run(cwd):
    return subprocess.run([sys.executable, str(SCRIPT)], cwd=cwd, capture_output=True,
                          text=True, timeout=60)


def test_src_size_counts_code_lines_outside_docstrings_and_comments(tmp_path):
    package = tmp_path / "src" / "funcbreak"
    package.mkdir(parents=True)
    (package / "shapes.py").write_text(MODULE)
    (package / "__init__.py").write_text('"""Only a docstring."""\n')
    done = run(tmp_path)
    assert done.returncode == 0, done.stderr
    # import, def, the string's two lines, return, class, and the three lines of sides
    assert done.stdout.splitlines() == [
        f"{0:7d} src/funcbreak/__init__.py",
        f"{9:7d} src/funcbreak/shapes.py",
        f"{9:7d} total",
    ]


def test_src_size_lists_every_module_of_the_package():
    root = SCRIPT.parents[1]
    done = run(root)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[1] for line in lines[:-1]] == [
        str(path.relative_to(root)) for path in sorted((root / "src" / "funcbreak").glob("*.py"))]
    counts = [int(line.split()[0]) for line in lines]
    assert lines[-1].endswith(" total") and counts[-1] == sum(counts[:-1]) > 0
