"""The package builds as ``pyproject.toml`` declares it.

The build runs offline, in a subprocess, on a copy of the files an
sdist is made from, so the checkout is left untouched.
"""
import re
import shutil
import subprocess
import sys
import tarfile
import tomllib
from pathlib import Path

import setuptools

ROOT = Path(__file__).resolve().parents[1]


def version(text):
    return tuple(int(part) for part in re.findall(r"\d+", text)[:2])


def test_installed_setuptools_meets_the_declared_floor():
    declared = tomllib.loads((ROOT / "pyproject.toml").read_text())
    (requirement,) = declared["build-system"]["requires"]
    floor = re.fullmatch(r"setuptools>=([\d.]+)", requirement).group(1)
    assert version(setuptools.__version__) >= version(floor)


def test_sdist_holds_the_sources_and_the_entry_point(tmp_path):
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, tmp_path / name)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__",
                                                  "*.egg-info"))
    code = ("import setuptools.build_meta as backend; "
            "print(backend.build_sdist('dist'))")
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    archive = tmp_path / "dist" / done.stdout.strip().splitlines()[-1]
    with tarfile.open(archive) as tar:
        names = set(tar.getnames())
        (top,) = {name.split("/")[0] for name in names}
        entry = tar.extractfile(
            f"{top}/src/lovebem.egg-info/entry_points.txt").read().decode()
    sources = {f"{top}/src/lovebem/{path.name}"
               for path in (ROOT / "src" / "lovebem").glob("*.py")}
    assert sources and sources <= names
    assert "lovebem = lovebem.cli:main" in entry.splitlines()
