"""Packaging for the ``repro`` library and its ``repro-accel`` CLI.

Install with ``pip install .`` (or ``pip install -e .`` for development).
Offline environments without the ``wheel`` package can fall back to::

    pip install -e . --no-build-isolation --no-use-pep517
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

HERE = Path(__file__).resolve().parent


def read_version() -> str:
    """``repro.__version__``, read without importing the package (or numpy)."""
    source = (HERE / "src" / "repro" / "__init__.py").read_text(encoding="utf-8")
    match = re.search(r'^__version__ = "([^"]+)"', source, re.MULTILINE)
    if match is None:
        raise RuntimeError("src/repro/__init__.py defines no __version__")
    return match.group(1)


setup(
    name="repro-accel",
    version=read_version(),
    description="Reproduction of 'Modeling Mobile Code Acceleration in the Cloud' (ICDCS 2017)",
    long_description=(HERE / "README.md").read_text(encoding="utf-8"),
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro-accel = repro.cli:main"]},
)
