"""Legacy setup shim.

The project metadata lives in ``pyproject.toml``; this file exists so that
``pip install -e .`` works in offline environments whose setuptools lacks
the ``wheel`` package (PEP 660 editable builds need it, ``setup.py
develop`` does not).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'High-Performance Multi-Rail Support with the "
        "NewMadeleine Communication Library' (HCW/IPDPS 2007) as a "
        "discrete-event simulation study"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[],
)
