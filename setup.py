"""Setuptools configuration for the DARTH-PUM reproduction.

Metadata lives here (rather than in ``pyproject.toml``) so the package can
be installed editable (``pip install -e .``) in offline environments that
lack the ``wheel``/PEP 517 tooling.
"""

from setuptools import find_packages, setup

setup(
    name="darth-pum-repro",
    version="1.1.0",
    description=(
        "Simulation-based reproduction of DARTH-PUM, a hybrid analog-digital "
        "processing-using-memory architecture, with a batched multi-device "
        "serving engine"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
