"""Legacy setup shim.

The canonical build configuration lives in ``pyproject.toml``; this file
exists so ``pip install -e . --no-use-pep517`` works in offline environments
where the ``wheel`` package (required by the PEP 517 editable path) is not
installed.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy"],
    python_requires=">=3.9",
)
