"""Legacy setup shim.

The evaluation environment is offline and lacks the ``wheel`` package, so
PEP 517 editable installs cannot build. This shim lets
``pip install -e .`` fall back to ``setup.py develop``.  This file is the
only packaging metadata the repository has.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
