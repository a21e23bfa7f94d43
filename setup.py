"""Package metadata for ``repro``, the only build configuration in the repo.

The library lives under ``src/`` and needs numpy alone.  The version is read
from ``repro.__version__`` so it is defined in one place.  Offline
environments (no ``wheel`` package available) install it with
``pip install -e . --no-use-pep517 --no-build-isolation`` or
``python setup.py develop``; everything else runs from a checkout with
``PYTHONPATH=src``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', INIT.read_text(),
                    re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
