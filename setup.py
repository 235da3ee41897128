"""Package metadata for ``pip install .`` (and legacy editable installs).

The object engine, model checker, store and service are pure Python;
numpy is needed only by the columnar batch backend, so it is the
``batch`` extra: ``pip install '.[batch]'``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Uniform deployment of mobile agents in asynchronous rings: "
        "simulator, exhaustive model checker and schedule fuzzer"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    extras_require={"batch": ["numpy"]},
)
