"""Setup shim.

The environment ships setuptools without the ``wheel`` package, so
PEP 517 editable installs fail with ``invalid command 'bdist_wheel'``.
This shim lets ``pip install -e . --no-use-pep517`` (and plain
``python setup.py develop``) work.

Metadata is declared here rather than in a ``pyproject.toml`` because
the baked-in toolchain predates reliable PEP 621 editable support.
numpy is the one runtime dependency: the message fabric
(``repro.sim.fabric``) decides each round's removals as a numpy mask.
"""

from setuptools import find_packages, setup

setup(
    name="repro-homonyms",
    version="1.0.0",
    description=(
        "Reproduction of Byzantine agreement with homonyms "
        "(Delporte-Gallet et al., PODC 2011)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
)
