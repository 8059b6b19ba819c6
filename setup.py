"""Package metadata for the reproduction.

Installable with ``pip install -e .``; ``repro-experiments`` regenerates the
paper's figures from the command line.
"""

from setuptools import find_packages, setup

setup(
    name="repro-mqo",
    version="1.0.0",
    description=(
        "Reproduction of 'Efficient and Provable Multi-Query Optimization' "
        "(Kathuria & Sudarshan, PODS 2017) with a persistent cross-batch "
        "optimizer session that executes plans through a fingerprint-keyed "
        "materialization cache"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    extras_require={
        "test": ["pytest", "pytest-cov"],
    },
    entry_points={
        "console_scripts": [
            "repro-experiments=repro.experiments.runner:main",
        ],
    },
)
