"""Packaging fallback for fully offline environments.

``pip install -e .`` uses pyproject.toml (PEP 660), which requires the
``wheel`` package; where that cannot be fetched, ``python setup.py
develop`` installs the same editable package with no extra
dependencies. Metadata here mirrors pyproject.toml.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Chucky: a succinct Cuckoo filter for LSM-trees (SIGMOD 2021) — "
        "full reproduction"
    ),
    long_description=open("README.md", encoding="utf-8").read(),
    long_description_content_type="text/markdown",
    license="MIT",
    python_requires=">=3.10",
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
    keywords=[
        "lsm-tree",
        "cuckoo-filter",
        "bloom-filter",
        "huffman",
        "key-value-store",
    ],
)
