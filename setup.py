"""Setup shim for environments without PEP 660 editable-install support.

The library has two runtime dependencies: numpy powers the columnar
Gamma kernel (:mod:`repro.privacy.columnar`), and networkx runs the graph
algorithms of structural privacy, soundness checking, repair and
provenance queries (and backs every ``to_networkx`` export).
"""
from setuptools import setup

setup(install_requires=["numpy", "networkx"])
