"""Setup shim for environments without PEP 660 editable-install support.

numpy powers the columnar Gamma kernel (:mod:`repro.privacy.columnar`)
and is the one runtime dependency; the library does not import without
it.
"""
from setuptools import setup

setup(install_requires=["numpy"])
