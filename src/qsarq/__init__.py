"""Quantum-kernel machine learning for QSAR classification.

Statevector encodings of molecular descriptors, fidelity-kernel Gram
matrices, SMO-trained kernel SVMs, basis-expansion regressors, and a
CLI pipeline that compares them on one dataset.
"""

# every module but the CLI, which `python -m qsarq.cli` runs as __main__
from . import (artifact, errors, feature_maps, fields, kernels, pipeline, preprocess,
               regression, svm)

__version__ = "0.1.0"
