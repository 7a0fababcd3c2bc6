"""Quantum-kernel machine learning for QSAR classification.

Statevector encodings of molecular descriptors, fidelity-kernel Gram
matrices, SMO-trained kernel SVMs, basis-expansion regressors, and a
CLI pipeline that compares them on one dataset.
"""

from .errors import InternalConsistencyError, ResourceLimitError
from .feature_maps import (
    FeatureMapSpec,
    encode,
    encode_batch,
    entanglement_pairs,
)
from .kernels import (
    GramMatrix,
    KernelConfig,
    cross_gram,
    gram,
    kernel_value,
    load_gram,
    save_gram,
)
from .pipeline import (
    EvalReport,
    ExperimentConfig,
    ModelEntry,
    accuracy,
    load_experiment_config,
    run_experiment,
    split_indices,
)
from .preprocess import (
    DescriptorTable,
    PcaModel,
    ScalerModel,
    label_from_activity,
    minmax_fit,
    minmax_transform,
    pca_fit,
    pca_transform,
    pec50,
    read_descriptor_csv,
)
from .regression import (
    AnnealSchedule,
    BasisSpec,
    RegModel,
    fit_annealing,
    fit_least_squares,
    load_reg_model,
    save_reg_model,
)
from .svm import (
    SvmConfig,
    SvmModel,
    decision_value,
    decision_values,
    load_svm_model,
    save_svm_model,
    train,
)

__version__ = "0.1.0"
