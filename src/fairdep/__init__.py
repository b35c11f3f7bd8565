"""fairdep: kernel-dependence screening of sensitive features.

Given a tabular binary-classification dataset, the package one-hot
encodes categorical features, scores every feature and subfeature
against the label vector with a normalized kernel dependence measure
(NOCCO), flags the features scoring at or above the median as sensitive,
and can validate the flags against group-fairness disparities of a
cross-validated random-forest classifier.

Importing the package imports every module but `fairdep.cli`, which
`python -m fairdep.cli` runs as its main module; runpy warns when the
package has imported that module already.
"""

import numpy.ma  # else np.unique (numpy 2.4) imports it at its first call, inside a command
import numpy.random  # else the first np.random call imports it, inside a command

from .data import Column, Dataset, EncodedDataset, Schema, Subfeature
from .data import encode, load_dataset, standardize_numeric
from .dependence import DependenceConfig, hsic, nocco, regularized_operator
from .detector import DependenceReport, FeatureScore
from .detector import audit_dataset, detect, score_features, subsample
from .errors import DataError, FairdepError, NumericsError, SchemaError, WorkerError
from .fairness import FairnessMeasures, GroupConfusion, fairness_measures, group_confusion
from .forest import ForestConfig, RandomForest
from .kernels import LINEAR, RBF, KernelSpec, center, gram
from .synth import PlantedFeature, SynthSpec, generate
from .validation import KernelConsistency, ValidationReport
from .validation import cross_validate, kernel_consistency, validate

__version__ = "0.1.0"

__all__ = [
    "Column", "DataError", "Dataset", "DependenceConfig", "DependenceReport", "EncodedDataset",
    "FairdepError", "FairnessMeasures", "FeatureScore", "ForestConfig", "GroupConfusion",
    "KernelConsistency", "KernelSpec", "LINEAR", "NumericsError", "PlantedFeature", "RBF",
    "RandomForest", "Schema", "SchemaError", "Subfeature", "SynthSpec", "ValidationReport",
    "WorkerError", "audit_dataset", "center", "cross_validate", "detect", "encode",
    "fairness_measures", "generate", "gram", "group_confusion", "hsic", "kernel_consistency",
    "load_dataset", "nocco", "regularized_operator", "score_features", "standardize_numeric",
    "subsample", "validate",
]
