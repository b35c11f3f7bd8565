"""fairdep: kernel-dependence screening of sensitive features.

Given a tabular binary-classification dataset, the package one-hot
encodes categorical features, scores every feature and subfeature
against the label vector with a normalized kernel dependence measure
(NOCCO), flags the features scoring at or above the median as sensitive,
and can validate the flags against group-fairness disparities of a
cross-validated random-forest classifier.

The names below load on first use (PEP 562), so importing one
submodule, such as `fairdep.forest` in a validation worker, loads only
that submodule and what it imports.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "data": (
        "Column",
        "Dataset",
        "EncodedDataset",
        "Schema",
        "Subfeature",
        "encode",
        "load_dataset",
        "standardize_numeric",
    ),
    "dependence": ("DependenceConfig", "hsic", "nocco", "regularized_operator"),
    "detector": (
        "DependenceReport",
        "FeatureScore",
        "audit_dataset",
        "detect",
        "score_features",
        "subsample",
    ),
    "errors": ("DataError", "FairdepError", "NumericsError", "SchemaError"),
    "fairness": (
        "FairnessMeasures",
        "GroupConfusion",
        "fairness_measures",
        "group_confusion",
    ),
    "forest": ("ForestConfig", "RandomForest"),
    "kernels": ("LINEAR", "RBF", "KernelSpec", "center", "gram"),
    "synth": ("PlantedFeature", "SynthSpec", "generate"),
    "validation": (
        "KernelConsistency",
        "ValidationReport",
        "cross_validate",
        "kernel_consistency",
        "validate",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SOURCE, *_SUBMODULES})
