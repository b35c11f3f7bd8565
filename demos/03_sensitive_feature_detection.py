"""Detect planted sensitive features in a synthetic dataset.

Generates binary group indicators that agree with the label except for
a per-row corruption probability p, plus pure-noise features, then runs
the detector: score every feature/subfeature against the label, take
the median of the feature scores as the threshold, and flag candidates
at or above it. Run it:

    python demos/03_sensitive_feature_detection.py
"""

from fairdep import encode
from fairdep.detector import audit_dataset
from fairdep.synth import PlantedFeature, SynthSpec, generate

spec = SynthSpec(
    n=500,
    planted=(
        PlantedFeature(0.0),
        PlantedFeature(0.1),
        PlantedFeature(0.25),
        PlantedFeature(0.5),
    ),
    noise_binary=1,
    noise_numeric=2,
    balance=0.5,
    seed=11,
)
dataset, truth = generate(spec)
print(f"dataset: n={dataset.n}, planted corruption levels "
      f"{[p.corruption for p in spec.planted]}, plus noise features\n")

encoded, report = audit_dataset(dataset, seed=0)  # encoded.y holds the labels
print(report.table())

print("\nreading the table:")
print("  - p=0.00 copies the label exactly and lands near the NOCCO ceiling")
print("  - scores fall monotonically as corruption grows")
print("  - p=0.50 is an independent coin and scores like the noise columns")
print("  - the median rule always flags the top half of the candidates, so")
print("    on an all-noise tail the cut can land between two weak features")
print(f"\nflagged sensitive: {report.sensitive_features}")
print(f"harmed groups:     {report.sensitive_groups}")
