"""Check that high dependence predicts high disparity.

Trains a random forest under stratified 10-fold cross-validation on a
planted-signal dataset, computes the four group-fairness measures for
every indicator subfeature on held-out rows, and correlates their
cross-fold means with the dependence scores. Strong group indicators
should show large disparities, weak ones small disparities.

Scaled down (n=1200, 40 trees) to finish in under a minute; the
acceptance suite runs the full-size version. Run it:

    python demos/04_fairness_validation.py
"""

from dataclasses import replace

import numpy as np

from fairdep import ForestConfig, encode
from fairdep.detector import detect, score_features
from fairdep.synth import default_validation_spec, generate
from fairdep.validation import validate

spec = replace(default_validation_spec(seed=7), n=1200)
dataset, _ = generate(spec)
encoded = encode(dataset)

scores = score_features(encoded)  # against encoded.y, the labels
report = detect(scores, config={"kernel": "rbf"})

vrep = validate(
    encoded,
    report,
    folds=10,
    forest=ForestConfig(n_trees=40, seed=7),
    seed=7,
)

print(f"cross-validated accuracy: {np.mean(vrep.fold_accuracy):.3f}\n")
print(f"{'subfeature':<18} {'nocco':>8} {'f_pe':>8} {'f_ep':>8} {'f_eo':>8} {'f_oae':>8}")
for r in sorted(vrep.records, key=lambda r: -r.nocco):
    cells = [f"{r.means[k]:.3f}" if r.means[k] is not None else "  n/a" for k in
             ("f_pe", "f_ep", "f_eo", "f_oae")]
    print(f"{r.name:<18} {r.nocco:>8.4f} " + " ".join(f"{c:>8}" for c in cells))

print("\nrank correlation between dependence and mean disparity:")
for key, rho in vrep.spearman.items():
    print(f"    {key}: {rho:+.3f}" if rho is not None else f"    {key}: n/a")
print("\nhigher dependence, higher disparity: the ordering is what the")
print("detector's median rule exploits when it flags sensitive features.")
