"""Compare detections under the RBF and linear kernels.

The normalized dependence measure should not hinge on the kernel
choice: rankings stay aligned and the flagged sets match, with any
top-group swaps confined to near ties. Run it:

    python demos/05_kernel_consistency.py
"""

from dataclasses import replace

from fairdep import encode
from fairdep.synth import default_validation_spec, generate
from fairdep.validation import kernel_consistency

spec = replace(default_validation_spec(seed=3), n=1000)
dataset, _ = generate(spec)
kc = kernel_consistency(encode(dataset))

print(f"{'feature':<16} {'d (rbf)':>10} {'d (linear)':>11}")
for fs_rbf, fs_lin in zip(kc.report_rbf.scores, kc.report_linear.scores):
    print(f"{fs_rbf.name:<16} {fs_rbf.score:>10.4f} {fs_lin.score:>11.4f}")

print(f"\nrank correlation of feature scores across kernels: {kc.spearman_features:.3f}")
print(f"sensitive under rbf:    {kc.sensitive_rbf}")
print(f"sensitive under linear: {kc.sensitive_linear}")
if kc.only_rbf or kc.only_linear:
    print(f"set disagreements: rbf-only {kc.only_rbf}, linear-only {kc.only_linear}")
else:
    print("the flagged sets agree exactly")
if kc.argmax_flips:
    print("top-group swaps (near ties):")
    for flip in kc.argmax_flips:
        print(f"    {flip.feature}: {flip.group_rbf} vs {flip.group_linear} "
              f"(gap {flip.relative_gap:.1%})")
else:
    print("no top-group swaps between kernels")
