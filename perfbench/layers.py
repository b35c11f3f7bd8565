"""The program's layers as tracer targets, and the per-layer metrics.

Every name here is a public function or method of the `fairdep`
package. `CHILDREN` names the layers whose time is subtracted for a
self time; `cli.main` is the span the job records around
`fairdep.cli.main` itself.
"""

from __future__ import annotations

from tracer import Target


def _rows(result, args, kwargs):
    return {"rows_loaded": result.n, "rows_dropped": result.dropped_rows}


def _width(result, args, kwargs):
    return {"encoded_width": result.width}


def _evaluations(result, args, kwargs):
    # the detector scores every indicator of a categorical feature with
    # three or more groups, and one column for any other feature
    return {
        "columns_scored": sum(
            len(fs.subfeature_names) if fs.kind == "categorical" and len(fs.subfeature_names) >= 3 else 1
            for fs in result
        )
    }


def _nodes(result, args, kwargs):
    return {"forest_nodes": sum(len(tree.feature) for tree in result.trees)}


TARGETS = (
    Target("data.load", "fairdep.data", "load_dataset", _rows),
    Target("data.encode", "fairdep.data", "encode", _width),
    Target("detector.subsample", "fairdep.detector", "subsample"),
    Target("detector.score", "fairdep.detector", "score_features", _evaluations),
    Target("detector.detect", "fairdep.detector", "detect"),
    Target("dependence.dense_solve", "fairdep.dependence", "regularized_operator"),
    Target("kernels.gram", "fairdep.kernels", "gram"),
    Target("validation.validate", "fairdep.validation", "validate"),
    Target("validation.cross_validate", "fairdep.validation", "cross_validate"),
    Target("forest.fit", "fairdep.forest", "RandomForest.fit", _nodes),
    Target("forest.predict", "fairdep.forest", "RandomForest.predict"),
    Target("fairness.measures", "fairdep.fairness", "group_confusion"),
    Target("fairness.measures", "fairdep.fairness", "fairness_measures"),
    Target("cli.report_write", "fairdep.detector", "DependenceReport.to_json"),
    Target("cli.report_write", "fairdep.validation", "ValidationReport.to_json"),
)

CHILDREN = {
    "cli.main": (
        "data.load",
        "data.encode",
        "detector.subsample",
        "detector.score",
        "detector.detect",
        "validation.validate",
        "cli.report_write",
    ),
    "validation.validate": ("validation.cross_validate", "fairness.measures"),
}

# (metric, unit) in the order of BENCHMARK.json's per_layer list
METRICS = (
    ("data.load_s", "s"),
    ("data.rows_loaded", "count"),
    ("data.rows_dropped", "count"),
    ("data.load_rows_per_s", "1/s"),
    ("data.encode_s", "s"),
    ("data.encoded_width", "count"),
    ("detector.subsample_s", "s"),
    ("detector.score_s", "s"),
    ("detector.columns_scored", "count"),
    ("detector.score_ms_per_column", "ms"),
    ("dependence.dense_solves", "count"),
    ("dependence.dense_solve_s", "s"),
    ("kernels.gram_calls", "count"),
    ("kernels.gram_s", "s"),
    ("detector.detect_s", "s"),
    ("forest.fits", "count"),
    ("forest.fit_s", "s"),
    ("forest.predict_s", "s"),
    ("forest.nodes", "count"),
    ("validation.cross_validate_s", "s"),
    ("validation.validate_self_s", "s"),
    ("fairness.calls", "count"),
    ("fairness.measures_s", "s"),
    ("cli.report_write_s", "s"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.span_coverage", "share"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer numbers of one traced job (all but `trace.overhead_s`)."""
    wall = tracer.busy("cli.main")
    score = tracer.busy("detector.score")
    load = tracer.busy("data.load")
    columns = tracer.counts["columns_scored"]
    rows = tracer.counts["rows_loaded"] + tracer.counts["rows_dropped"]
    main_self = tracer.self_time("cli.main", CHILDREN["cli.main"])
    return {
        "data.load_s": load,
        "data.rows_loaded": tracer.counts["rows_loaded"],
        "data.rows_dropped": tracer.counts["rows_dropped"],
        "data.load_rows_per_s": rows / load if load > 0 else 0.0,
        "data.encode_s": tracer.busy("data.encode"),
        "data.encoded_width": tracer.counts["encoded_width"],
        "detector.subsample_s": tracer.busy("detector.subsample"),
        "detector.score_s": score,
        "detector.columns_scored": columns,
        "detector.score_ms_per_column": 1000.0 * score / columns if columns else 0.0,
        "dependence.dense_solves": tracer.calls("dependence.dense_solve"),
        "dependence.dense_solve_s": tracer.busy("dependence.dense_solve"),
        "kernels.gram_calls": tracer.calls("kernels.gram"),
        "kernels.gram_s": tracer.busy("kernels.gram"),
        "detector.detect_s": tracer.busy("detector.detect"),
        "forest.fits": tracer.calls("forest.fit"),
        "forest.fit_s": tracer.busy("forest.fit"),
        "forest.predict_s": tracer.busy("forest.predict"),
        "forest.nodes": tracer.counts["forest_nodes"],
        "validation.cross_validate_s": tracer.busy("validation.cross_validate"),
        "validation.validate_self_s": tracer.self_time(
            "validation.validate", CHILDREN["validation.validate"]
        ),
        "fairness.calls": tracer.calls("fairness.measures"),
        "fairness.measures_s": tracer.busy("fairness.measures"),
        "cli.report_write_s": tracer.busy("cli.report_write"),
        "cli.self_s": main_self,
        "trace.wall_s": wall,
        "trace.span_coverage": 1.0 - main_self / wall if wall > 0 else 0.0,
    }
