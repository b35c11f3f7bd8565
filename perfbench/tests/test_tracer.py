import sys
import threading

import numpy as np

import fairdep
from layers import TARGETS
from tracer import Target, Tracer, length, overlap, union


def _bindings():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "fairdep" or name.startswith("fairdep."))
        for attr, value in vars(module).items()
        if callable(value)
    }


def _methods():
    from fairdep.detector import DependenceReport
    from fairdep.forest import RandomForest
    from fairdep.validation import ValidationReport

    return {
        (cls.__name__, attr): vars(cls)[attr]
        for cls, attr in (
            (RandomForest, "fit"),
            (RandomForest, "predict"),
            (DependenceReport, "to_json"),
            (ValidationReport, "to_json"),
        )
    }


def test_tracer_restores_every_wrapped_function():
    import fairdep.cli  # noqa: F401  load every module that binds a target

    before, methods = _bindings(), _methods()
    with Tracer(TARGETS) as tracer:
        assert not tracer.absent
        assert fairdep.dependence.gram is not before[("fairdep.dependence", "gram")]
        assert fairdep.forest.RandomForest.fit is not methods[("RandomForest", "fit")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert _methods() == methods


def test_calls_are_recorded_where_callers_look_names_up():
    x = np.arange(20.0)
    with Tracer(TARGETS) as tracer:
        fairdep.dependence.nocco(x, x % 2)
    assert tracer.calls("kernels.gram") == 2
    assert tracer.calls("dependence.dense_solve") == 2
    assert tracer.busy("kernels.gram") > 0


def test_missing_function_is_absent_not_an_error():
    targets = (
        Target("gone.function", "fairdep.dependence", "nocco_against_nothing"),
        Target("gone.method", "fairdep.forest", "RandomForest.no_such_method"),
        Target("gone.module", "fairdep.no_such_module", "anything"),
        Target("kernels.gram", "fairdep.kernels", "gram"),
    )
    with Tracer(targets) as tracer:
        fairdep.kernels.gram(np.arange(3.0))
    assert tracer.absent == {"gone.function", "gone.method", "gone.module"}
    for name in ("gone.function", "gone.method", "gone.module"):
        assert tracer.calls(name) == 0 and tracer.busy(name) == 0
    assert tracer.calls("kernels.gram") == 1


def test_concurrent_calls_are_all_counted():
    threads, calls = 8, 200
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Tracer([Target("kernels.gram", "fairdep.kernels", "gram")]) as tracer:
            def work():
                for _ in range(calls):
                    fairdep.kernels.gram(np.arange(2.0))

            pool = [threading.Thread(target=work) for _ in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in pool)
    finally:
        sys.setswitchinterval(old)
    assert tracer.calls("kernels.gram") == threads * calls


def test_interval_arithmetic():
    assert union([(3, 4), (0, 1), (0.5, 2)]) == [(0, 2), (3, 4)]
    assert length([(0, 2), (1, 3), (5, 6)]) == 4
    assert overlap([(0, 2), (5, 6)], [(1, 5.5)]) == 1.5
    tracer = Tracer(())
    tracer.spans = [("parent", 0.0, 10.0), ("child", 1.0, 4.0), ("child", 3.0, 5.0), ("child", 9.0, 12.0)]
    assert tracer.busy("child") == 7.0
    assert tracer.self_time("parent", ["child"]) == 10.0 - 5.0
