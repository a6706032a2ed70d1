"""The benchmark tracer's view of the library.

``perfbench/tracing.py`` wraps library callables by name at run time, so a
rename or a deleted function would only show when ``--trace 1`` runs.
These tests read the tracer's tables and fail at once instead.
"""
import importlib.util
import inspect
import pathlib

import pytest

from l2mbqc import mbqc, qsp, sim
from l2mbqc.mbqc import mod3_protocol

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_exists(tracing):
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in tracing._SPANS
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_replaced_methods_exist():
    for cls, attr in ((sim.DenseEngine, "copy"),
                      (mbqc.MeasurementSchedule, "to_json"),
                      (mbqc.MeasurementSchedule, "from_json")):
        assert attr in vars(cls), f"{cls.__name__}.{attr}"


def test_shots_is_third_positional():
    # the sim.shots counter reads args[2] of run_schedule_batch
    params = list(inspect.signature(sim.run_schedule_batch).parameters)
    assert params[2] == "shots"


def test_tracer_installs_and_restores(tracing):
    original, s = sim.run_schedule_batch, mod3_protocol(1)
    with tracing.Tracer() as tr:
        sim.run_schedule_batch(s, 1, 3, 0)
    assert sim.run_schedule_batch is original
    assert [span[0] for span in tr.spans] == ["sim.sample"]
    assert tr.counts["sim.shots"] == 3


def test_synthesis_layers_each_get_one_span(tracing):
    # the synth workload's per-layer metrics are the self times of these
    with tracing.Tracer() as tr:
        qsp.synthesize_mod_p(5, 0)
    names = [span[0] for span in tr.spans]
    layers = ("qsp.interp", "qsp.complete", "qsp.peel", "qsp.check")
    assert {name: names.count(name) for name in layers} == dict.fromkeys(layers, 1)
    # the root polish is the completion's own time: no span runs inside it,
    # and mpmath's root finder no longer runs at all
    complete = names.index("qsp.complete")
    assert [span for span in tr.spans if span[3] == complete] == []
    assert tr.spans[tr.spans[complete][3]][0] == "qsp.other"
    assert tr.counts["qsp.polyroots_calls"] == 0


def test_compiled_flag_read_by_sample_workload():
    # workloads.Sample demands min_analytic exactly where s.compiled holds
    modp = mbqc.modp_protocol(5, 0, 3, qsp.reference_angles(5))
    assert modp.compiled is True
    assert mbqc.or_protocol(6).compiled is False
