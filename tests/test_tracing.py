"""The benchmark's tracer against the call sites it wraps, on one tiny
traced pass built as `perfbench/test_smoke.py` builds its runs."""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = replace(
    WORKLOADS["train-accept"], name="tiny",
    gen={"train_scenes": 16, "cold_scenes": 4, "examples_per_scene": 120,
         "users": 60, "items_per_scene": 40},
    setup_reps=1, candidates=10, cold_per_round=4, warm_per_round=4,
    min_requests=8, min_passes=2, trace_rounds=1)


@pytest.fixture(scope="module")
def spans():
    """Each span name of one traced pass with its summary."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        harness.run_pass(TINY, 3, None, 1, tracer=tracer, rounds=TINY.trace_rounds)
    finally:
        tracer.uninstall()
    return tracer.by_name()


def test_every_wrapped_name_is_called(spans):
    # Nothing in swan calls profile_new_scene; the span stays for the
    # benchmark's own cold-scene checks, which call it untraced.
    idle = {name for _, _, name in tracing.WRAPPED if name not in spans}
    assert idle == {"srg.profile_new_scene"}


def test_similar_scenes_once_per_batch_build(spans):
    # The workload trains and serves the full model only, so every
    # encode_batch call is one of its batch builds: the training set, each
    # evaluate() pass and each request.
    builds = spans["features.encode_batch"]["calls"]
    assert builds == 1 + 1 + TINY.round_size
    assert spans["srg.similar_scenes"]["calls"] == builds
