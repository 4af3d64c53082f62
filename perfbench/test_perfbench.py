"""Tests of the benchmark's own code: span arithmetic and the wrappers of
the traced run."""

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
from spans import Span, Tracer, covered_seconds, patched, roots, self_seconds

import tessae
from tessae import data, tessellation, trainer


def _tree():
    # root [0, 10] with children [1, 4] (holding [2, 3]) and two
    # overlapping children [5, 9] and [8, 11], the last one clipped at 10
    return [Span("root", 0.0, 10.0, -1), Span("a", 1.0, 4.0, 0),
            Span("a.inner", 2.0, 3.0, 1), Span("b", 5.0, 9.0, 0),
            Span("c", 8.0, 11.0, 0)]


def test_self_seconds_subtract_the_union_of_child_spans():
    assert self_seconds(_tree()) == pytest.approx([10 - 3 - 5, 3 - 1, 1, 4, 3])
    assert covered_seconds([(1, 2), (1.5, 3)], 0, 2.5) == pytest.approx(1.5)
    assert roots(_tree()) == ["root"] * 5


def test_layer_metrics_on_a_synthetic_trace():
    train = "trainer.train_twae"
    region = "tessellation.sample_region"
    draw = "tessellation.sample_unit_ball"
    ops = [Span(train, 0.0, 10.0, -1),
           Span(region, 1.0, 3.0, 0, {"rows": 5}),
           Span(draw, 1.0, 1.5, 1, {"rows": 40}),
           Span(draw, 2.0, 2.5, 1, {"rows": 60}),
           Span("batch_design.lcm_assign", 4.0, 6.0, 0, {"cost": 3.0, "points": 12}),
           Span("batch_design.distance_matrix", 4.0, 4.5, 4),
           Span(region, 11.0, 12.0, -1, {"rows": 5}),  # outside any trainer
           Span(draw, 11.0, 11.5, 6, {"rows": 100}),
           Span("trainer.train_twae_regularized", 12.0, 16.0, -1),
           Span("seeding.derive_rng", 13.0, 14.0, 8)]
    setup = [Span("tessellation.lloyd_cvt", 0.0, 0.25, -1)]
    got = layers.layer_metrics(setup, ops, n_ops=2)
    assert list(got) == [name for name, _, _ in layers.PER_LAYER]
    assert got[f"{region}.calls"] == 1
    assert got[f"{region}.draws"] == 100
    assert got[f"{region}.accept_ratio"] == pytest.approx(10 / 200)
    assert got[f"{train}.self_s"] == pytest.approx((10 - 2 - 2) / 2)
    assert got["batch_design.lcm_assign.self_s"] == pytest.approx(1.5 / 2)
    assert got["batch_design.lcm_assign.cost_per_point"] == pytest.approx(0.25)
    assert got["tessellation.lloyd_cvt.s"] == pytest.approx(0.25)
    assert got["profile.sample_region_share_of_train"] == pytest.approx(2 / 14)
    assert got["profile.derive_rng_share_of_twae_reg"] == pytest.approx(0.25)
    assert got["profile.distance_matrix_share_of_lcm"] == pytest.approx(0.25)
    assert got["seeding.derive_rng.calls"] == 0.5


def _bindings():
    """Every tessae module attribute that holds a traced function."""
    targets = {}
    for target in layers.TARGETS:
        module, attr = target.rsplit(".", 1)
        targets[id(getattr(sys.modules[f"tessae.{module}"], attr))] = target
    return {(name, key): value for name, mod in sys.modules.items()
            if name == "tessae" or name.startswith("tessae.")
            for key, value in vars(mod).items() if id(value) in targets}


def _tiny_training():
    dataset = data.gen_gaussian_ring(8, 2.0, 0.2, 16, seed=3)
    config = trainer.TrainConfig(m=2, chunk_size=8, epochs=1, latent_dim=2,
                                 layer_sizes=[2, 4], estimator_config={"num_projections": 8},
                                 seed=3)
    tess, _ = tessellation.lloyd_cvt(2, 2, seed=3)
    params, _ = trainer.train_twae(config, dataset, tess=tess)
    return params


def test_traced_run_removes_its_wrappers_and_changes_no_output():
    before = _bindings()
    assert len(before) > len(layers.TARGETS)  # re-exports and importers too
    plain = _tiny_training()
    tracer = Tracer()
    with layers.traced(tracer):
        assert all(getattr(sys.modules[name], key) is not fn
                   for (name, key), fn in before.items())
        traced = _tiny_training()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {span.name for span in tracer.spans}
    assert {"trainer.train_twae", "batch_design.lcm_assign", "discrepancy.sw2",
            "tessellation.sample_region", "seeding.derive_rng"} <= names
    for (w1, b1), (w2, b2) in zip(plain.encoder + plain.decoder,
                                  traced.encoder + traced.decoder):
        assert np.array_equal(w1, w2) and np.array_equal(b1, b2)


def test_patched_restores_after_an_error():
    original = tessae.batch_design.lcm_assign
    with pytest.raises(KeyError):
        with patched({"batch_design.lcm_assign": lambda fn: None}):
            assert tessae.trainer.lcm_assign is None
            raise KeyError
    assert tessae.trainer.lcm_assign is original
    assert tessae.batch_design.lcm_assign is original


def test_benchmark_json_lists_the_per_layer_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in layers.PER_LAYER]


def _run_module():
    """perfbench/run.py, imported without keeping the BLAS thread pins it
    sets in os.environ."""
    saved = dict(os.environ)
    try:
        import run
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return run


def test_op_per_ref_is_the_median_round_over_reference_ratio():
    run = _run_module()
    from workloads import WORKLOADS, Round
    # rounds of 2, 3 and 8 s between reference times (1, 1), (1, 2), (2, 2)
    refs = [1.0, 1.0, 2.0, 2.0]
    rounds = [Round(seconds={"op": op}, items=12) for op in (2.0, 3.0, 8.0)]
    figures = run.summary(WORKLOADS["e8-chunk"], [0.3, 0.1, 0.2],
                          list(zip(rounds, refs, refs[1:])))
    assert figures["op_per_ref"] == (pytest.approx(2.0), "ratio")  # of 2, 2, 4
    assert figures["setup_s"] == (pytest.approx(0.2), "s")
    assert figures["train_s"] == (pytest.approx(3.0), "s")
    assert figures["train_steps_per_s"] == (pytest.approx(4.0), "1/s")
