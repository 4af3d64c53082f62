"""The tessae functions the traced run wraps, and the per-layer metrics
derived from their spans."""

import inspect

from spans import patched, roots, self_seconds

TRAINERS = ("trainer.train_twae", "trainer.train_twae_regularized",
            "trainer.train_baseline")
REGULARIZED = "trainer.train_twae_regularized"


def _returned_rows(args, kwargs, result):
    return {"rows": len(result)}


def _plan_cost(args, kwargs, result):
    return {"cost": result.cost, "points": result.size}


def _projected_values(fn):
    default = inspect.signature(fn).parameters["num_projections"].default

    def measure(args, kwargs, result):
        projections = args[2] if len(args) > 2 else kwargs.get("num_projections", default)
        return {"values": len(args[0]) * projections}
    return measure


# "module.function" of tessae -> measure factory (None: time only)
TARGETS = {
    "data.gen_gaussian_ring": None,
    "data.gen_uniform_ball_dataset": None,
    "tessellation.lloyd_cvt": None,
    "tessellation.e8_tessellation": None,
    "tessellation.sample_unit_ball": lambda fn: _returned_rows,
    "tessellation.sample_region": lambda fn: _returned_rows,
    "tessellation.regions_of": None,
    "batch_design.lcm_assign": lambda fn: _plan_cost,
    "batch_design.distance_matrix": None,
    "discrepancy.sw2": _projected_values,
    "discrepancy.sw2_gradient": _projected_values,
    "autoencoder.init_params": None,
    "autoencoder.encode": None,
    "autoencoder.loss_and_grad": None,
    "autoencoder.adam_step": None,
    "seeding.derive_rng": None,
    "trainer.train_twae": None,
    "trainer.train_twae_regularized": None,
    "trainer.train_baseline": None,
    "experiments.gap_study": None,
}

# (metric, unit, better) in report order
PER_LAYER = (
    [("tessellation.sample_region.calls", "count", "lower"),
     ("tessellation.sample_region.s", "s", "lower"),
     ("tessellation.sample_region.draws", "count", "lower"),
     ("tessellation.sample_region.accept_ratio", "ratio", "higher"),
     ("tessellation.regions_of.s", "s", "lower"),
     ("tessellation.lloyd_cvt.s", "s", "lower"),
     ("tessellation.e8_tessellation.s", "s", "lower"),
     ("batch_design.lcm_assign.calls", "count", "lower"),
     ("batch_design.lcm_assign.s", "s", "lower"),
     ("batch_design.lcm_assign.self_s", "s", "lower"),
     ("batch_design.lcm_assign.cost_per_point", "sq_dist", "lower"),
     ("batch_design.distance_matrix.s", "s", "lower"),
     ("discrepancy.sw2.calls", "count", "lower"),
     ("discrepancy.sw2.s", "s", "lower"),
     ("discrepancy.sw2_gradient.calls", "count", "lower"),
     ("discrepancy.sw2_gradient.s", "s", "lower"),
     ("discrepancy.projected_values", "count", "lower"),
     ("autoencoder.loss_and_grad.calls", "count", "lower"),
     ("autoencoder.loss_and_grad.self_s", "s", "lower"),
     ("autoencoder.adam_step.calls", "count", "lower"),
     ("autoencoder.adam_step.s", "s", "lower"),
     ("autoencoder.encode.s", "s", "lower"),
     ("seeding.derive_rng.calls", "count", "lower"),
     ("seeding.derive_rng.s", "s", "lower")]
    + [(f"{t}.self_s", "s", "lower") for t in TRAINERS]
    + [("experiments.gap_study.self_s", "s", "lower"),
       ("data.gen_gaussian_ring.s", "s", "lower"),
       ("data.gen_uniform_ball_dataset.s", "s", "lower"),
       ("profile.sample_region_share_of_train", "ratio", "lower"),
       ("profile.derive_rng_share_of_twae_reg", "ratio", "lower"),
       ("profile.distance_matrix_share_of_lcm", "ratio", "lower")])


def traced(tracer):
    """Context manager that routes every target through tracer."""
    return patched({target: (lambda fn, target=target, make=make:
                             tracer.wrap(target, fn, make(fn) if make else None))
                    for target, make in TARGETS.items()})


def summarize(spans):
    """Totals per span name: calls, s, self_s and summed amounts; and the
    seconds of each name spent under each trainer root, keyed (root, name)."""
    stats = {}
    train = {}
    for span, own, root in zip(spans, self_seconds(spans), roots(spans)):
        entry = stats.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += span.seconds
        entry["self_s"] += own
        for key, value in (span.amounts or {}).items():
            entry[key] = entry.get(key, 0) + value
        if span.name == "tessellation.sample_unit_ball" and span.parent >= 0 \
                and spans[span.parent].name == "tessellation.sample_region":
            parent = stats["tessellation.sample_region"]
            parent["draws"] = parent.get("draws", 0) + span.amounts["rows"]
        if root in TRAINERS:
            train[root, span.name] = train.get((root, span.name), 0.0) + span.seconds
    return stats, train


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(setup_spans, op_spans, n_ops):
    """Per-layer metrics of one traced set-up plus n_ops traced rounds:
    set-up layers per set-up, the rest per round."""
    setup, _ = summarize(setup_spans)
    ops, train = summarize(op_spans)

    def per(name, key):
        return (setup.get(name, {}).get(key, 0)
                + ops.get(name, {}).get(key, 0) / n_ops)

    out = {}
    for metric, _, _ in PER_LAYER:
        prefix, _, key = metric.rpartition(".")
        if key in ("calls", "s", "self_s"):
            out[metric] = per(prefix, key)
    out["tessellation.sample_region.draws"] = per("tessellation.sample_region", "draws")
    out["discrepancy.projected_values"] = (per("discrepancy.sw2", "values")
                                           + per("discrepancy.sw2_gradient", "values"))
    region = ops.get("tessellation.sample_region", {})
    out["tessellation.sample_region.accept_ratio"] = _ratio(region.get("rows", 0),
                                                            region.get("draws", 0))
    lcm = ops.get("batch_design.lcm_assign", {})
    out["batch_design.lcm_assign.cost_per_point"] = _ratio(lcm.get("cost", 0.0),
                                                           lcm.get("points", 0))
    train_s = sum(train.get((t, t), 0.0) for t in TRAINERS)
    out["profile.sample_region_share_of_train"] = _ratio(
        sum(train.get((t, "tessellation.sample_region"), 0.0) for t in TRAINERS), train_s)
    out["profile.derive_rng_share_of_twae_reg"] = _ratio(
        train.get((REGULARIZED, "seeding.derive_rng"), 0.0),
        train.get((REGULARIZED, REGULARIZED), 0.0))
    out["profile.distance_matrix_share_of_lcm"] = _ratio(
        out["batch_design.distance_matrix.s"], out["batch_design.lcm_assign.s"])
    return {metric: out[metric] for metric, _, _ in PER_LAYER}

