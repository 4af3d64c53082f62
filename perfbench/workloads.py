"""The benchmark's workloads.

Each workload builds its inputs from a seed (`setup`) and then runs
rounds of its operations on them (`run_round`).  Every call into tessae
resolves the function through its module at call time (`trainer.train_twae`,
not a name bound at import), so the traced run's wrappers see it; output
checks use the functions bound below at import, so they are never traced.
"""

import copy
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from spans import patched
from tessae import (autoencoder, batch_design, data, experiments, tessellation,
                    trainer)
from tessae.tessellation import regions_of as _regions_of

# the criterion-11 configuration of the acceptance suite at 1 of its 30
# epochs, and one E8 chunk of region batches n=10: per-step work is the
# same, and short rounds give a run enough of them for a steady median
RING = dict(m=20, chunk_size=200, epochs=1, latent_dim=2, layer_sizes=[2, 64, 64],
            lam=4.0, alpha=0.2, estimator_config={"num_projections": 64})
E8 = dict(m=241, chunk_size=2410, epochs=1, latent_dim=8, layer_sizes=[16, 64, 64],
          lam=4.0, estimator_config={"num_projections": 64}, tessellation_kind="E8")
# the trainers of a ring round -> the name of the figure of its wall time
RING_TRAINERS = {"train_twae": "twae_s", "train_twae_regularized": "twae_reg_s",
                 "train_baseline": "baseline_s"}
# the criterion-8 timed instance
ASSIGN_POINTS, ASSIGN_GENERATORS, ASSIGN_DIM, ASSIGN_CAPACITY = 20_000, 400, 64, 50
# what a failing tessae operation raises: typed RuntimeErrors
# (TrainingAborted, DegenerateRegionError, ...), the assert on an
# infeasible plan, and numpy floating-point errors
OP_ERRORS = (RuntimeError, AssertionError, ArithmeticError)


@dataclass
class Round:
    """One round: wall time of each timed call ("op": all of the round's
    operations), a message per failed check, and a digest of the outputs."""
    seconds: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    digest: str = ""
    items: int = 0  # training steps or assigned points
    mean_gaps: dict = field(default_factory=dict)  # trainer -> gap_study mean_gap


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def params_digest(params, *extra):
    h = hashlib.sha256()
    for stack in (params.encoder, params.decoder):
        for w, b in stack:
            h.update(np.ascontiguousarray(w, dtype="<f8").tobytes())
            h.update(np.ascontiguousarray(b, dtype="<f8").tobytes())
    for value in extra:
        h.update(np.float64(value).tobytes())
    return h.hexdigest()


def _loss_failures(log):
    bad = [r for r in log.records
           if not (np.isfinite(r["recon"]) and np.isfinite(r["latent"]))]
    return [f"{len(bad)} non-finite logged losses"] if bad else []


def _train_inputs(config, dataset, tess):
    params = autoencoder.init_params(config.layer_sizes, config.latent_dim, config.seed)
    return {"config": config, "dataset": dataset, "tess": tess, "params": params}


class RingTrain:
    """The three trainers in the criterion-11 configuration on the 8-mode
    ring, each followed by the gap study of the model it trained."""

    ops_per_round = 2 * len(RING_TRAINERS)
    op_metric = "round_s"
    rate_metric = "train_steps_per_s"

    def setup(self, seed):
        dataset = data.gen_gaussian_ring(8, 2.0, 0.2, 2000, seed=seed + 1000)
        tess, _ = tessellation.lloyd_cvt(2, 20, seed=seed)
        return _train_inputs(trainer.TrainConfig(seed=seed, **RING), dataset, tess)

    def run_round(self, inputs):
        rnd = Round()
        digests = []
        for name, metric in RING_TRAINERS.items():
            (params, log), rnd.seconds[metric] = _timed(
                getattr(trainer, name), inputs["config"], inputs["dataset"],
                tess=inputs["tess"], params=inputs["params"].copy())
            rnd.failures += [f"{name}: {msg}" for msg in _loss_failures(log)]
            rnd.items += len(log.records)
            gap, seconds = _timed(
                experiments.gap_study, params, inputs["tess"], inputs["dataset"],
                n=50, trials=8, num_projections=256, seed=inputs["config"].seed)
            rnd.seconds["gap_study_s"] = rnd.seconds.get("gap_study_s", 0.0) + seconds
            rnd.mean_gaps[name] = gap["mean_gap"]
            if not np.isfinite(gap["mean_gap"]):
                rnd.failures.append(f"gap_study after {name}: mean_gap {gap['mean_gap']}")
            digests.append(params_digest(params, gap["mean_gap"]))
        rnd.seconds["op"] = sum(rnd.seconds.values())
        rnd.digest = hashlib.sha256("".join(digests).encode()).hexdigest()
        return rnd


def _capturing(sink):
    def make(fn):
        def capture(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append((args, result))
            return result
        return capture
    return make


class E8Chunk:
    """Tessellated training over one chunk on the E8 tessellation."""

    ops_per_round = 1
    op_metric = "train_s"
    rate_metric = "train_steps_per_s"

    def setup(self, seed):
        tess = tessellation.e8_tessellation(seed=seed)
        dataset = data.gen_uniform_ball_dataset(16, E8["chunk_size"], seed=seed + 1000)
        return _train_inputs(trainer.TrainConfig(seed=seed, **E8), dataset, tess)

    def run_round(self, inputs):
        priors, plans = [], []
        rnd = Round()
        with patched({"tessellation.sample_region": _capturing(priors),
                      "batch_design.lcm_assign": _capturing(plans)}):
            (params, log), rnd.seconds["op"] = _timed(
                trainer.train_twae, inputs["config"], inputs["dataset"],
                tess=inputs["tess"], params=inputs["params"].copy())
        rnd.items = len(log.records)
        rnd.failures += _loss_failures(log)
        tess = inputs["tess"]
        stray = sum(int((_regions_of(tess, prior) != args[1]).sum())
                    for args, prior in priors)
        if stray:
            rnd.failures.append(f"{stray} prior points outside their region")
        capacity = inputs["config"].region_batch
        if any(np.any(np.bincount(plan.assignment, minlength=tess.region_count) != capacity)
               for _, plan in plans):
            rnd.failures.append("infeasible assignment plan")
        if len(priors) != rnd.items or len(plans) != 1:
            rnd.failures.append(f"{len(priors)} prior batches and {len(plans)} plans "
                                f"for {rnd.items} steps")
        rnd.digest = params_digest(params)
        return rnd


class AssignLarge:
    """One greedy capacitated assignment at criterion-8 scale."""

    ops_per_round = 1
    op_metric = "assign_s"
    rate_metric = "assign_points_per_s"

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((ASSIGN_POINTS, ASSIGN_DIM))
        generators = 0.1 * rng.standard_normal((ASSIGN_GENERATORS, ASSIGN_DIM))
        return {"points": points, "generators": generators}

    def run_round(self, inputs):
        points, generators = inputs["points"], inputs["generators"]
        rnd = Round(items=len(points))
        plan, rnd.seconds["op"] = _timed(batch_design.lcm_assign, points, generators,
                                         ASSIGN_CAPACITY)
        counts = np.bincount(plan.assignment, minlength=len(generators))
        if len(plan.assignment) != len(points) or np.any(counts != ASSIGN_CAPACITY):
            rnd.failures.append("region sizes differ from the capacity")
        else:
            cost = float(((points - generators[plan.assignment]) ** 2).sum())
            if not np.isclose(cost, plan.cost, rtol=1e-9, atol=0.0):
                rnd.failures.append(f"recorded cost {plan.cost} != recomputed {cost}")
        rnd.digest = hashlib.sha256(
            np.ascontiguousarray(plan.assignment, dtype="<i8").tobytes()).hexdigest()
        return rnd


def attempt(workload, inputs):
    """One round on a fresh copy of the inputs; an operation that raises
    fails every operation of the round.

    The copy lets the placement of small arrays in memory vary between
    rounds: regions_of on the E8 generators ran about 20% slower when
    that array started on a 64-byte boundary, so a run on one placement
    measured either speed.
    """
    inputs = copy.deepcopy(inputs)
    try:
        return workload.run_round(inputs)
    except OP_ERRORS as exc:
        return Round(failures=[f"{type(exc).__name__}: {exc}"] * workload.ops_per_round)


WORKLOADS = {
    "ring-train": RingTrain(),
    "e8-chunk": E8Chunk(),
    "assign-large": AssignLarge(),
}
