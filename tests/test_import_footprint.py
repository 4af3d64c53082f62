import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Trains one chunk, runs one gap study and one greedy assignment, then the
# two exact oracles; prints which scipy modules each phase left loaded.
SCRIPT = textwrap.dedent("""
    import sys
    import numpy as np
    import tessae, tessae.cli
    from tessae import (TrainConfig, build_tessellation, gap_study, gen_gaussian_ring,
                        lcm_assign, optimal_assign, train_twae, wasserstein_exact)

    def loaded():
        return sorted(m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules)

    cfg = TrainConfig(m=4, chunk_size=40, epochs=1, latent_dim=2, layer_sizes=[2, 16],
                      lam=1.0, estimator_config={"num_projections": 16}, seed=0)
    ring = gen_gaussian_ring(8, 2.0, 0.2, 40, seed=0)
    tess = build_tessellation(cfg)
    params, _ = train_twae(cfg, ring, tess=tess)
    gap_study(params, tess, ring, n=10, trials=1, num_projections=16, seed=0)
    lcm_assign(ring[:8], tess.generators, 2)
    print(loaded())
    pts = np.arange(8.0).reshape(4, 2)
    value, _ = wasserstein_exact(pts, pts[::-1])
    plan = optimal_assign(pts, pts[:2], 2)
    print(value, plan.cost, loaded())
""")


def test_training_path_loads_no_scipy_optimize_until_an_exact_oracle():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    out = run.stdout.splitlines()
    assert out[0] == "[]"
    assert out[1] == "0.0 48.0 ['scipy.optimize']"
