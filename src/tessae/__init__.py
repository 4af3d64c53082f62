"""Tessellated prior matching for Wasserstein auto-encoders."""

from .autoencoder import (AdamState, AutoEncoderParams, adam_step, decode,
                          encode, init_params, load_checkpoint, loss_and_grad,
                          save_checkpoint)
from .batch_design import (AssignmentPlan, distance_matrix, lcm_assign, optimal_assign,
                           sq_dists)
from .data import gen_gaussian_ring, gen_uniform_ball_dataset, load_idx
from .discrepancy import (gsw2_value_and_grad, gw2, gw2_value_and_grad, max_sw2, sw2,
                          sw2_gradient, w2_1d_sorted, wasserstein_exact)
from .experiments import (RateStudyResult, eq19_check, gap_study, rate_study_sw,
                          theorem6_check, variance_check)
from .tessellation import (Tessellation, cvt_energy, e8_roots, e8_tessellation,
                           lloyd_cvt, regions_of, sample_region, sample_regions,
                           sample_unit_ball)
from .trainer import (MetricsLog, TrainConfig, build_tessellation,
                      train_baseline, train_twae, train_twae_regularized)

__version__ = "0.1.0"
