"""Deterministic simulator for chunkwise denoising cache reuse and
fixed-budget KV compression in autoregressive video generation."""

__version__ = "0.1.0"

from .armodel import (ChunkState, CostModel, SceneConfig, active_window,
                      ideal_velocity, make_clean_latent, make_initial_noise,
                      perturbed_velocity, run_denoise, total_global_steps,
                      trajectory, velocity_noise_seeds)
from .config import PROFILES, build_objects, resolve_config
from .errors import (DegenerateInput, InternalError, InvalidComparison,
                     InvalidConfig, InvalidInput, SimulatorError, Singularity)
from .kvcache import (CompressionReport, KVBuffer, KVPlan, importance,
                      pooled_importance, redundancy_fast, score_candidates,
                      select_tokens)
from .numerics import l1_norm, maxpool1d, stable_topk
from .reuse import Decision, ReusePolicy, decide, estimate_metric
from .schedule import PowerLawSchedule, euler_step
from .trace import RunTrace, curves_csv, import_trace, speedup
