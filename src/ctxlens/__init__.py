"""ctxlens: how much context does a next-token prediction actually need?

Probes the shortest suffix that reproduces a model's prediction, detects
long- vs short-context positions from a single divergence score, and boosts
long-context tokens during decoding when that score fires.
"""

__version__ = "0.1.0"

from .dist import JSD_MAX, PowerLawFit, TokenDistribution, fit_power_law, jsd, set_metrics, tvd
from .decoding import DecodingStrategy, apply_strategy, confidence, derive_seed, sample, top1
from .probe import PrefixGrid, ProbeResult, damcl, mcl, mcl_histogram
from .detection import (
    LsdsConfig,
    lsd_lcl_oracle_label,
    lsds,
    mcl_oracle_label,
    roc_auc,
    scenario,
    tau_sweep,
    youden_threshold,
)
from .boosting import BoostConfig, BoostReport, GenerationResult, cad_step, generate, taboo_step

__all__ = [
    "__version__",
    "JSD_MAX",
    "PowerLawFit",
    "TokenDistribution",
    "fit_power_law",
    "jsd",
    "set_metrics",
    "tvd",
    "DecodingStrategy",
    "apply_strategy",
    "confidence",
    "derive_seed",
    "sample",
    "top1",
    "PrefixGrid",
    "ProbeResult",
    "damcl",
    "mcl",
    "mcl_histogram",
    "LsdsConfig",
    "lsd_lcl_oracle_label",
    "lsds",
    "mcl_oracle_label",
    "roc_auc",
    "scenario",
    "tau_sweep",
    "youden_threshold",
    "BoostConfig",
    "BoostReport",
    "GenerationResult",
    "cad_step",
    "generate",
    "taboo_step",
]
