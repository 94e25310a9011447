"""Visible-light indoor localization: IM/DD channel simulation, periodogram
RSS fingerprinting, multi-classifier position estimation and SVD-stabilized
least-squares fusion, with RSS-matching and RSS-ratio baselines. Exported:
the pipeline; the components, which trust a valid plan, stay in their modules."""

from .channel import ChannelParams, LedConfig
from .config import ConfigError, benchmark_config, load_config, plan_from_config
from .experiment import (ExperimentError, ExperimentPlan, ResultTable, SplitRatios,
                         run_experiment, synthesize_fingerprint_db)
from .spectral import FingerprintDB, load_fingerprints, save_fingerprints

__version__ = "0.1.0"
