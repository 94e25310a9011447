"""Visible-light indoor localization: IM/DD channel simulation, periodogram
RSS fingerprinting, multi-classifier position estimation and SVD-stabilized
least-squares fusion, with RSS-matching and RSS-ratio baselines."""

from .channel import (ChannelParams, LedConfig, PdPose, attenuation, distance,
                      lambertian_order_from_semiangle, propagation_delay,
                      synthesize_received)
from .classifiers import ElmClassifier, KnnClassifier, RandomForest, TrainSet
from .fusion import (FusionWeights, LsFit, build_prediction_matrix, gd_ls_fit,
                     gd_ls_predict_all, gi_ls_fit, gi_ls_predict_all,
                     ls_svd_weights, nearest_mean_labels)
from .baselines import RssrConfig, RssrSolver
from .experiment import (ExperimentError, ExperimentPlan, ResultTable,
                         SplitRatios, cdf_grid, error_cdf, run_experiment,
                         rss_vs_fft_len, synthesize_fingerprint_db)
from .spectral import (FingerprintDB, build_fingerprints, from_db,
                       load_fingerprints, save_fingerprints, to_db)
from .config import ConfigError, benchmark_config, load_config, plan_from_config

__version__ = "0.1.0"
