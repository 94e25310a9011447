"""Visible-light indoor localization: IM/DD channel simulation, periodogram
RSS fingerprinting, multi-classifier position estimation and SVD-stabilized
least-squares fusion, with RSS-matching and RSS-ratio baselines."""

from .channel import (ChannelParams, LedConfig, PdPose, attenuation, distance,
                      lambertian_order_from_semiangle, propagation_delay,
                      synthesize_received)
from .classifiers import (ElmClassifier, GridPrediction, KnnClassifier,
                          RandomForest, TrainSet)
from .fusion import (FusionWeights, GdWeightBank, LocationEstimate, LsFit,
                     PredictionMatrix, RankDeficientError,
                     build_prediction_matrix, gd_ls_fit, gd_ls_predict,
                     gd_select_grid, gi_ls_fit, gi_ls_predict, ls_svd_weights,
                     ls_weights)
from .baselines import RssrConfig, RssrSolver
from .experiment import (ExperimentError, ExperimentPlan, ResultTable,
                         SplitRatios, error_cdf, mspe, run_experiment,
                         rss_vs_fft_len, synthesize_fingerprint_db)
from .spectral import (FingerprintDB, PsdEstimate, RssVector,
                       build_fingerprints, extract_rss, from_db,
                       load_fingerprints, mean_fingerprints, periodogram,
                       save_fingerprints, to_db)
from .config import (ConfigError, benchmark_config, load_config,
                     plan_from_config, validate_config)

__version__ = "0.1.0"
