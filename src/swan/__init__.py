"""Scene-wise adaptive network for cold-start multi-scene CTR prediction."""

from .aem import SelectorOutput, aeg_forward, dics, expert_selector, seg_forward
from .autodiff import DimensionError, Tensor, backward, no_grad
from .cfr import assemble_input, cfr_forward
from .datagen import GenConfig, GroundTruth, choose_k, generate, kmeans, silhouette
from .features import (ConfigError, Dataset, Example, Feature, FeatureSchema,
                       ParseError, SchemaError, fit_numeric_boundaries,
                       load_dataset, write_dataset)
from .head import LossWeights, ce_loss, cos_loss, decide, total_loss, var_loss
from .metrics import EvalReport, UndefinedMetricError, auc, evaluate, gini
from .model import (ComponentFlags, ModelConfig, ModelParams, init_params, predict,
                    predict_scores)
from .san import SanOutput, san_forward
from .serialize import load_model, save_model
from .srg import (SceneProfile, SceneRelationGraph, build_srg, categorize,
                  load_graph, save_graph, select_key_features, similar_scenes)
from .training import Adam, TrainConfig, TrainResult, baseline_dnn, run_sweep, train

__version__ = "0.1.0"
