"""kan-ausculta: hybrid LSTM-KAN classifier for imbalanced respiratory sounds.

The package is organized around one module per pipeline stage:

- ``splines``   B-spline knot grids and basis evaluation (Cox-de Boor)
- ``kan``       KAN layers built from learnable spline edge functions
- ``lstm``      one-step bidirectional LSTM encoder with exact gradients
- ``model``     the hybrid feature-vector -> BiLSTM -> KAN classifier
- ``optim``     focal loss, AdamW, plateau scheduler, early stopping
- ``imbalance`` SMOTE, time-domain augmentation, stage-1 subset builder
- ``features``  audio preprocessing and statistical feature extraction
- ``evalkit``   stratified k-fold splits and the full metric suite
- ``dataset``   recording index construction from an audio dir + diagnosis table
- ``config``    run configuration, presets, flat-key config files
- ``training``  per-fold two-stage cross-validation orchestration
- ``report``    structured run reports and CSV/JSON export
- ``atomic``    staged-then-renamed writes and the ``.npz`` reader of saved artifacts
- ``cli``       command-line front end
"""

__version__ = "0.1.0"

from .splines import KnotVector, bspline_basis, make_uniform_grid
from .kan import KanLayer, KanNetwork, kan_backward, kan_forward, kan_init
from .lstm import BiLstm, bilstm_backward, bilstm_encode
from .model import HybridModel, build_model, model_backward, model_forward, softmax
from .optim import FocalParams, adamw_step, early_stop, focal_loss, plateau_step

__all__ = [
    "__version__",
    "KnotVector",
    "make_uniform_grid",
    "bspline_basis",
    "KanLayer",
    "KanNetwork",
    "kan_init",
    "kan_forward",
    "kan_backward",
    "BiLstm",
    "bilstm_encode",
    "bilstm_backward",
    "HybridModel",
    "build_model",
    "model_forward",
    "model_backward",
    "softmax",
    "FocalParams",
    "focal_loss",
    "adamw_step",
    "plateau_step",
    "early_stop",
]
