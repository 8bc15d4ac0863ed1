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

__all__ = ["__version__"]
