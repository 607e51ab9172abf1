"""Gated low-rank inheritance of trained networks.

Compress a trained teacher into a lightweight gated low-rank network by
truncated-SVD initialization, fine-tune it (optionally with distillation),
and verify the compression, fidelity, and convergence properties
numerically at desk scale.
"""

from .errors import (CorruptionError, DegenerateInputError, FormatError,
                     NumericalError, RangeError, ShapeError, StateError)
from .linalg import (SvdFactorization, condition_number, frobenius_norm,
                     softmax, truncated_svd)
from .nn import (Conv2DLayer, DenseLayer, Network, ReluLayer, cross_entropy,
                 finite_difference_grad, make_mlp, mse_loss)
from .inherit import (InherConv2DLayer, InherNetLayer, factor_matrix, inherit_conv,
                      inherit_dense, inherit_layer, inherit_network)
from .train import RunLog, TrainConfig, kd_loss, learning_rate, sgd_step, train
from .theory import (LayerInfluence, TheoryReport, analyze_network,
                     compression_ratio_paper, eckart_young_error,
                     output_cosine_similarity, preservation_bound,
                     rank_for_energy, spectral_energy)
from .io import Dataset, SyntheticTask, gen_synthetic, load_checkpoint, save_checkpoint
from .verify import gradient_decomposition_check

__version__ = "0.1.0"
