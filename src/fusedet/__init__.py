"""fusedet: toy visible/infrared fusion + diffusion box detection with task-aligned joint training."""

from .autodiff import ParamSet, Var, backward, flatten_grads, gradients, unflatten
from .gmta import AlignmentReport, align, build_gradient_matrix, combine, condition_number, gmta_step, svd
from .harness import RunConfig, TrainLog, train
from .model import ModelConfig, ToyModel

__all__ = [
    "AlignmentReport",
    "ModelConfig",
    "ParamSet",
    "RunConfig",
    "ToyModel",
    "TrainLog",
    "Var",
    "align",
    "backward",
    "build_gradient_matrix",
    "combine",
    "condition_number",
    "flatten_grads",
    "gmta_step",
    "gradients",
    "svd",
    "train",
    "unflatten",
]
