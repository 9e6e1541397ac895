"""The paper's training schedule (Section 4.3).

"SGD is used as an optimization function.  As L2 regularization, 1e-4 is
added to each layer.  For the training process, the number of epochs is 200.
The learning rate is started with 0.01, and it is reduced by 1/10 when the
epoch becomes 100 and 150."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..nn.optim import SGD, MultiStepLR

__all__ = ["PaperTrainingSchedule", "make_paper_optimizer"]


@dataclass(frozen=True)
class PaperTrainingSchedule:
    """Hyper-parameters of the paper's training recipe."""

    epochs: int = 200
    base_lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    milestones: Tuple[int, ...] = (100, 150)
    gamma: float = 0.1
    batch_size: int = 128


def make_paper_optimizer(parameters, schedule: PaperTrainingSchedule | None = None):
    """Create the SGD optimiser and LR scheduler described in Section 4.3."""

    schedule = schedule or PaperTrainingSchedule()
    optimizer = SGD(
        parameters,
        lr=schedule.base_lr,
        momentum=schedule.momentum,
        weight_decay=schedule.weight_decay,
    )
    scheduler = MultiStepLR(optimizer, milestones=schedule.milestones, gamma=schedule.gamma)
    return optimizer, scheduler
