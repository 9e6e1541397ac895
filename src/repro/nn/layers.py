"""Module system and the layers needed by ResNet / ODENet.

The :class:`Module` base class provides parameter registration, named
traversal, train/eval switching and state-dict save/restore — the minimal
feature set needed to express the paper's seven network architectures and
train them with SGD.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import functional as F
from . import init
from .tensor import Tensor

__all__ = [
    "Parameter",
    "Module",
    "Sequential",
    "Conv2d",
    "BatchNorm2d",
    "Linear",
    "GlobalAvgPool2d",
    "Identity",
]


class Parameter(Tensor):
    """A trainable tensor (always requires gradients)."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for layers and networks.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; they are discovered automatically for optimisation, state
    saving and recursive train/eval switching.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.training = True

    # -- attribute registration ------------------------------------------------

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable persistent array (e.g. BN running stats)."""

        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # -- traversal ---------------------------------------------------------------

    def parameters(self) -> List[Parameter]:
        """Return all trainable parameters of this module and its children."""

        return [p for _, p in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield (f"{prefix}{name}", buf)
        for mod_name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{mod_name}.")

    # -- parameter accounting ------------------------------------------------------

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""

        return sum(p.size for p in self.parameters())

    # -- train / eval --------------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- state dict -----------------------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat name → array mapping of parameters and buffers."""

        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = np.array(buf, copy=True)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters/buffers produced by :meth:`state_dict` (in place)."""

        for name, param in self.named_parameters():
            if name in state:
                param.data[...] = state[name]
        for name, buf in self.named_buffers():
            if name in state:
                buf[...] = state[name]

    # -- call -----------------------------------------------------------------------

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """Run child modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        for i, module in enumerate(modules):
            name = f"m{i}"
            setattr(self, name, module)
            self._order.append(name)

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = getattr(self, name)(x)
        return x

    def __len__(self) -> int:
        return len(self._order)


class Conv2d(Module):
    """Bias-free 3x3 convolution layer (zero padding 1) in NCHW layout."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        shape = (out_channels, in_channels, 3, 3)
        self.weight = Parameter(init.kaiming_normal(shape, rng), name="conv.weight")

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, stride=self.stride, padding=1)


class BatchNorm2d(Module):
    """Per-channel batch normalisation with running statistics."""

    def __init__(self, num_features: int) -> None:
        super().__init__()
        self.num_features = num_features
        self.gamma = Parameter(init.ones(num_features), name="bn.gamma")
        self.beta = Parameter(init.zeros(num_features), name="bn.beta")
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm2d(
            x,
            self.gamma,
            self.beta,
            self.running_mean,
            self.running_var,
            training=self.training,
        )


class Linear(Module):
    """Fully-connected layer (used by the paper's ``fc`` post-processing step)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.uniform_fan_in((out_features, in_features), rng), name="fc.weight"
        )
        self.bias = Parameter(init.zeros(out_features), name="fc.bias")

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class GlobalAvgPool2d(Module):
    """Global average pooling, reducing (N, C, H, W) to (N, C)."""

    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class Identity(Module):
    """No-op module (used when a layer group is removed in an rODENet variant)."""

    def forward(self, x: Tensor) -> Tensor:
        return x
