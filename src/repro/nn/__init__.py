"""NumPy-based neural-network substrate (autograd, layers, optimisers).

This package is the stand-in for the PyTorch stack the paper's software
implementation relies on.  It provides just enough of a deep-learning
framework — reverse-mode autograd, 2-D convolution, batch normalisation,
pooling, linear layers, SGD and LR schedules — to express, train and evaluate
ResNet-N, ODENet-N, the rODENet variants and Hybrid-3-N.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".layers": (
            "BatchNorm2d", "Conv2d", "GlobalAvgPool2d", "Identity", "Linear", "Module",
            "Parameter", "Sequential",
        ),
        ".loss": ("CrossEntropyLoss", "MSELoss", "accuracy"),
        ".optim": ("SGD", "Adam", "MultiStepLR"),
        ".tensor": ("Tensor", "as_tensor", "no_grad"),
    },
    submodules=("functional", "init"),
)
