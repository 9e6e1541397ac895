"""Dataset substrate: synthetic CIFAR-100 substitute and batching."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".loader": ("DataLoader",),
        ".synthetic": ("SyntheticDataset", "make_synthetic_cifar", "train_test_split"),
    },
)
