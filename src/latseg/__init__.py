"""Sparse permutohedral-lattice bilateral convolution networks for point clouds.

Submodules and their public names load lazily on first attribute access.
The command-line front end relies on this: thread-count environment
variables must be in place before numpy is first imported, so merely
importing the package cannot pull in the numeric stack.
"""

__version__ = "0.1.0"

_ERROR_NAMES = (
    "ConfigError",
    "DegenerateBatch",
    "EmptyEvaluation",
    "EmptyInput",
    "InvalidInput",
    "LatSegError",
    "NonFiniteGradient",
    "ParseError",
    "ShapeError",
    "StateError",
    "UnsupportedError",
)

_LATTICE_NAMES = (
    "MISSING",
    "LatticeConfig",
    "NeighborOffsets",
    "SparseLattice",
    "build_lattice",
    "elevate_many",
    "neighbor_offsets",
)

_BCL_NAMES = (
    "BCLDescriptor",
    "FilterBank",
    "bcl_apply",
    "bcl_backward",
    "bcl_forward",
    "identity_bank",
    "make_descriptor",
    "project",
)

_NETWORK_NAMES = (
    "NetworkSpec",
    "forward",
    "backward",
    "init_parameters",
    "parse_arch",
    "predict",
    "prepare_descriptors",
)

_DATA_NAMES = (
    "IoUReport",
    "PointCloud",
    "compute_iou",
    "load_cloud",
    "save_cloud",
    "shapenet_miou",
    "split_dataset",
    "synthetic_two_blob_dataset",
)

_TRAIN_NAMES = (
    "OptimizerState",
    "adam_step",
    "augment",
    "cross_entropy_loss",
    "train_loop",
)

_CHECKPOINT_NAMES = (
    "load_checkpoint",
    "load_train_state",
    "save_checkpoint",
    "save_train_state",
)

_CONFIG_NAMES = ("RunConfig", "TrainConfig", "load_run_config", "parse_config_text")

_HOME_OF = {}
for _module, _names in (
    ("errors", _ERROR_NAMES),
    ("lattice", _LATTICE_NAMES),
    ("bcl", _BCL_NAMES),
    ("network", _NETWORK_NAMES),
    ("data", _DATA_NAMES),
    ("train", _TRAIN_NAMES),
    ("checkpoint", _CHECKPOINT_NAMES),
    ("config", _CONFIG_NAMES),
):
    for _name in _names:
        _HOME_OF[_name] = _module

__all__ = ["__version__", *_HOME_OF]


def __getattr__(name):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(__all__)
