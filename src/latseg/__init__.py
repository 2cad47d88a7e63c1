"""Sparse permutohedral-lattice bilateral convolution networks for point clouds.

Import names from the modules that define them (`from latseg import
network`, `from latseg.lattice import LatticeConfig`); importing the package
itself loads nothing. The command-line front end relies on this: thread-count
environment variables must be in place before numpy is first imported.
"""

__version__ = "0.1.0"
