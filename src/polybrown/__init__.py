"""Polynomial Brownian paths, Levy-area conditional moments, and high-order
discretization schemes for inhomogeneous geometric Brownian motion.  Importing
the package loads no submodule, so not NumPy: write `from polybrown import harness`."""

__version__ = "0.1.0"
