"""Exponential stabilization of QND measurement eigenstates by noise-assisted feedback.

Simulation and verification toolkit for continuous quantum measurement with
a Brownian-modulated control Hamiltonian: trajectory integration (open loop
and noise-assisted closed loop), state estimators (reduced filter,
population filter), Lyapunov machinery (graph-Laplacian alpha weights,
generator decomposition, sampled decay certification), and ensemble
campaigns with deterministic seeding.  The package root exports
only __version__; import from the submodules (qndstab.ensemble, ...).
"""

__version__ = "0.1.0"
