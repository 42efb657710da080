"""Spin-J benchmark family: measurement operator, ladder-coupling Hamiltonian, presets.

Basis ordering is |J>, |J-1>, ..., |-J>, so the measurement operator is
diag(J, J-1, ..., -J) and the control Hamiltonian couples neighbouring
levels with purely imaginary tridiagonal entries

    H[m, m+1] = -sqrt((m+1)(2J-m)) / (2i),   m = 0..2J-1,

i.e. a rotation generator mixing adjacent eigenspaces.  The actuation
graph of this H is the path graph on the 2J+1 levels, hence connected,
which is what makes every eigenstate a reachable stabilization target.
"""

from __future__ import annotations

import numpy as np

from .dynamics import ControlSetup, MeasurementSetup, control_setup, measurement_setup

__all__ = ["spin2_preset", "DEFAULT_EFFICIENCY"]

DEFAULT_EFFICIENCY = 0.8


def build_spin_model(J: float) -> tuple[np.ndarray, np.ndarray]:
    """The spin-J measurement operator L and ladder Hamiltonian H, each (2J+1, 2J+1).

    J must be a positive integer or half-integer.
    """
    two_j = round(2 * J) if 0.0 < J < np.inf else 0  # a NaN fails too
    if abs(2 * J - two_j) > 1e-12 or two_j <= 0:
        raise ValueError(f"J must be a positive integer or half-integer, got {J}")
    n = two_j + 1
    lvals = J - np.arange(n)
    L = np.diag(lvals).astype(complex)
    H = np.zeros((n, n), dtype=complex)
    m = np.arange(n - 1)
    c = np.sqrt((m + 1.0) * (two_j - m))
    # -c/(2i) = +0.5i c on the superdiagonal, Hermitian conjugate below
    H[m, m + 1] = 0.5j * c
    H[m + 1, m] = -0.5j * c
    return L, H


def spin2_preset(
    p_min: float,
    sigma_bar: float | None = None,
    eta: float = DEFAULT_EFFICIENCY,
    J: float = 2,
    p_max: float | None = None,
    saturation: str = "piecewise_linear",
) -> tuple[MeasurementSetup, ControlSetup]:
    """Benchmark configuration: spin J at efficiency eta, stabilizing the lambda = 0 level.

    Defaults follow the reference campaign: eta = 0.8, J = 2, target is the
    eigenvalue closest to zero, sigma_bar = sqrt(n eta) (= 2 for the spin-2
    case), p_max = p_min + 0.05.
    """
    L, H = build_spin_model(J)
    meas = measurement_setup(L, eta)
    target = int(np.argmin(np.abs(meas.dec.eigenvalues)))
    if sigma_bar is None:
        sigma_bar = float(np.sqrt(meas.dec.n * eta))
    if p_max is None:
        p_max = p_min + 0.05
    ctrl = control_setup(
        H,
        meas.dec,
        target=target,
        sigma_bar=sigma_bar,
        p_min=p_min,
        p_max=p_max,
        saturation=saturation,
    )
    return meas, ctrl
