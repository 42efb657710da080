"""One-step integrators for continuous measurement and noise-driven feedback.

The measurement layer is the Ito diffusion

    drho = D_L(rho) dt + sqrt(eta) M_L(rho) dW,
    dY   = 2 sqrt(eta) tr(L rho) dt + dW,

with measurement operator L and detection efficiency eta.  The
noise-assisted controller conjugates the post-measurement state by
exp(-i H dv) with dv = sigma(rho) dB, where B is a Brownian motion
independent of W and sigma is the population-triggered gain below.  The
package takes one model class, checked once by the two setups: L real
diagonal with strictly descending entries (measurement_setup) and H
purely imaginary (control_setup).  One
simulation step is therefore Euler-Maruyama for the measurement part
followed by the exact unitary conjugation, followed by projection back
onto the physical state space.  The splitting keeps eigenstates of L
exactly invariant under the measurement update and keeps the control
rotation exactly unitary.  closed_loop_step is the Euler reference; the
campaign engine in ensemble integrates the same model with a
positivity-preserving Kraus step instead.  With dB = 0, or with
sigma_bar = 0, it is the measurement-only (open-loop) step.

closed_loop_step accepts batched states (leading axes) with matching
batched noise increments, and evaluates the gain at the pre-step state (Ito
convention, non-anticipating).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    SpectralDecomposition,
    dissipator,
    innovation_superop,
    populations,
    project_to_physical,
    spectral_decomposition,
    unitary_conjugate,
    validate_hermitian,
)

__all__ = [
    "MeasurementSetup",
    "ControlSetup",
    "StepInput",
    "measurement_setup",
    "control_setup",
    "feedback_gain",
    "closed_loop_step",
]

SATURATIONS = ("piecewise_linear", "smoothstep")
# Largest sigma_bar^2 ||A||^2 (H = iA) that control_setup accepts, and a campaign times dt: the filters' control
# stage squares sigma^2 dt ||A||^2 and the certificate scales sigma^2 by weights of order 1/||A||^2, far below 1.8e308.
CONTROL_RATE_MAX = 1e150


@dataclass(frozen=True)
class MeasurementSetup:
    """Hermitian measurement operator, detection efficiency, spectral structure."""

    L: np.ndarray
    eta: float
    dec: SpectralDecomposition


@dataclass(frozen=True)
class ControlSetup:
    """Control Hamiltonian and gain-law parameters.

    target is the 0-based index into the descending distinct eigenvalues of
    the measurement operator; the gain activates when any non-target
    population exceeds p_min and saturates at sigma_bar above p_max.
    """

    H: np.ndarray
    sigma_bar: float
    p_min: float
    p_max: float
    target: int
    saturation: str = "piecewise_linear"


def measurement_setup(L: np.ndarray, eta: float) -> MeasurementSetup:
    """Validate and package a QND measurement channel.

    L must be real diagonal with strictly descending entries, each gap
    larger than core.DEGENERACY_TOL (core.spectral_decomposition checks it).
    """
    L = np.asarray(L, dtype=complex)
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta (detection efficiency) must lie in [0, 1], got {eta}")
    dec = spectral_decomposition(L)
    return MeasurementSetup(L=L, eta=float(eta), dec=dec)


def control_setup(
    H: np.ndarray,
    dec: SpectralDecomposition,
    target: int,
    sigma_bar: float,
    p_min: float,
    p_max: float,
    saturation: str = "piecewise_linear",
) -> ControlSetup:
    """Validate and package the noise-assisted gain law.

    H must be Hermitian and purely imaginary, H = iA with A real
    antisymmetric.  sigma_bar = 0 is allowed (it disables the control
    channel; used for open-loop baselines and negative certification tests).
    """
    H = validate_hermitian(np.asarray(H, dtype=complex), name="control Hamiltonian")
    if np.any(H.real != 0.0):
        raise ValueError("control Hamiltonian must be purely imaginary, H = iA with A real")
    if H.shape[-1] != dec.n:
        raise ValueError(f"H dim {H.shape[-1]} does not match measurement dim {dec.n}")
    if not 0 <= target < dec.d:
        raise ValueError(f"target index {target} outside 0..{dec.d - 1}")
    if not (sigma_bar >= 0.0 and float(sigma_bar) * float(sigma_bar) * float(np.linalg.norm(H.imag, 2)) ** 2 <= CONTROL_RATE_MAX):  # a NaN fails too
        raise ValueError(f"sigma_bar must be finite and >= 0 with sigma_bar^2 ||A||^2 <= {CONTROL_RATE_MAX:g}, got {sigma_bar}")
    if not 0.5 < p_min < p_max < 1.0:
        raise ValueError(f"need 1 > p_max > p_min > 1/2, got p_min={p_min}, p_max={p_max}")
    if saturation not in SATURATIONS:
        raise ValueError(f"saturation must be one of {SATURATIONS}, got {saturation!r}")
    return ControlSetup(
        H=H,
        sigma_bar=float(sigma_bar),
        p_min=float(p_min),
        p_max=float(p_max),
        target=int(target),
        saturation=saturation,
    )


@dataclass(frozen=True)
class StepInput:
    """Time step and pre-drawn noise increments, N(0, dt) scaled by the caller."""

    dt: float
    dW: float | np.ndarray
    dB: float | np.ndarray = 0.0


@dataclass(frozen=True)
class StepOutput:
    """Post-step state, measurement increment, applied control increment, gain used."""

    rho_next: np.ndarray
    dY: float | np.ndarray
    dv: float | np.ndarray
    sigma_used: float | np.ndarray


def feedback_gain(p: np.ndarray, ctrl: ControlSetup):
    """Gain sigma = sigma_bar * phi((max_{k != target} p_k - p_min) / (p_max - p_min)).

    phi is the saturation shape: a unit clamp for piecewise_linear, the
    cubic smoothstep otherwise.  Broadcasts over leading axes of p.  The
    max runs over the wrong populations one at a time, with no masked
    copy; a max is exact in any order, so the layout of p does not change
    the bits.  The campaign engine passes the transpose of its batch-last
    (d, m) populations, whose rows this reads in place.  The ramp then runs
    in place on that one copy; with a single level there is no wrong
    population and the gain is 0.
    """
    p = np.asarray(p, dtype=float)
    p = p.transpose(-1, *range(p.ndim - 1))
    rows = [p[k, ...] for k in range(len(p)) if k != ctrl.target]
    s = rows[0].copy() if rows else np.zeros(p.shape[1:])
    for row in rows[1:]:
        np.maximum(s, row, out=s)
    s -= ctrl.p_min
    s /= ctrl.p_max - ctrl.p_min
    np.maximum(s, 0.0, out=s)
    np.minimum(s, 1.0, out=s)
    if ctrl.saturation == "smoothstep":
        s = s * s * (3.0 - 2.0 * s)
    out = ctrl.sigma_bar * s
    return out if out.ndim else float(out)


def _measurement_update(rho: np.ndarray, meas: MeasurementSetup, dt: float, dW) -> tuple[np.ndarray, np.ndarray]:
    """Euler-Maruyama measurement increment and record increment (no projection)."""
    dW = np.asarray(dW, dtype=float)
    ex = np.einsum("ij,...ji->...", meas.L, rho).real
    dY = 2.0 * np.sqrt(meas.eta) * ex * dt + dW
    drho = dissipator(meas.L, rho) * dt + np.sqrt(meas.eta) * innovation_superop(meas.L, rho) * dW[..., None, None]
    return rho + drho, dY


def _conjugate_active(rho: np.ndarray, H: np.ndarray, dv) -> np.ndarray:
    """Conjugate only the batch rows with a nonzero angle; zero-angle rows pass through untouched.

    Keeps exact bitwise invariance of states the control does not act on,
    which matters for eigenstate fixed-point guarantees.
    """
    dv = np.asarray(dv, dtype=float)
    if dv.ndim == 0:
        return unitary_conjugate(H, float(dv), rho) if dv != 0.0 else rho
    active = np.flatnonzero(dv.ravel())
    if active.size == 0:
        return rho
    flat = rho.reshape((-1,) + rho.shape[-2:])
    out = flat.copy()
    out[active] = unitary_conjugate(H, dv.ravel()[active], flat[active])
    return out.reshape(rho.shape)


def closed_loop_step(rho: np.ndarray, meas: MeasurementSetup, ctrl: ControlSetup, step: StepInput) -> StepOutput:
    """One noise-assisted feedback step.

    The gain is computed from the populations of the pre-step true state
    (truth-driven loop); the control rotation exp(-i H sigma dB) is applied
    exactly after the measurement update, then the state is projected.
    """
    sigma = feedback_gain(populations(rho, meas.dec), ctrl)
    dv = sigma * np.asarray(step.dB, dtype=float)
    moved, dY = _measurement_update(rho, meas, step.dt, step.dW)
    moved = _conjugate_active(moved, ctrl.H, dv)
    return StepOutput(
        rho_next=project_to_physical(moved),
        dY=dY if np.ndim(dY) else float(dY),
        dv=dv if np.ndim(dv) else float(dv),
        sigma_used=sigma,
    )
