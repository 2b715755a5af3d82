"""Fourier reference solve of the flow and the heat equation on a conformal torus.

On g = w I over the 2*pi-periodic square, dg/dt = -2 K g with
K = -Delta0 log w / (2 w) is w_t = Delta0 log w, and the heat equation
(Delta - d/dt) u = 0 is u_t = Delta0 u / w.  Both fields stay smooth and
periodic, so rfft2 derivatives converge spectrally (Trefethen, *Spectral
Methods in MATLAB*, SIAM 2000, ch. 3); time is plain RK4 on fixed steps.
"""
import numpy as np


def flow_and_heat(w, u, t_end, steps):
    """w and u at t_end, from (n, n) samples at the nodes 2*pi*(i, j)/n."""
    n = w.shape[0]
    k2 = np.fft.fftfreq(n, 1.0 / n)[:, None] ** 2 + np.fft.rfftfreq(n, 1.0 / n)[None, :] ** 2

    def laplacian(f):
        return np.fft.irfft2(-k2 * np.fft.rfft2(f), s=f.shape)

    def rate(state):
        return np.stack([laplacian(np.log(state[0])), laplacian(state[1]) / state[0]])

    state, dt = np.stack([w, u]), t_end / steps
    for _ in range(steps):
        k1 = rate(state)
        k2_ = rate(state + 0.5 * dt * k1)
        k3 = rate(state + 0.5 * dt * k2_)
        k4 = rate(state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2.0 * k2_ + 2.0 * k3 + k4)
    return state[0], state[1]
