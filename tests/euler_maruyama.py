"""Monte-Carlo oracle of the horizon Gramian ``Q_t``, for the tests only.

An Euler-Maruyama ensemble of the process ``dX = A X dt + Q^(1/2) dW``
and the exact moments of the scheme itself.  The sampler is deliberately
crude: it is a statistical cross-check of the exact formulas of the
package, not a production integrator, and its step bias is O(dt), which
:func:`euler_mean_cov` measures apart from the Monte-Carlo noise.
"""

from dataclasses import dataclass
from math import sqrt

import numpy as np

from ou_spectra.errors import DimensionMismatch, InputError


class InvalidStep(InputError):
    """Simulation parameters are out of range (nonpositive step, step larger
    than the horizon, no paths)."""


def psd_sqrt(M):
    """Symmetric PSD square root via the spectral decomposition.

    Negative eigenvalues (roundoff) are clipped to zero.
    """
    S = np.asarray(M, dtype=float)
    lam, U = np.linalg.eigh(0.5 * (S + S.T))
    lam = np.clip(lam, 0.0, None)
    return (U * np.sqrt(lam)) @ U.T


@dataclass(frozen=True)
class PathStats:
    """Empirical moments of an Euler-Maruyama ensemble at the horizon."""

    mean: np.ndarray
    cov: np.ndarray
    stderr_mean: np.ndarray
    stderr_cov: np.ndarray
    n_paths: int
    steps: int
    dt: float
    effective_t: float
    seed: int


def simulate_paths(model, x0, t, dt, n_paths, seed):
    """Euler-Maruyama ensemble started at x0, summarized at time t.

    The number of steps is ``round(t / dt)``; the exact horizon actually
    integrated is reported as ``effective_t``.  Increments use a seeded
    generator, so results are reproducible bit for bit.  Standard errors
    are the usual Gaussian ones (for the covariance,
    ``sqrt((C_ii C_jj + C_ij^2) / n)``).
    """
    t, dt = float(t), float(dt)
    if dt <= 0:
        raise InvalidStep("dt must be positive, got %g" % dt)
    if t <= 0 or dt >= t:
        raise InvalidStep("need 0 < dt < t, got dt=%g, t=%g" % (dt, t))
    if n_paths < 1:
        raise InvalidStep("n_paths must be at least 1, got %d" % n_paths)
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.shape != (model.dim,):
        raise DimensionMismatch(
            "x0 has length %d, model has dimension %d"
            % (x0.size, model.dim))
    steps = max(int(round(t / dt)), 1)
    rng = np.random.default_rng(seed)
    X = np.tile(x0, (n_paths, 1))
    noise = psd_sqrt(model.Q) * sqrt(dt)
    At = model.A.T
    for _ in range(steps):
        X = X + (X @ At) * dt + rng.standard_normal(X.shape) @ noise
    mean = X.mean(axis=0)
    if n_paths > 1:
        cov = np.atleast_2d(np.cov(X.T, ddof=1))
    else:
        cov = np.zeros((model.dim, model.dim))
    var = np.clip(np.diag(cov), 0.0, None)
    stderr_mean = np.sqrt(var / n_paths)
    stderr_cov = np.sqrt(
        (np.outer(var, var) + cov ** 2) / max(n_paths - 1, 1))
    return PathStats(
        mean=mean,
        cov=cov,
        stderr_mean=stderr_mean,
        stderr_cov=stderr_cov,
        n_paths=int(n_paths),
        steps=steps,
        dt=dt,
        effective_t=steps * dt,
        seed=int(seed),
    )


def euler_mean_cov(model, x0, t, dt):
    """Exact mean and covariance of the Euler-Maruyama scheme itself.

    Iterates ``m -> (I + dt A) m`` and ``C -> (I + dt A) C (I + dt A)' +
    dt Q`` for ``round(t / dt)`` steps.  The difference between this
    covariance and the true one quantifies the O(dt) discretization bias
    separately from Monte-Carlo noise.
    """
    t, dt = float(t), float(dt)
    if dt <= 0 or dt >= t:
        raise InvalidStep("need 0 < dt < t, got dt=%g, t=%g" % (dt, t))
    steps = max(int(round(t / dt)), 1)
    d = model.dim
    F = np.eye(d) + dt * model.A
    m = np.asarray(x0, dtype=float).ravel().copy()
    C = np.zeros((d, d))
    for _ in range(steps):
        m = F @ m
        C = F @ C @ F.T + dt * model.Q
    return m, C, steps * dt
