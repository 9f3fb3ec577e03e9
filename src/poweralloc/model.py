"""Effect-size model of a panel of one-sided Gaussian location tests.

Each test compares a standardized null N(0, 1) against an alternative
mean shifted up by the effect size ``gamma`` >= 0.  Its size-eta
most-powerful test rejects when x >= Phi^{-1}(1 - eta), so the test enters
every allocation and stepwise rule only through its ROC function

    rho(eta) = Phi(gamma - Phi^{-1}(1 - eta)),

whose derivative in eta is the Gaussian density ratio exp(gamma*z -
gamma^2/2) at z = Phi^{-1}(1 - eta).  The derivative is always evaluated
through that exponential form, never as a ratio of two densities, so it
stays finite in both tails.

A model is therefore nothing but the read-only array of the M effect
sizes; ``roc`` and ``roc_deriv`` take gamma directly, as a scalar or an
array that broadcasts against eta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = [
    "RocModel",
    "roc",
    "roc_deriv",
]


@dataclass(frozen=True, eq=False)
class RocModel:
    """An ordered panel of M >= 1 effect sizes, stored as one read-only
    float array."""

    gammas: np.ndarray

    def __post_init__(self):
        gammas = np.array(self.gammas, dtype=float, ndmin=1)
        if gammas.ndim != 1 or gammas.size < 1:
            raise ValueError("a model needs a nonempty 1-d array of effect sizes")
        if not (np.all(np.isfinite(gammas)) and np.all(gammas >= 0.0)):
            raise ValueError("effect sizes must be finite and >= 0")
        gammas.setflags(write=False)
        object.__setattr__(self, "gammas", gammas)

    @classmethod
    def from_gammas(cls, gammas) -> "RocModel":
        return cls(gammas)

    @property
    def M(self) -> int:
        return self.gammas.size


def _validate_eta(eta, open_interval: bool = False):
    eta = np.asarray(eta, dtype=float)
    if open_interval:
        if np.any(eta <= 0.0) or np.any(eta >= 1.0) or not np.all(np.isfinite(eta)):
            raise ValueError("eta must lie in the open interval (0, 1)")
    else:
        if np.any(eta < 0.0) or np.any(eta > 1.0) or not np.all(np.isfinite(eta)):
            raise ValueError("eta must lie in [0, 1]")
    return eta


def roc(gamma, eta):
    """Power of the size-eta most-powerful test: Phi(gamma + Phi^{-1}(eta)).

    Accepts scalars or arrays of eta in [0, 1]; the identity
    Phi^{-1}(eta) = -Phi^{-1}(1 - eta) keeps full precision for tiny eta.
    """
    eta = _validate_eta(eta)
    gamma = np.asarray(gamma, dtype=float)
    with np.errstate(invalid="ignore"):
        out = ndtr(gamma + ndtri(eta))
    out = np.where(eta == 0.0, 0.0, np.where(eta == 1.0, 1.0, out))
    return float(out) if out.ndim == 0 else out


def roc_deriv(gamma, eta):
    """d(power)/d(eta) = exp(gamma*z - gamma^2/2) with z = Phi^{-1}(1-eta).

    Defined on the open interval (0, 1) only; strictly positive.
    """
    eta = _validate_eta(eta, open_interval=True)
    gamma = np.asarray(gamma, dtype=float)
    z = -ndtri(eta)
    out = np.exp(gamma * z - 0.5 * gamma**2)
    return float(out) if out.ndim == 0 else out
