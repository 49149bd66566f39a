"""Tolerance configuration.

Every residual or rank decision in the package goes through a
:class:`Tolerances` instance so that a single object documents what "equal",
"symmetric", "stable" and "low rank" mean numerically.  A model file's
``"tolerances"`` object overrides individual fields of :data:`DEFAULT`
(:meth:`Tolerances.with_overrides`); that is the one way to change them:
no command-line flag moves a threshold, and check bounds are constants.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used throughout the package.

    Attributes
    ----------
    sym_tol : float
        Maximum allowed entrywise asymmetry ``max|M - M.T|`` for matrices
        that must be symmetric.
    psd_tol : float
        How far below zero an eigenvalue of a nominally PSD matrix may sit,
        relative to the largest eigenvalue.
    lyap_tol : float
        Residual tolerance for the steady-state covariance equation,
        scaled by ``1 + norm(Q)``.
    rank_tol : float
        Relative eigenvalue (or singular value) threshold used for all
        numerical rank decisions.
    inv_tol : float
        Tolerance for subspace-invariance residuals, scaled by
        ``1 + norm(argument)``.
    stab_tol : float
        Margin by which the spectral abscissa must be negative before the
        drift counts as stable.
    """

    sym_tol: float = 1e-10
    psd_tol: float = 1e-10
    lyap_tol: float = 1e-10
    rank_tol: float = 1e-10
    inv_tol: float = 1e-8
    stab_tol: float = 1e-8

    def with_overrides(self, overrides):
        """Return a copy with the given field values replaced.

        Parameters
        ----------
        overrides : dict
            Mapping from field name to new value.  Unknown keys raise
            ``ValueError`` so that typos in model files do not silently
            leave a default in place; so do a non-dict, a value that is
            not a finite real number >= 0 (``bool`` included), and a
            ``rank_tol`` of 1 or more, which no direction passes, naming
            the field.
        """
        if not isinstance(overrides, dict):
            raise ValueError("tolerance overrides must be a JSON object, "
                             "got %r" % (overrides,))
        valid = {f.name for f in dataclasses.fields(self)}
        unknown = set(overrides) - valid
        if unknown:
            raise ValueError(
                "unknown tolerance field(s): %s" % ", ".join(sorted(unknown)))
        for name, value in overrides.items():
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value) or value < 0):
                raise ValueError("tolerance %s must be a finite number >= 0 "
                                 "(got %r)" % (name, value))
        if overrides.get("rank_tol", 0) >= 1:
            raise ValueError("tolerance rank_tol must be below 1 (got %r)"
                             % overrides["rank_tol"])
        return dataclasses.replace(self, **overrides)


DEFAULT = Tolerances()
