"""Local linearisation error (LLE) monitoring.

Eq. (3) of the paper defines the local linearisation error introduced at
each time point by truncating the Taylor expansion of the nonlinear model
after the first-order term.  The paper controls this error "by monitoring
the changes in the Jacobian elements": if the Jacobian barely changes
between consecutive linearisation points, the first-order model was an
accurate description of the dynamics over the step.

:class:`LLEMonitor` implements that policy and additionally offers a
direct estimate of the LLE by comparing the linearised derivative against
the true nonlinear derivative at the newly reached state — useful in tests
and ablation studies to demonstrate that the monitored quantity tracks the
actual error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .stability import frobenius_norm

__all__ = ["LLESample", "LLEMonitor"]


@dataclass
class LLESample:
    """One record of the error-monitoring history."""

    time: float
    jacobian_change: float
    derivative_mismatch: float


@dataclass
class LLEMonitor:
    """Tracks Jacobian drift and derivative mismatch along the march.

    Attributes
    ----------
    jacobian_tolerance:
        Relative Jacobian change above which a step is flagged.
    keep_history:
        If ``True`` every sample is stored (for plots / tests); the solver
        disables this by default to keep memory bounded on long runs.
    """

    jacobian_tolerance: float = 0.1
    keep_history: bool = False
    _previous_jacobian: Optional[np.ndarray] = field(default=None, repr=False)
    history: List[LLESample] = field(default_factory=list)
    n_flagged: int = 0
    max_jacobian_change: float = 0.0
    max_derivative_mismatch: float = 0.0

    def reset(self) -> None:
        """Forget all history (used at simulation start and after events)."""
        self._previous_jacobian = None
        self.history.clear()
        self.n_flagged = 0
        self.max_jacobian_change = 0.0
        self.max_derivative_mismatch = 0.0

    def jacobian_change(self, jacobian: np.ndarray) -> float:
        """Relative Frobenius-norm change of the Jacobian since last call."""
        if self._previous_jacobian is None:
            return 0.0
        scale = frobenius_norm(self._previous_jacobian)
        if scale == 0.0:
            scale = 1.0
        return float(frobenius_norm(jacobian - self._previous_jacobian) / scale)

    def record(
        self,
        t: float,
        jacobian: np.ndarray,
        linearised_derivative: Optional[np.ndarray] = None,
        true_derivative: Optional[np.ndarray] = None,
    ) -> LLESample:
        """Record one linearisation point and return the error sample.

        ``linearised_derivative`` and ``true_derivative`` are optional; when
        both are given the direct derivative mismatch (an observable proxy
        for the LLE of Eq. 3) is computed as well.  The sample's
        ``jacobian_change`` is the drift :meth:`jacobian_change` measures;
        a step controller fed the same Jacobians may reuse it.
        """
        change = self.jacobian_change(jacobian)
        mismatch = 0.0
        if linearised_derivative is not None and true_derivative is not None:
            scale = float(np.linalg.norm(true_derivative))
            if scale == 0.0:
                scale = 1.0
            mismatch = float(
                np.linalg.norm(
                    np.asarray(linearised_derivative) - np.asarray(true_derivative)
                )
                / scale
            )
        sample = LLESample(time=t, jacobian_change=change, derivative_mismatch=mismatch)
        if change > self.jacobian_tolerance:
            self.n_flagged += 1
        self.max_jacobian_change = max(self.max_jacobian_change, change)
        self.max_derivative_mismatch = max(self.max_derivative_mismatch, mismatch)
        if self.keep_history:
            self.history.append(sample)
        self._previous_jacobian = np.array(jacobian, dtype=float, copy=True)
        return sample

    def exceeded(self, sample: LLESample) -> bool:
        """Whether a sample violates the configured Jacobian-change tolerance."""
        return sample.jacobian_change > self.jacobian_tolerance
