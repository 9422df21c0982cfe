import numpy as np
import pytest

from rerand import TrialFrame


@pytest.fixture
def four_row_frame() -> TrialFrame:
    """The hand-arithmetic fixture: Y=[3,5,1,2], A=[1,1,0,0], X=[0,1,0,1]."""
    return TrialFrame(
        covariates=np.array([[0.0], [1.0], [0.0], [1.0]]),
        covariate_names=("x",),
        outcome=np.array([3.0, 5.0, 1.0, 2.0]),
        arm=np.array([1, 1, 0, 0]),
    )


def random_frame(seed: int, n: int = 120, beta=(1.0, -1.0), effect: float = 2.0):
    """A complete-data linear-truth frame used across estimator tests."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    arms = (rng.random(n) < 0.5).astype(int)
    if arms.sum() in (0, n):  # pragma: no cover - vanishing probability
        arms[0] = 1 - arms[0]
    y = 0.5 + effect * arms + x @ np.asarray(beta) + rng.normal(size=n)
    return TrialFrame(
        covariates=x,
        covariate_names=("x1", "x2"),
        outcome=y,
        arm=arms,
    )


def fd_jacobian(evaluate):
    """Central finite differences (step max(1e-6, 1e-6 |theta_j|)) of the mean
    of ``evaluate``: the oracle for every analytic ``PsiSpec.jacobian``."""

    def jacobian(frame, theta):
        theta = np.asarray(theta, dtype=float)
        jac = np.empty((theta.size, theta.size))
        for j in range(theta.size):
            h = max(1e-6, 1e-6 * abs(theta[j]))
            plus = theta.copy()
            plus[j] += h
            minus = theta.copy()
            minus[j] -= h
            jac[:, j] = (
                evaluate(frame, plus).mean(axis=0) - evaluate(frame, minus).mean(axis=0)
            ) / (2.0 * h)
        return jac

    return jacobian
