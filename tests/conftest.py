import numpy as np
import pytest

from spdelab import engine as eng
from spdelab import hilbert as hb
from spdelab.gdc import make_certificate
from spdelab.noise import diagonal_qwiener


@pytest.fixture
def ou1d():
    """dX = -X dt + dW on the line; fully dissipative (P1 = 0)."""
    op = hb.matrix_operator(hb.euclidean_space(1), [[-1.0]])
    p1 = hb.Projection(np.zeros((1, 1)))
    cert = make_certificate([[-1.0]], p1, lambda1=0.0)
    return eng.Scenario(op=op, P1=p1, qwiener=diagonal_qwiener([1.0]),
                        sigma=eng.ConstantSigma(np.array([[1.0]])),
                        certificate=cert, scenario_id="ou1d")


@pytest.fixture
def ou2d_decoupled():
    """A = diag(-1, 0), noise only in the dissipative coordinate."""
    a = np.diag([-1.0, 0.0])
    p1 = hb.coordinate_projection(2, [1])
    op = hb.matrix_operator(hb.euclidean_space(2), a)
    cert = make_certificate(a, p1, lambda1=0.0)
    return eng.Scenario(op=op, P1=p1, qwiener=diagonal_qwiener([1.0]),
                        sigma=eng.ConstantSigma(np.array([[1.0], [0.0]])),
                        certificate=cert,
                        scenario_id="ou2d-decoupled")


@pytest.fixture
def paper2x2():
    """The non-symmetric 2x2 block with a small Lipschitz drift and constant
    noise; certified constants alpha = 0.4, beta = 1.6, eps = 0.8."""
    a = np.array([[-1.0, 1.0], [0.0, 1.0]])
    p1 = hb.coordinate_projection(2, [1])
    op = hb.matrix_operator(hb.euclidean_space(2), a)
    cert = make_certificate(a, p1, lambda1=1.5, L_F=0.01)
    return eng.Scenario(op=op, P1=p1, qwiener=diagonal_qwiener([1.0, 1.0]),
                        sigma=eng.ConstantSigma(0.3 * np.eye(2)),
                        drift=lambda X: 0.1 * np.sin(X),
                        certificate=cert, scenario_id="block2x2")


class PlainSigma:
    """Constant diffusion deliberately not recognized by the fast path."""

    def __init__(self, m):
        self.m = np.atleast_2d(np.asarray(m, dtype=float))

    def apply(self, X, xi):
        return xi @ self.m.T

    def columns(self, x):
        return self.m
