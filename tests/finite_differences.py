"""Central finite-difference jets of a scalar callable: the oracle that the
expression and support-Hessian tests check analytic derivatives against."""

from dataclasses import dataclass

import numpy as np

from capflow.expr import _triples


@dataclass
class JetValue:
    """Derivative data of an expression at a single point."""

    value: float
    grad: np.ndarray
    hess: np.ndarray
    third: np.ndarray


def finite_difference_jet(func, point, h: float = 1e-4) -> JetValue:
    """Central finite-difference derivatives of a callable, for cross-checks."""
    x = np.asarray(point, dtype=float)
    d = x.size

    def e(i):
        v = np.zeros(d)
        v[i] = h
        return v

    value = float(func(x))
    grad = np.array([(func(x + e(i)) - func(x - e(i))) / (2 * h) for i in range(d)])
    hess = np.zeros((d, d))
    for i in range(d):
        hess[i, i] = (func(x + e(i)) - 2 * value + func(x - e(i))) / h**2
        for j in range(i + 1, d):
            hess[i, j] = hess[j, i] = (
                func(x + e(i) + e(j))
                - func(x + e(i) - e(j))
                - func(x - e(i) + e(j))
                + func(x - e(i) - e(j))
            ) / (4 * h**2)
    third = np.zeros((d, d, d))
    for i, j, k in _triples(d):
        if i == j == k:
            v = (
                func(x + 2 * e(i))
                - 2 * func(x + e(i))
                + 2 * func(x - e(i))
                - func(x - 2 * e(i))
            ) / (2 * h**3)
        elif i == j:
            v = (
                func(x + 2 * e(i) + e(k))
                - func(x + 2 * e(i) - e(k))
                - 2 * (func(x + e(k)) - func(x - e(k)))
                + func(x - 2 * e(i) + e(k))
                - func(x - 2 * e(i) - e(k))
            ) / (8 * h**3)
        elif j == k:
            v = (
                func(x + 2 * e(j) + e(i))
                - func(x + 2 * e(j) - e(i))
                - 2 * (func(x + e(i)) - func(x - e(i)))
                + func(x - 2 * e(j) + e(i))
                - func(x - 2 * e(j) - e(i))
            ) / (8 * h**3)
        else:
            v = 0.0
            for si in (1, -1):
                for sj in (1, -1):
                    for sk in (1, -1):
                        v += si * sj * sk * func(x + si * e(i) + sj * e(j) + sk * e(k))
            v /= 8 * h**3
        for perm in ((i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)):
            third[perm] = v
    return JetValue(value, grad, hess, third)
