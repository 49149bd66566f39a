"""Gaussian moments from the moment generating function: the test-only
oracle for the ``L^2(mu)`` inner products of polynomials.

For ``x ~ N(0, Sigma)`` the moment generating function is
``exp(s' Sigma s / 2)``, so ``E[x^alpha]`` is ``alpha!`` times its Taylor
coefficient of ``s^alpha``, and the degree-2k part of the series is
``(s' Sigma s / 2)^k / k!``.  sympy expands that power over the exact
binary values of the entries of Sigma, so each moment is exact before its
one final rounding.  The route shares nothing with the Hermite family of
``chaos_decomposition`` or with the closed form of
``verification._quadratic_inner``, which the tests hold to it.
"""

import math

import numpy as np
import sympy


def mgf_gram(basis, Sigma):
    """Gram matrix ``E[x^a x^b]`` over the monomials of `basis`."""
    Sigma = np.asarray(Sigma, dtype=float)
    s = sympy.symbols("s0:%d" % basis.d)
    half = sum(sympy.Rational(Sigma[i, j]) * s[i] * s[j]
               for i in range(basis.d) for j in range(basis.d)) / 2
    series = {}

    def moment(alpha):
        if sum(alpha) % 2:
            return 0.0
        k = sum(alpha) // 2
        if k not in series:
            series[k] = sympy.Poly(half ** k, *s)
        coeff = series[k].coeff_monomial(alpha)
        return float(coeff * math.prod(map(math.factorial, alpha))
                     / math.factorial(k))

    return np.array([[moment(tuple(a + b for a, b in zip(alpha, beta)))
                      for beta in basis.monomials]
                     for alpha in basis.monomials])
