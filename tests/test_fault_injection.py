"""Fault injection on ``contraction_suite``: each check it runs fails when
one route it reads returns a wrong number (ROADMAP item 27).

A passing check is evidence only if a wrong number in one of its routes
would make it fail (mutation analysis; DeMillo, Lipton & Sayward, IEEE
Computer 11(4), 1978).  Each witness plants one fault in a route that the
suite calls through the ``verification`` module -- the lifts of
``second_quantization``, ``product_set`` or ``dgamma`` -- never in the
check code, and pins the exact set of checks that then fail.

The second contraction S of ``random_contraction`` feeds only
``telescoping_bound`` and ``sym_power_homomorphism``, and both hold for
every S, so no choice of S can be a witness.  ``truncation_stability``
bounds the extra level's spectrum by ``||T||^(levels + 1)``, so its
witness has to move that spectrum by more than the bound's slack.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from ou_spectra import verification
from ou_spectra.spectra import SpectrumSet
from ou_spectra.tensor_fock import multi_indices

LEVELS = 3

#: Two contractions whose checks all pass unfaulted: a diagonalizable one
#: at d = 2 and a triangular defective one at d = 3.
CONTRACTIONS = {
    "diagonalizable": verification.random_contraction(
        np.random.default_rng(11), d=2, kind="diagonalizable"),
    "defective": verification.random_contraction(
        np.random.default_rng(12), d=3, kind="defective"),
}

_second_quantization = verification.second_quantization
_product_set = verification.product_set
_dgamma = verification.dgamma


def _each_level(fault):
    """A lift whose level n is ``fault(M, level, n, symmetric, top)`` of
    the true one, for the truncation of M at level ``top``."""
    def lift(M, top, *, symmetric=True, **kwargs):
        trunc = _second_quantization(M, top, symmetric=symmetric, **kwargs)
        return replace(trunc, levels=tuple(
            fault(np.asarray(M), level, n, symmetric, top)
            for n, level in enumerate(trunc.levels)))
    return "second_quantization", lift


def _tensor_levels_scaled(first, factor):
    def fault(M, level, n, symmetric, top):
        return level * factor if not symmetric and n >= first else level
    return _each_level(fault)


def _monomial_coordinates(M, level, n, symmetric, top):
    # D A D^-1 with D = diag sqrt(alpha!): the spectrum and the products
    # of the occupation coordinates, but another norm
    if not symmetric:
        return level
    w = np.sqrt([math.prod(map(math.factorial, alpha))
                 for alpha in multi_indices(len(M), n)])
    return w[:, None] * level / w[None, :]


def _tensor_rows_reversed(M, level, n, symmetric, top):
    # a permuted output index: the norm of the level, another spectrum
    return level[::-1] if not symmetric and n >= 1 else level


def _vacuum_dropped(M, level, n, symmetric, top):
    return np.zeros_like(level) if symmetric and n == 0 else level


def _extra_level_shifted(M, level, n, symmetric, top):
    # the eigenvalues of the level past LEVELS move by 3, out of the unit
    # disk that holds every other point
    if symmetric and n == top == LEVELS + 1:
        return level + 3.0 * np.eye(len(level))
    return level


def _transposed_symmetric_lift(M, top, *, symmetric=True, **kwargs):
    # Gamma(M') = Gamma(M)' has the norm and the spectrum of Gamma(M), but
    # Gamma((TS)') differs from Gamma(T') Gamma(S') unless T and S commute
    if symmetric:
        M = np.asarray(M).T
    return _second_quantization(M, top, symmetric=symmetric, **kwargs)


def _shifted_dgamma(M, n):
    G = _dgamma(M, n)
    return G + 1e-6 * np.eye(len(G))


def _shifted_product_set(base, n):
    return SpectrumSet(_product_set(base, n).points + 1e-6)


#: For each check: a witness (the route and its faulty stand-in) and every
#: check that the fault flips, the same on both contractions.
WITNESSES = {
    "tensor_norm_law": (
        _tensor_levels_scaled(2, 1 + 1e-8), {"tensor_norm_law"}),
    "sym_norm_law": (
        _each_level(_monomial_coordinates), {"sym_norm_law"}),
    # level 1 of the bound holds with equality, ||T - S|| <= ||T - S||
    "telescoping_bound": (
        _tensor_levels_scaled(1, 1 + 1e-8),
        {"telescoping_bound", "tensor_norm_law"}),
    "sym_power_homomorphism": (
        ("second_quantization", _transposed_symmetric_lift),
        {"sym_power_homomorphism"}),
    "tensor_sym_product_spectra": (
        _each_level(_tensor_rows_reversed), {"tensor_sym_product_spectra"}),
    "dgamma_sum_spectrum": (
        ("dgamma", _shifted_dgamma), {"dgamma_sum_spectrum"}),
    "second_quantization_spectrum": (
        _each_level(_vacuum_dropped), {"second_quantization_spectrum"}),
    "truncation_stability": (
        _each_level(_extra_level_shifted), {"truncation_stability"}),
}


def _failed(T):
    return {c.name for c in verification.contraction_suite(T, levels=LEVELS)
            if not c.passed}


@pytest.mark.parametrize("kind", sorted(CONTRACTIONS))
def test_every_check_has_a_witness(kind):
    checks = verification.contraction_suite(CONTRACTIONS[kind],
                                            levels=LEVELS)
    assert [c.name for c in checks if not c.passed] == []
    assert {c.name for c in checks} == set(WITNESSES)


@pytest.mark.parametrize("kind", sorted(CONTRACTIONS))
@pytest.mark.parametrize("check", sorted(WITNESSES))
def test_the_witness_flips_its_check(monkeypatch, check, kind):
    (route, fault), flips = WITNESSES[check]
    monkeypatch.setattr(verification, route, fault)
    assert _failed(CONTRACTIONS[kind]) == flips


@pytest.mark.parametrize("kind", sorted(CONTRACTIONS))
def test_a_shifted_product_set_flips_both_product_checks(monkeypatch, kind):
    monkeypatch.setattr(verification, "product_set", _shifted_product_set)
    assert _failed(CONTRACTIONS[kind]) == {
        "tensor_sym_product_spectra", "second_quantization_spectrum"}
