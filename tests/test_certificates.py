"""Whole-module certificates: the hat spectrum and the decomposition
projectors on a basis of the curvature tensors supported on an algebra, so
an identity holds on every tensor of the module at once, not only on the
sampled ones."""

from collections import Counter

import numpy as np
import pytest
from conftest import algebra_basis, relative_eigenvalues

from curvlab import decomp, euclid, holonomy, tensor


def _gram(basis) -> np.ndarray:
    """Frobenius Gram of the basis operators."""
    flat = basis.matrix.reshape(len(basis.matrix), -1)
    return flat @ flat.T


def _hat_gram(basis, algebra) -> np.ndarray:
    """Q = sum_a F_a F_a^T, F_a the basis's brute-force hats along generator
    a (tensor.t_hat, copied from tensor._hat_chunks), flattened by row."""
    hats = tensor.t_hat(tensor.to_operator(basis), algebra)
    flat = hats.reshape(len(hats), -1)
    return flat @ flat.T


def _so(n):
    # 0 on the metric, 2n on the traceless Ricci part, 4(n - 1) on the Weyl part
    weyl = n * n * (n * n - 1) // 12 - n * (n + 1) // 2
    return holonomy.so_algebra(euclid.generic(n)), {0: 1, 2 * n: n * (n + 1) // 2 - 1, 4 * (n - 1): weyl}


def _u(m):
    # 0 on the constant-holomorphic model, 2m on the traceless Ricci part,
    # 4(m + 1) on the Bochner part
    bochner = (m * (m + 1) // 2) ** 2 - m * m
    return holonomy.u_algebra(euclid.kaehler(m)), {0: 1, 2 * m: m * m - 1, 4 * (m + 1): bochner}


def _sp(m):
    # 0 on the model, 4(m + 2) on the trace-free part
    return holonomy.sp_sp1_algebra(euclid.quaternion_kaehler(m)), {0: 1, 4 * (m + 2): 35}


CASES = {"so4": (_so, 4), "so5": (_so, 5), "so6": (_so, 6), "u2": (_u, 2), "u3": (_u, 3), "sp2": (_sp, 2)}


@pytest.mark.parametrize("case", list(CASES))
def test_hat_spectrum_is_integral_on_the_whole_module(case):
    # |R^|^2 / |R|^2 over the whole curvature space of the algebra: every
    # eigenvalue within 1e-12 of its integer, with the multiplicities of
    # the module's irreducible parts
    build, size = CASES[case]
    algebra, expected = build(size)
    basis = algebra_basis(algebra)
    assert len(basis.matrix) == sum(expected.values()) == decomp.curvature_space_dim(algebra)
    values = relative_eigenvalues(_hat_gram(basis, algebra), _gram(basis))
    integers = np.round(values)
    assert np.abs(values - integers).max() <= 1e-12
    assert Counter(int(v) for v in integers) == expected


@pytest.mark.parametrize("case, part, rank", [("so6", "weyl", 84), ("u3", "bochner", 27)])
def test_decomposition_is_a_projector_on_the_whole_module(case, part, rank):
    # the Weyl or Bochner part of each basis tensor, in basis coordinates:
    # an idempotent of the part's rank, self-adjoint in the Frobenius Gram
    build, size = CASES[case]
    algebra, _ = build(size)
    basis = algebra_basis(algebra)
    split = decomp.weyl_decompose if part == "weyl" else decomp.bochner_decompose
    parts = split(basis).parts[part].matrix.reshape(len(basis.matrix), -1)
    gram = _gram(basis)
    p = np.linalg.solve(gram, basis.matrix.reshape(len(gram), -1) @ parts.T).T  # parts = p @ basis
    assert np.abs(p @ basis.matrix.reshape(len(gram), -1) - parts).max() <= 1e-12
    assert np.linalg.matrix_rank(p, tol=1e-8) == rank
    assert np.abs(p @ p - p).max() <= 1e-13
    pg = p @ gram
    assert np.abs(pg - pg.T).max() <= 1e-13
