import numpy as np
import pytest

from curvlab import decomp, euclid, holonomy


def rotated_kaehler(m: int, seed: int = 0):
    """R^{2m} with the standard complex structure conjugated by a random
    rotation: every coordinate is linked to every other, one component."""
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((2 * m, 2 * m)))[0]
    return euclid.EuclideanSpace(
        2 * m, euclid.HolonomyStructure("kaehler", J=q @ euclid.kaehler(m).J @ q.T)
    )


def misplaced_unitary(m: int):
    """The unitary algebra of a rotated complex structure, placed on the
    standard kaehler(m): closed, but not normalized by the sign flips of the
    standard structure's components."""
    rows = holonomy.u_algebra(rotated_kaehler(m)).coeff_matrix
    return holonomy.HolonomyAlgebra(euclid.kaehler(m), "u(m) rotated", rows)


def scattered_action(alg) -> np.ndarray:
    """The dense (dim, D, D) stack of the derivation action N_a of the basis
    on the pairs, scattered from alg.action_blocks.  The library computes
    hats from the blocks and never forms this stack."""
    n_pairs = alg.space.bivector_dim
    act = np.zeros((alg.dim * n_pairs, n_pairs))
    for blocks, sources, targets in alg.action_blocks:
        act[targets[:, :, None], sources[:, None, :]] = blocks
    return act.reshape(alg.dim, n_pairs, n_pairs)


@pytest.fixture(scope="session")
def so5_space():
    return euclid.generic(5)


@pytest.fixture(scope="session")
def so5(so5_space):
    return holonomy.so_algebra(so5_space)


@pytest.fixture(scope="session")
def u3_space():
    return euclid.kaehler(3)


@pytest.fixture(scope="session")
def u3(u3_space):
    return holonomy.u_algebra(u3_space)


@pytest.fixture(scope="session")
def u3_swapped_space(u3_space):
    """kaehler(3) with J conjugated by the swap of coordinates 0 and 1."""
    p = np.eye(6)[[1, 0, 2, 3, 4, 5]]
    return euclid.EuclideanSpace(
        6, euclid.HolonomyStructure("kaehler", J=p @ u3_space.J @ p.T)
    )


@pytest.fixture(scope="session")
def u3_swapped(u3_swapped_space):
    return holonomy.u_algebra(u3_swapped_space)


@pytest.fixture(scope="session")
def qk2_space():
    return euclid.quaternion_kaehler(2)


@pytest.fixture(scope="session")
def qk2(qk2_space):
    return holonomy.sp_sp1_algebra(qk2_space)


@pytest.fixture(scope="session")
def hp2():
    return decomp.hp(2)


@pytest.fixture(scope="session")
def wolf2():
    return decomp.wolf(2)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
