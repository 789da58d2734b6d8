import ctypes
import json

import numpy as np
import pytest

from curvlab import criteria, decomp, euclid, holonomy, tensor


def rotation(n: int, seed: int) -> np.ndarray:
    """A random rotation of R^n, seeded."""
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]


def rotated_kaehler(m: int, seed: int = 0):
    """R^{2m} with the standard complex structure conjugated by a random
    rotation: every coordinate is linked to every other, one component."""
    q = rotation(2 * m, seed)
    return euclid.EuclideanSpace(2 * m, "kaehler", J=q @ euclid.kaehler(m).J @ q.T)


def rotated_quaternionic(m: int, seed: int = 0):
    """R^{4m} with the standard quaternionic structure conjugated by one
    random rotation g, (g I g^T, g J g^T, g K g^T): no coordinate block
    of the standard frame survives."""
    g = rotation(4 * m, seed)
    base = euclid.quaternion_kaehler(m)
    return euclid.EuclideanSpace(4 * m, "qk", *(g @ s @ g.T for s in base.structures))


def misplaced_unitary(m: int):
    """The unitary algebra of a rotated complex structure, placed on the
    standard kaehler(m): closed, but not normalized by the sign flips of the
    standard structure's components."""
    rows = holonomy.u_algebra(rotated_kaehler(m)).coeff_matrix
    return holonomy.HolonomyAlgebra(euclid.kaehler(m), "u(m) rotated", rows)


def wedge_coeffs(space, x, y) -> np.ndarray:
    """Coefficients of x ^ y over the lexicographic pairs."""
    ii, jj = space.pair_rows, space.pair_cols
    return x[ii] * y[jj] - x[jj] * y[ii]


def scattered_action(alg) -> np.ndarray:
    """The dense (dim, D, D) stack of the derivation action N_a of the basis
    on the pairs, scattered from alg.action_blocks.  The library computes
    hats from the blocks and never forms this stack."""
    n_pairs = alg.space.bivector_dim
    act = np.zeros((alg.dim * n_pairs, n_pairs))
    for blocks, sources, targets in alg.action_blocks:
        act[targets[:, :, None], sources[:, None, :]] = blocks
    return act.reshape(alg.dim, n_pairs, n_pairs)


def save_tensor(rm: tensor.CurvatureTensor, path):
    """Write one tensor as the tensor file tensor.load_tensor reads: its
    dimension, structure tag and n^4 components in C order.  No command
    writes tensor files; the tests make their decompose inputs with this."""
    record = {"n": rm.space.n, "structure": rm.space.kind, "components": rm.components.ravel().tolist()}
    with open(path, "w") as fh:
        json.dump(record, fh)
        fh.write("\n")


# The rank-four checks the file check replaced, each residual's message in
# order: the slot-by-slot references of tensor.check_curvature_symmetries.
RANK_FOUR_CHECKS = ("not antisymmetric in the first pair", "not antisymmetric in the second pair",
                    "not symmetric under pair interchange", "first Bianchi identity fails")


def bianchi_sum(t: np.ndarray) -> np.ndarray:
    """Cyclic average over the first three slots; zero on curvature tensors."""
    return (t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)) / 3.0


def check_rank_four(t: np.ndarray):
    """Raise SymmetryError unless the rank-four array t is finite and has
    all curvature symmetries plus Bianchi, slot by slot: four n^4 residuals,
    formed and reduced one at a time, held to euclid._first_over's rule on
    the (n^2, n^2) reshape.  At a repeated-index slot T[i, i, k, l] the
    first-pair residual reads 2|t|."""
    n = t.shape[0]
    residuals = (lambda a: a + a.transpose(1, 0, 2, 3), lambda a: a + a.transpose(0, 1, 3, 2),
                 lambda a: a - a.transpose(2, 3, 0, 1), bianchi_sum)
    failed = euclid._first_over(t.reshape(n * n, n * n), lambda a: [abs(r(a.reshape(t.shape))).max() for r in residuals])
    if failed:
        _, k, r = failed
        raise tensor._non_finite(t) if k is None else tensor.SymmetryError(f"{RANK_FOUR_CHECKS[k]}, residual {r:.3e}")


def from_components(space, components) -> tensor.CurvatureTensor:
    """Tensor from a rank-four component array, validated slot by slot with
    check_rank_four and read off at the increasing pairs."""
    arr = np.asarray(components, dtype=float)
    check_rank_four(arr)
    ii, jj = space.pair_rows, space.pair_cols
    mat = arr[ii[:, None], jj[:, None], ii[None, :], jj[None, :]]
    return tensor._wrap(tensor.CurvatureTensor, space=space, matrix=mat)


def lie_action(a: np.ndarray, t):
    """Infinitesimal rotation action of a generator, given as its skew
    matrix (a row of `HolonomyAlgebra.matrices`), on a rank-2 or rank-4
    array, or on a CurvatureTensor (validated slot by slot); returns the
    same kind.  Each slot contributes minus the generator contracted into
    that slot, the derivative of the pullback along the flow of a: the
    slot-by-slot single-generator reference the operator hats are checked
    against."""
    if isinstance(t, tensor.CurvatureTensor):
        return from_components(t.space, lie_action(a, t.components))
    slots = "xyzw"[: t.ndim]
    return -sum(np.einsum(f"s{x},{slots.replace(x, 's')}->{slots}", a, t) for x in slots)


def bianchi_project(t: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a pair-symmetric rank-four array onto the
    Bianchi kernel: the cyclic average is itself an orthogonal projection
    (onto the fully antisymmetric part), so subtracting it projects onto
    curvature type.  The reference of tensor._bianchi_project_matrix."""
    return t - bianchi_sum(t)


def grassmannian_reference(p: int, q: int):
    """decomp.grassmannian(p, q) from the rank-four formula of its
    components, one 8-index einsum per term over the (row, column) indices
    of the q x p tangent matrices, validated slot by slot."""
    n = p * q
    iq, ip = np.eye(q), np.eye(p)
    t8 = (
        -np.einsum("kj,il,ab,cd->iajbkcld", iq, iq, ip, ip)
        + np.einsum("ki,jl,ab,cd->iajbkcld", iq, iq, ip, ip)
        - np.einsum("ij,kl,bc,ad->iajbkcld", iq, iq, ip, ip)
        + np.einsum("ij,kl,ac,bd->iajbkcld", iq, iq, ip, ip)
    )
    return from_components(euclid.generic(n), t8.reshape(n, n, n, n))


def wolf_reference(m: int):
    """decomp.wolf(m) as the reference Grassmannian's components moved slot
    by slot: coordinate 4j + i reads flat index i*m + j."""
    sigma = np.empty(4 * m, dtype=np.intp)
    for i in range(4):
        for j in range(m):
            sigma[4 * j + i] = i * m + j
    moved = grassmannian_reference(m, 4).components[np.ix_(sigma, sigma, sigma, sigma)]
    return from_components(euclid.quaternion_kaehler(m), moved)


class _IdentityDraws:
    """A stand-in Generator: standard_normal((k, k)) is the identity."""

    @staticmethod
    def standard_normal(shape):
        return np.eye(shape[-1])


def algebra_basis(algebra) -> tensor.CurvatureTensor:
    """The k basis tensors of the curvature tensors supported on the
    algebra, as one (k, D, D) stack: random_algebra_curvature with identity
    coefficients, each trial one row of the Bianchi-kernel basis."""
    k = decomp.curvature_space_dim(algebra)
    return decomp.random_algebra_curvature(algebra, _IdentityDraws(), count=k)


def relative_eigenvalues(q: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of q relative to the positive definite gram,
    q v = lambda gram v: with gram = L L^T (Cholesky), those of
    L^-1 q L^-T."""
    low = np.linalg.cholesky(gram)
    a = np.linalg.solve(low, np.linalg.solve(low, q).T)
    return np.linalg.eigvalsh(0.5 * (a + a.T))


def rotated_structure(op):
    """Spectrum of a restricted operator (its memo, no new eigensolve) and
    the structure constants of its algebra in its eigenbasis, per trial on
    a stack (criteria._rotate), as a fresh array."""
    spec = op.spectrum()
    d = spec.values.shape[-1]
    cp = criteria._rotate(op.algebra, spec.vectors.reshape(-1, d, d), None)
    return spec.values, cp.reshape(spec.values.shape[:-1] + (d, d, d))


def closure_defect(alg) -> float:
    """Largest bivector-norm distance of a basis bracket of alg from its
    span, from the bracket pass that construction checks."""
    return alg._brackets(keep=False)[1]


# The OpenBLAS core the byte pins were computed under.  Another core sums a
# product in another order, so values move at rounding level and the pins
# fail with every verdict unchanged.
PIN_CORE = "SkylakeX"


def openblas_core() -> str:
    """Name of the core that numpy's bundled OpenBLAS runs, read from the
    one handle euclid._openblas opens, or a note that there is none."""
    lib = euclid._openblas()
    if lib is None:
        return "unknown (numpy bundles no scipy-openblas)"
    name = lib.scipy_openblas_get_corename64_
    name.argtypes, name.restype = [], ctypes.c_char_p
    return name().decode()


def pin_note() -> str:
    """The failure message of a byte pin: the core it was computed under
    and the core of this run."""
    return f"byte pins hold under OpenBLAS core {PIN_CORE}; this run uses {openblas_core()}"


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
    return euclid.EuclideanSpace(6, "kaehler", J=p @ u3_space.J @ p.T)


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
