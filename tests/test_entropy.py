import numpy as np
import pytest

from qkdpost.entropy import (
    JointDistribution,
    binary_entropy,
    cond_entropy,
    pw_from_joint,
    shannon_entropy,
    von_neumann_entropy,
)


def test_binary_entropy_symmetric_point():
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_quarter():
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-15)


def test_binary_entropy_edges():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    with pytest.raises(ValueError):
        binary_entropy(1.2)


def test_shannon_entropy_uniform():
    assert shannon_entropy([0.25] * 4) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        shannon_entropy([0.5, 0.6])


def test_von_neumann_pure_and_mixed():
    pure = np.zeros((4, 4))
    pure[0, 0] = 1.0
    assert von_neumann_entropy(pure) == 0.0
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)


def test_von_neumann_dyadic_spectrum():
    rho = np.diag([0.5, 0.25, 0.125, 0.125])
    assert von_neumann_entropy(rho) == pytest.approx(1.75, abs=1e-14)


def test_von_neumann_rejects_bad_input():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([1.5, -0.5]))
    bad = np.eye(2) / 2
    bad = bad.astype(complex)
    bad[0, 1] = 0.3j  # not Hermitian
    with pytest.raises(ValueError):
        von_neumann_entropy(bad)


def damping_joint(p):
    return JointDistribution(np.array([[0.5, 0.0], [p / 2, (1 - p) / 2]]))


def test_cond_entropy_damping_closed_form():
    p = 0.5
    want = (1 + p) / 2 * binary_entropy(1 / (1 + p))
    got = cond_entropy(damping_joint(p))
    assert got == pytest.approx(want, abs=1e-14)
    assert got == pytest.approx(0.6887218755408671, abs=1e-12)


def test_cond_entropy_other_direction():
    p = 0.3
    assert cond_entropy(JointDistribution(damping_joint(p).table.T)) == pytest.approx(
        0.5 * binary_entropy(p), abs=1e-14
    )


def test_pw_identity_channel():
    ident = JointDistribution(np.diag([0.5, 0.5]))
    assert pw_from_joint(ident)[1] == 0.0


def test_pw_damping():
    p = 0.4
    assert pw_from_joint(damping_joint(p))[1] == pytest.approx(p / 2)


def test_pw_symmetric_equality_case():
    # symmetric crossover: H(W) equals H(X|Y)
    q = 0.2
    sym = JointDistribution(np.array([[(1 - q) / 2, q / 2], [q / 2, (1 - q) / 2]]))
    hw = shannon_entropy(pw_from_joint(sym))
    assert hw == pytest.approx(cond_entropy(sym), abs=1e-12)


def test_error_syndrome_floor_dominates_cond_entropy(rng):
    """H(X|Y) <= H(W) on random joints, strict unless the flip channel is
    symmetric in the required sense."""
    strict = 0
    for _ in range(1000):
        table = rng.dirichlet(np.ones(4)).reshape(2, 2)
        joint = JointDistribution(table)
        hxy = cond_entropy(joint)
        hw = shannon_entropy(pw_from_joint(joint))
        assert hxy <= hw + 1e-12
        cond = joint.conditional()
        symmetric = abs(cond[0, 0] - cond[1, 1]) < 1e-9
        if not symmetric:
            assert hw > hxy - 1e-12
            if hw > hxy + 1e-9:
                strict += 1
    assert strict > 900  # generic joints separate strictly


def test_marginals_and_conditionals():
    j = damping_joint(0.4)
    assert np.allclose(j.marginal_x(), [0.5, 0.5])
    assert np.allclose(j.marginal_y(), [0.7, 0.3])
    cond = j.conditional()
    assert np.allclose(cond.sum(axis=0), 1.0)
    assert cond[1, 1] == pytest.approx(1.0)  # y=1 pins x=1 for damping
