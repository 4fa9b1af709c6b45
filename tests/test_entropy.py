import numpy as np
import pytest

from qkdpost.entropy import JointDistribution, binary_entropy, cond_entropy

from conftest import error_probability


def test_binary_entropy_symmetric_point():
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_quarter():
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-15)


def test_binary_entropy_edges():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    with pytest.raises(ValueError):
        binary_entropy(1.2)


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
    assert error_probability(ident) == 0.0


def test_pw_damping():
    p = 0.4
    assert error_probability(damping_joint(p)) == pytest.approx(p / 2)


def test_pw_symmetric_equality_case():
    # symmetric crossover: H(W) equals H(X|Y)
    q = 0.2
    sym = JointDistribution(np.array([[(1 - q) / 2, q / 2], [q / 2, (1 - q) / 2]]))
    hw = binary_entropy(error_probability(sym))
    assert hw == pytest.approx(cond_entropy(sym), abs=1e-12)


def test_error_syndrome_floor_dominates_cond_entropy(rng):
    """H(X|Y) <= H(W) on random joints, strict unless the flip channel is
    symmetric in the required sense."""
    strict = 0
    for _ in range(1000):
        table = rng.dirichlet(np.ones(4)).reshape(2, 2)
        joint = JointDistribution(table)
        hxy = cond_entropy(joint)
        hw = binary_entropy(error_probability(joint))
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
    assert np.allclose(j.table.sum(axis=1), [0.5, 0.5])
    assert np.allclose(j.marginal_y(), [0.7, 0.3])
    cond = j.conditional()
    assert np.allclose(cond.sum(axis=0), 1.0)
    assert cond[1, 1] == pytest.approx(1.0)  # y=1 pins x=1 for damping
