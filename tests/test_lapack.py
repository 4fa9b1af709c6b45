"""The LAPACK entry point ``qkdpost._lapack`` against numpy.linalg.

Each function makes numpy.linalg's gufunc call without numpy.linalg's
per-call wrapper, so in the shapes the estimator uses it must return
numpy.linalg's result bit for bit, and inside ``_lapack.errors()`` fail
exactly where numpy.linalg raises: with the same LinAlgError, or, for
Cholesky, with a NaN-filled factor.  It is also the package's only user of
those kernels.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from qkdpost import _lapack

SRC = Path(__file__).resolve().parents[1] / "src" / "qkdpost"

# real 4x4 (barrier, pencil) and 7x7 (Newton system), the stacked (2, 2, 2)
# key blocks, and a (k, 4, 4) stack (feasible-interval segments)
REAL_SHAPES = [(4, 4), (7, 7), (2, 2, 2), (5, 4, 4)]
# complex Hermitian 4x4 (Choi matrices) and key blocks
COMPLEX_SHAPES = [(4, 4), (2, 2, 2)]
CASES = [(s, False) for s in REAL_SHAPES] + [(s, True) for s in COMPLEX_SHAPES]


def matrices(rng, shape, complex_):
    a = rng.normal(size=shape)
    return a + 1j * rng.normal(size=shape) if complex_ else a


def hermitian(rng, shape, complex_):
    a = matrices(rng, shape, complex_)
    return a + np.swapaxes(a, -1, -2).conj()


def positive_definite(rng, shape, complex_):
    a = matrices(rng, shape, complex_)
    return a @ np.swapaxes(a, -1, -2).conj() + 0.1 * np.eye(shape[-1])


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape, complex_", CASES)
def test_kernels_match_numpy_linalg_bit_for_bit(shape, complex_):
    rng = np.random.default_rng(sum(shape) + 100 * complex_)
    for _ in range(20):
        h = hermitian(rng, shape, complex_)
        pd = positive_definite(rng, shape, complex_)
        a = matrices(rng, shape, complex_)
        with _lapack.errors():
            assert_bitwise(_lapack.eigvalsh(h), np.linalg.eigvalsh(h))
            w, v = _lapack.eigh(h)
            assert_bitwise(w, np.linalg.eigh(h)[0])
            assert_bitwise(v, np.linalg.eigh(h)[1])
            assert_bitwise(_lapack.cholesky(pd), np.linalg.cholesky(pd))
            assert_bitwise(_lapack.inv(a), np.linalg.inv(a))
            # a matrix right-hand side, and a vector one for a single system
            assert_bitwise(_lapack.solve(a, pd), np.linalg.solve(a, pd))
            if len(shape) == 2:
                b = rng.normal(size=shape[0])
                assert_bitwise(_lapack.solve(a, b), np.linalg.solve(a, b))


def test_cholesky_fails_where_numpy_linalg_raises():
    """Symmetric matrices on both sides of positive definiteness, among them
    a zero pivot, a negative one and NaN entries: the factor is NaN-filled exactly where
    numpy.linalg raises, and bitwise numpy.linalg's elsewhere."""
    rng = np.random.default_rng(7)
    cases = [np.diag([1.0, 0.0, 1.0, 1.0]), np.diag([1.0, 1.0, 1.0, -1e-300]), np.full((4, 4), np.nan)]
    cases += [hermitian(rng, (4, 4), False) + 4.0 * np.eye(4) for _ in range(200)]
    failed = 0
    for a in cases:
        with _lapack.errors():
            got = _lapack.cholesky(a)
        try:
            want = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            failed += 1
            assert np.isnan(got).all()
        else:
            assert_bitwise(got, want)
    assert 50 < failed < 150


@pytest.mark.parametrize("size", [4, 7])
def test_singular_systems_raise_numpy_linalg_errors(size):
    a = np.ones((size, size))
    b = np.ones(size)
    for call in (lambda m: m.inv(a), lambda m: m.solve(a, b), lambda m: m.solve(a, a)):
        with pytest.raises(np.linalg.LinAlgError) as want:
            call(np.linalg)
        with _lapack.errors(), pytest.raises(np.linalg.LinAlgError) as got:
            call(_lapack)
        assert str(got.value) == str(want.value) == "Singular matrix"


def test_an_invalid_operation_of_another_kind_raises_inside_the_state():
    """numpy.linalg's error state turns every invalid operation into a
    LinAlgError, so a loop held in it fails loudly on one."""
    with _lapack.errors(), pytest.raises(np.linalg.LinAlgError, match="^invalid value in "):
        np.zeros(1) / np.zeros(1)


def kernel_uses(tree):
    """numpy.linalg kernel calls and imports of numpy's LAPACK gufunc module."""
    kernels = {"cholesky", "inv", "solve", "eigh", "eigvalsh"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            inner = node.value
            owner = inner.attr if isinstance(inner, ast.Attribute) else getattr(inner, "id", "")
            if node.attr == "_umath_linalg" or (owner == "linalg" and node.attr in kernels):
                yield ast.unparse(node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            for alias in node.names:
                if "_umath_linalg" in f"{module}.{alias.name}" or (
                    module == "numpy.linalg" and alias.name in kernels
                ):
                    yield f"import {module}.{alias.name}"


def test_the_scan_sees_every_form_of_use():
    for code in (
        "np.linalg.eigh(a)",
        "numpy.linalg.solve(a, b)",
        "from numpy.linalg import cholesky",
        "from numpy.linalg import _umath_linalg",
        "import numpy.linalg._umath_linalg",
        "linalg._umath_linalg.inv(a)",
    ):
        assert list(kernel_uses(ast.parse(code))), code
    assert not list(kernel_uses(ast.parse("np.linalg.eigvals(a); np.linalg.svd(a)")))


def test_lapack_is_the_only_user_of_the_kernels():
    """The tests keep their numpy.linalg oracles; ``src/`` goes through ``_lapack``."""
    uses = {
        path.name: list(kernel_uses(ast.parse(path.read_text(encoding="utf-8"))))
        for path in sorted(SRC.glob("*.py"))
    }
    assert uses.pop("_lapack.py")
    assert not {name: found for name, found in uses.items() if found}
