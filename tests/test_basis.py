import numpy as np
import pytest

from funcbreak.basis import (
    Curve,
    CurveSeries,
    DegenerateFitError,
    EigenSystem,
    FourierBasis,
    KernelMatrix,
    eigen_decompose,
    fit_curve,
)


def inner_product(f: Curve, g: Curve) -> float:
    """L2 inner product; equals the coefficient dot product by orthonormality."""
    if f.basis != g.basis:
        raise ValueError("curves live in different bases")
    return float(f.coeffs @ g.coeffs)


def evaluate(c: Curve, points) -> np.ndarray:
    """Evaluate the curve at points in [0, 1]."""
    t = np.atleast_1d(np.asarray(points, dtype=float))
    if np.any((t < 0.0) | (t > 1.0)):
        raise ValueError("evaluation points must lie in [0, 1]")
    return c.basis.design_matrix(t) @ c.coeffs


def fine_grid(num=10_001):
    return np.linspace(0.0, 1.0, num)


def day_midpoints(days=365):
    """t = (j + 0.5) / days for j = 0..days-1, the daily sampling points."""
    return (np.arange(days) + 0.5) / days


def test_constant_curve_projects_to_first_coefficient():
    basis = FourierBasis(7)
    t = day_midpoints()
    expected = np.zeros(7)
    expected[0] = 3.0
    np.testing.assert_allclose(fit_curve(basis, t, np.full(t.size, 3.0)),
                               expected, atol=1e-10)


def test_second_basis_function_projects_to_unit_vector():
    basis = FourierBasis(9)
    t = day_midpoints()
    samples = np.sqrt(2.0) * np.sin(2.0 * np.pi * t)
    expected = np.zeros(9)
    expected[1] = 1.0
    np.testing.assert_allclose(fit_curve(basis, t, samples), expected, atol=1e-8)


def test_projection_residuals_orthogonal_to_design():
    rng = np.random.default_rng(7)
    basis = FourierBasis(11)
    t = day_midpoints()
    samples = rng.standard_normal((3, t.size))
    design = basis.design_matrix(t)
    for row in samples:
        residual = row - design @ fit_curve(basis, t, row)
        assert np.max(np.abs(design.T @ residual)) <= 1e-8


def test_too_few_points_raises_degenerate_fit():
    basis = FourierBasis(21)
    t = day_midpoints()
    samples = np.full(t.size, np.nan)
    samples[:10] = 1.0  # 10 usable points < 21 basis functions
    with pytest.raises(DegenerateFitError, match="only 10 usable points"):
        fit_curve(basis, t, samples)


def test_fit_curve_on_irregular_points():
    basis = FourierBasis(5)
    t = np.linspace(0.03, 0.98, 41)
    coeffs_true = np.array([1.0, -0.5, 0.25, 0.0, 2.0])
    values = basis.design_matrix(t) @ coeffs_true
    np.testing.assert_allclose(fit_curve(basis, t, values), coeffs_true, atol=1e-9)


def test_inner_product_of_unit_vectors():
    basis = FourierBasis(6)
    e1 = Curve(np.eye(6)[0], basis)
    e2 = Curve(np.eye(6)[1], basis)
    assert inner_product(e1, e1) == 1.0
    assert inner_product(e1, e2) == 0.0


def test_inner_product_matches_quadrature():
    rng = np.random.default_rng(3)
    basis = FourierBasis(13)
    f = Curve(rng.standard_normal(13), basis)
    g = Curve(rng.standard_normal(13), basis)
    t = fine_grid()
    ft = basis.design_matrix(t) @ f.coeffs
    gt = basis.design_matrix(t) @ g.coeffs
    quad = np.trapezoid(ft * gt, t)
    assert abs(inner_product(f, g) - quad) <= 1e-6


def test_inner_product_rejects_basis_mismatch():
    f = Curve(np.ones(4), FourierBasis(4))
    g = Curve(np.ones(5), FourierBasis(5))
    with pytest.raises(ValueError, match="different bases"):
        inner_product(f, g)


def test_basis_is_orthonormal_under_quadrature():
    basis = FourierBasis(21)
    t = fine_grid()
    design = basis.design_matrix(t)
    gram = np.empty((21, 21))
    for i in range(21):
        for j in range(21):
            gram[i, j] = np.trapezoid(design[:, i] * design[:, j], t)
    np.testing.assert_allclose(gram, np.eye(21), atol=1e-4)


def test_projection_inverts_evaluation_on_the_span():
    rng = np.random.default_rng(5)
    basis = FourierBasis(8)
    coeffs = rng.standard_normal((4, 8))
    t = day_midpoints()
    samples = coeffs @ basis.design_matrix(t).T
    fitted = np.array([fit_curve(basis, t, row) for row in samples])
    np.testing.assert_allclose(fitted, coeffs, atol=1e-8)


def test_evaluate_constant_and_zero_curves():
    basis = FourierBasis(4)
    e1 = Curve([1.0, 0.0, 0.0, 0.0], basis)
    zero = Curve(np.zeros(4), basis)
    t = [0.0, 0.25, 1.0]
    np.testing.assert_allclose(evaluate(e1, t), np.ones(3))
    np.testing.assert_allclose(evaluate(zero, t), np.zeros(3))


def test_evaluate_matches_closed_form_sine():
    basis = FourierBasis(5)
    v2 = Curve([0.0, 1.0, 0.0, 0.0, 0.0], basis)
    t = day_midpoints()
    values = evaluate(v2, t)
    closed = np.sqrt(2.0) * np.sin(2.0 * np.pi * t)
    np.testing.assert_allclose(values, closed, atol=1e-10)


def test_evaluate_rejects_points_outside_unit_interval():
    c = Curve(np.ones(3), FourierBasis(3))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        evaluate(c, [0.5, 1.2])


def test_eigen_identity_and_diagonal():
    eye = eigen_decompose(KernelMatrix(np.eye(6)))
    np.testing.assert_allclose(eye.values, np.ones(6))

    diag = eigen_decompose(KernelMatrix(np.diag([4.0, 1.0, 0.0, 0.0])))
    np.testing.assert_allclose(diag.values, [4.0, 1.0, 0.0, 0.0])
    assert abs(diag.vectors[0, 0]) == pytest.approx(1.0)
    assert diag.vectors[0, 0] > 0  # sign fixed by largest-magnitude entry
    assert abs(diag.vectors[1, 1]) == pytest.approx(1.0)


def test_eigen_reconstructs_random_symmetric_matrix():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((9, 9))
    k = KernelMatrix(a + a.T)
    eig = eigen_decompose(k)
    rebuilt = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
    assert np.linalg.norm(rebuilt - k.entries) <= 1e-8
    assert abs(eig.values.sum() - np.trace(k.entries)) <= 1e-8 * max(
        1.0, abs(np.trace(k.entries))
    )
    np.testing.assert_allclose(eig.vectors.T @ eig.vectors, np.eye(9), atol=1e-8)


def test_eigen_of_psd_matrix_is_nonnegative():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((12, 7))
    eig = eigen_decompose(KernelMatrix(a @ a.T / 7))
    assert eig.values.min() >= -1e-10


def test_eigen_rejects_non_finite_and_asymmetric():
    with pytest.raises(ValueError, match="finite"):
        KernelMatrix(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        eigen_decompose(KernelMatrix(np.array([[1.0, 2.0], [0.0, 1.0]])))


def test_series_validation():
    basis = FourierBasis(3)
    with pytest.raises(ValueError, match="two curves"):
        CurveSeries(np.ones((1, 3)), basis)
    with pytest.raises(ValueError, match="match basis"):
        CurveSeries(np.ones((4, 5)), basis)


@pytest.mark.parametrize("make, field", [
    (lambda a: Curve(a, FourierBasis(9)), "coeffs"),
    (lambda a: CurveSeries(a, FourierBasis(3)), "data"),
    (KernelMatrix, "entries"),
    (lambda a: EigenSystem(np.array([3.0, 2.0, 1.0]), a), "vectors"),
], ids=["Curve", "CurveSeries", "KernelMatrix", "EigenSystem"])
def test_construction_copies_the_callers_array(make, field):
    base = np.zeros(9)
    base[::4] = 1.0
    a = base.reshape(3, 3)  # a view of ``base``
    held = getattr(make(a), field)
    kept = held.copy()
    assert not held.flags.writeable
    assert a.flags.writeable and not np.shares_memory(a, held)
    a[0, 0] = 5.0
    base[4] = 7.0
    assert np.array_equal(held, kept)
