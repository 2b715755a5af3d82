import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import node_major_reference as ref
from nullflow.grids import (
    PERIODIC_2D,
    GridError,
    LeafGrid,
    ScalarField,
    field_values,
    grids_compatible,
    make_sphere_grid,
    make_torus_grid,
    mixed_deriv,
    partial_deriv,
    periodic_laplacian,
    second_deriv,
)


def test_torus_grid_shape_and_spacing():
    g = make_torus_grid(16)
    assert g.shape == (16, 16)
    assert np.isclose(g.spacings[0], 2 * np.pi / 16)
    assert g.axes[0][0] == 0.0


def test_sphere_grid_excludes_poles():
    g = make_sphere_grid(32)
    th = g.axes[0]
    assert th[0] > 0 and th[-1] < np.pi
    # cell-centered: reflection across 0 maps node 0 onto itself shifted
    assert np.isclose(th[0], 0.5 * g.spacings[0])


def test_min_node_count_enforced():
    with pytest.raises(GridError):
        make_torus_grid(4)


def test_scalar_field_rejects_nan():
    g = make_torus_grid(8)
    vals = np.zeros(g.shape)
    vals[3, 3] = np.nan
    with pytest.raises(GridError):
        ScalarField(g, vals)


def test_field_values_grid_mismatch():
    f = ScalarField(make_torus_grid(8), np.zeros((8, 8)))
    with pytest.raises(GridError):
        field_values(f, make_torus_grid(16))
    assert grids_compatible(make_torus_grid(8), make_torus_grid(8))


@pytest.mark.parametrize("n", [32, 64])
def test_periodic_first_derivative_order(n):
    g = make_torus_grid(n)
    x, y = g.coordinate_fields()
    d = partial_deriv(g, np.sin(x) * np.cos(y), axis=0)
    err = np.max(np.abs(d - np.cos(x) * np.cos(y)))
    assert err < 5.0 * (2 * np.pi / n) ** 2


def test_periodic_second_and_mixed_derivative():
    g = make_torus_grid(64)
    x, y = g.coordinate_fields()
    f = np.sin(x) * np.sin(2 * y)
    h = 2 * np.pi / 64
    assert np.max(np.abs(second_deriv(g, f, 0) + f)) < 5 * h**2
    assert np.max(np.abs(second_deriv(g, f, 1) + 4 * f)) < 20 * h**2
    mixed = mixed_deriv(g, f)
    exact = np.cos(x) * 2 * np.cos(2 * y)
    assert np.max(np.abs(mixed - exact)) < 20 * h**2


@pytest.mark.parametrize("n", [16, 33])
def test_periodic_stencils_bit_identical_to_rolled_copies(n):
    # scalars, node-major tensors, and component-major storage seen node-major
    g = make_torus_grid(n)
    rng = np.random.default_rng(n)
    scalar = rng.standard_normal(g.shape)
    tensor = rng.standard_normal(g.shape + (2, 2, 2))
    viewed = np.moveaxis(rng.standard_normal((2, 2) + g.shape), (0, 1), (2, 3))
    for values in (scalar, tensor, viewed):
        for axis in (0, 1):
            assert np.array_equal(partial_deriv(g, values, axis), ref.partial_deriv(g, values, axis))
            assert np.array_equal(second_deriv(g, values, axis), ref.second_deriv(g, values, axis))
        assert np.array_equal(mixed_deriv(g, values), ref.mixed_deriv(g, values))


def _uneven_grid(n0, n1):
    return LeafGrid(PERIODIC_2D, (0.3 * np.arange(n0), 0.7 * np.arange(n1)), (0.3, 0.7))


_LAPLACIAN_GRIDS = (make_torus_grid(8), make_torus_grid(9), make_torus_grid(33),
                    _uneven_grid(8, 13), _uneven_grid(11, 8))


@settings(max_examples=60, deadline=None)
@given(grid=st.sampled_from(_LAPLACIAN_GRIDS), data=st.data())
def test_periodic_laplacian_bit_identical_to_two_second_derivatives(grid, data):
    cells = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))
    values = data.draw(hnp.arrays(float, grid.shape, elements=cells))
    want = second_deriv(grid, values, 0) + second_deriv(grid, values, 1)
    assert periodic_laplacian(grid, values).tobytes() == want.tobytes()  # zeros' signs included


def _laid_out(values, layout):
    """``values`` as a C-ordered array, a Fortran-ordered one, or a swapaxes view."""
    if layout == "fortran":
        return np.asfortranarray(values)
    if layout == "swapaxes":
        return np.ascontiguousarray(values.swapaxes(0, 1)).swapaxes(0, 1)
    return values


@pytest.mark.parametrize("layout", ["C", "fortran", "swapaxes"])
@pytest.mark.parametrize("trailing", [(), (2, 2), (2, 2, 2)])
@pytest.mark.parametrize("n0,n1", [(8, 12), (12, 8)])
def test_periodic_stencils_bit_identical_to_the_reference_on_any_layout(n0, n1, trailing, layout):
    # axis 1 is a shift of the flat array by the trailing size, so the rows'
    # ends must not leak into each other, whatever the input's memory order
    grid = _uneven_grid(n0, n1)
    rng = np.random.default_rng(n0 * 100 + len(trailing))
    values = rng.standard_normal((n0, n1) + trailing) * 10.0 ** rng.integers(-300, 300, (n0, n1) + trailing)
    values[rng.random(values.shape) < 0.2] = 0.0
    values[rng.random(values.shape) < 0.2] *= -1.0
    values = _laid_out(values, layout)
    assert values.flags.c_contiguous == (layout == "C")
    want = {"partial": [ref.partial_deriv(grid, values, axis) for axis in (0, 1)],
            "second": [ref.second_deriv(grid, values, axis) for axis in (0, 1)]}
    got = {"partial": [partial_deriv(grid, values, axis) for axis in (0, 1)],
           "second": [second_deriv(grid, values, axis) for axis in (0, 1)]}
    want["laplacian"] = [want["second"][0] + want["second"][1]]
    got["laplacian"] = [periodic_laplacian(grid, values)]
    for kind in want:
        for g, w in zip(got[kind], want[kind]):
            assert g.shape == values.shape and g.flags.c_contiguous
            assert g.tobytes() == np.ascontiguousarray(w).tobytes(), kind  # zeros' signs included


def test_sphere_stencils_uniformly_second_order():
    # even-symmetric scalar: the pole ghosts must not degrade the order
    errs = []
    for n in (32, 64, 128):
        g = make_sphere_grid(n)
        th = g.axes[0]
        d1 = partial_deriv(g, np.cos(th), axis=0)
        d2 = second_deriv(g, np.cos(th), axis=0)
        errs.append(max(np.max(np.abs(d1 + np.sin(th))), np.max(np.abs(d2 + np.cos(th)))))
    order = np.log2(errs[0] / errs[1])
    assert order > 1.9
    assert np.log2(errs[1] / errs[2]) > 1.9


@settings(max_examples=200, deadline=None)
@given(n=st.integers(8, 64), trailing=st.sampled_from([(), (2, 2)]), data=st.data())
def test_sphere_stencils_bit_identical_to_the_reflected_copy(n, trailing, data):
    # gathering each node's reflected neighbours takes the same operands in the
    # same order as differencing a copy with two ghost nodes per pole
    cells = st.one_of(st.sampled_from([0.0, -0.0, 1e300, -1e300]), st.floats(-1e306, 1e306))
    values = data.draw(hnp.arrays(float, (n,) + trailing, elements=cells))
    g = make_sphere_grid(n)
    with np.errstate(over="ignore", invalid="ignore"):  # the large magnitudes overflow to inf
        for got, want in ((partial_deriv(g, values, 0), ref.partial_deriv(g, values, 0)),
                          (second_deriv(g, values, 0), ref.second_deriv(g, values, 0))):
            assert got.shape == values.shape
            assert got.tobytes() == want.tobytes()  # zeros' signs and NaNs included


def test_symmetry_axis_derivatives_vanish():
    g = make_sphere_grid(16)
    f = np.cos(g.axes[0])
    assert np.all(partial_deriv(g, f, axis=1) == 0.0)
    assert np.all(second_deriv(g, f, axis=1) == 0.0)
    assert np.all(mixed_deriv(g, f) == 0.0)
