import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenlab.errors import ContractError, ParameterError
from degenlab.geometry import MAX_DELTA, Domain, make_domain, truncate
from degenlab.discretize import build_mesh, restrict_mesh

from oracles import classify_by_coordinates


@pytest.mark.parametrize("alpha", [1.0, 0.0, -0.1, 1.5])
def test_alpha_range_is_open(alpha):
    with pytest.raises(ParameterError):
        make_domain("square", alpha)


def test_truncate_region_and_errors():
    d = make_domain("square", 0.5)
    t = truncate(d, 0.1)
    assert t == Domain(dimension=2, alpha=0.5, delta=0.1) and d.delta == 0.0
    with pytest.raises(ParameterError):
        truncate(make_domain("interval", 0.5), 0.3)
    with pytest.raises(ParameterError):
        truncate(d, -0.1)
    with pytest.raises(ParameterError):
        Domain(dimension=2, alpha=0.5, delta=-0.1)


@pytest.mark.parametrize("kind", ["interval", "square"])
def test_delta_zero_is_the_full_domain(kind):
    # Omega intersected with {x_N > 0} is Omega, on the record and on the mesh
    d = make_domain(kind, 0.5)
    assert truncate(d, 0.0) == d
    full = build_mesh(d, 16, 1.0)
    same = restrict_mesh(full, 0.0)
    assert same.domain == d and same.shape == full.shape
    assert all(np.array_equal(a, b) for a, b in zip(same.axes, full.axes))
    assert np.array_equal(same.points, full.points)
    assert np.array_equal(same.interior, full.interior)
    assert np.array_equal(same.boundary, full.boundary)


def test_a_slab_is_not_cut_again():
    # a second, smaller cut would put the lower edge outside the first slab
    slab = truncate(make_domain("interval", 0.5), 0.1)
    with pytest.raises(ContractError):
        truncate(slab, 0.05)
    full = build_mesh(make_domain("interval", 0.5), 16, 1.0)
    with pytest.raises(ContractError):
        restrict_mesh(restrict_mesh(full, 0.125), 0.0625)


@pytest.mark.parametrize("kind", ["interval", "square"])
def test_truncation_stops_at_max_delta(kind):
    # the config's deltas range reads the same constant (test_cli)
    with pytest.raises(ParameterError, match=r"\(0, 0\.25\)"):
        truncate(make_domain(kind, 0.5), MAX_DELTA)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["interval", "square"]), n=st.integers(4, 40),
       grading=st.floats(1.0, 4.0), delta=st.one_of(st.none(), st.floats(0.01, 0.24)))
def test_parts_by_index_match_coordinate_classifier(kind, n, grading, delta):
    # delta None: the full domain on a graded mesh; else its slab above delta
    d = make_domain(kind, 0.5)
    mesh = build_mesh(d, n, grading) if delta is None else build_mesh(truncate(d, delta), n)
    boundary, interior = classify_by_coordinates(mesh)
    assert np.array_equal(mesh.boundary, boundary)
    assert np.array_equal(mesh.interior, interior)


def test_observed_part_independent_of_delta():
    # the observed edge is the last x_N layer of the C-order node ids
    d = make_domain("square", 0.5)
    full = build_mesh(d, 16, 1.0)
    for delta in (0.125, 0.1875):
        tr = restrict_mesh(full, delta)
        top = np.arange(tr.n_nodes).reshape(tr.shape)[..., -1].ravel()
        assert np.array_equal(tr.axes[0], full.axes[0])
        assert tr.axes[-1][-1] == 1.0
        assert np.array_equal(tr.points[top, 0], full.axes[0])
        assert np.all(tr.points[top, 1] == 1.0)
