import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenlab.errors import ParameterError
from degenlab.geometry import BoundaryPart, make_domain, truncate
from degenlab.discretize import build_mesh, restrict_mesh

from oracles import classify_by_coordinates


def test_interval_boundary_partition():
    mesh = build_mesh(make_domain("interval", 0.5), 8)
    parts = mesh.part_nodes
    assert set(parts) == {BoundaryPart.DEGENERATE, BoundaryPart.OBSERVED}
    assert mesh.points[parts[BoundaryPart.DEGENERATE], 0].tolist() == [0.0]
    assert mesh.points[parts[BoundaryPart.OBSERVED], 0].tolist() == [1.0]


def test_square_boundary_partition():
    mesh = build_mesh(make_domain("square", 0.5), 8)
    parts = {part: mesh.points[ids] for part, ids in mesh.part_nodes.items()}
    assert set(parts) == {BoundaryPart.DEGENERATE, BoundaryPart.OBSERVED, BoundaryPart.LATERAL}
    # top edge, corners included: the weighted normal points up
    assert np.all(parts[BoundaryPart.OBSERVED][:, 1] == 1.0)
    assert np.array_equal(parts[BoundaryPart.OBSERVED][:, 0], mesh.axes[0])
    # bottom edge, corners included: the weight vanishes
    assert np.all(parts[BoundaryPart.DEGENERATE][:, 1] == 0.0)
    assert np.array_equal(parts[BoundaryPart.DEGENERATE][:, 0], mesh.axes[0])
    # left and right sides between them: the normal is orthogonal to e_N
    lateral = parts[BoundaryPart.LATERAL]
    assert np.all((lateral[:, 0] == 0.0) | (lateral[:, 0] == 1.0))
    assert np.all((lateral[:, 1] > 0.0) & (lateral[:, 1] < 1.0))
    assert lateral.shape[0] == 2 * (mesh.shape[1] - 2)


@pytest.mark.parametrize("alpha", [1.0, 0.0, -0.1, 1.5])
def test_alpha_range_is_open(alpha):
    with pytest.raises(ParameterError):
        make_domain("square", alpha)


def test_truncate_region_and_errors():
    d = make_domain("square", 0.5)
    t = truncate(d, 0.1)
    assert t.xn_lower == 0.1 and t.dimension == 2 and t.alpha == 0.5
    with pytest.raises(ParameterError):
        truncate(make_domain("interval", 0.5), 0.3)
    with pytest.raises(ParameterError):
        truncate(d, 0.0)


def test_discrete_partition_covers_boundary_once():
    d = make_domain("square", 0.25)
    mesh = build_mesh(d, 8, 2.0)
    counted = np.concatenate(list(mesh.part_nodes.values()))
    assert np.array_equal(np.sort(counted), mesh.boundary)
    assert len(counted) == len(set(counted))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["interval", "square"]), n=st.integers(4, 40),
       grading=st.floats(1.0, 4.0), delta=st.one_of(st.none(), st.floats(0.01, 0.24)))
def test_parts_by_index_match_coordinate_classifier(kind, n, grading, delta):
    # delta None: the full domain on a graded mesh; else its slab above delta
    d = make_domain(kind, 0.5)
    mesh = build_mesh(d, n, grading) if delta is None else build_mesh(truncate(d, delta), n)
    boundary, interior, parts = classify_by_coordinates(mesh)
    assert np.array_equal(mesh.boundary, boundary)
    assert np.array_equal(mesh.interior, interior)
    assert set(mesh.part_nodes) == set(parts)
    for part, ids in parts.items():
        assert np.array_equal(mesh.part_nodes[part], ids)


def test_observed_part_independent_of_delta():
    d = make_domain("square", 0.5)
    full = build_mesh(d, 16, 1.0)
    obs_full = full.points[full.part_nodes[BoundaryPart.OBSERVED]]
    for delta in (0.125, 0.1875):
        tr = restrict_mesh(full, delta)
        obs_tr = tr.points[tr.part_nodes[BoundaryPart.OBSERVED]]
        assert np.allclose(np.sort(obs_tr[:, 0]), np.sort(obs_full[:, 0]), atol=0)
        assert np.all(obs_tr[:, 1] == 1.0)
