import math

import numpy as np
import pytest

from tropkit import (
    InputFormatError,
    PointCloud,
    ResolutionWarning,
    SampledMeasure,
    ScaleRangeError,
    ball_volume,
    cantor_endpoints,
    covering_number,
    hb_dimension,
    local_dimension,
    read_point_cloud,
    read_sampled_measure,
    segment_points,
    sierpinski_points,
    square_points,
    write_point_cloud,
)

RNG = np.random.default_rng(31337)


# ---------------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------------

def test_ball_volumes():
    # against the elementary formulas 2ρ, πρ², (4/3)πρ³
    assert ball_volume(1, 1.0) == pytest.approx(2.0, rel=1e-14)
    assert ball_volume(2, 1.0) == pytest.approx(math.pi, rel=1e-14)
    assert ball_volume(3, 2.0) == pytest.approx(4.0 / 3.0 * math.pi * 8.0, rel=1e-14)
    assert ball_volume(2, 0.5) == pytest.approx(math.pi * 0.25, rel=1e-14)
    with pytest.raises(ValueError):
        ball_volume(0, 1.0)
    with pytest.raises(ValueError):
        ball_volume(2, 0.0)


def test_point_cloud_shapes():
    flat = PointCloud(np.array([0.0, 1.0, 2.0]))
    assert flat.points.shape == (3, 1)  # 1-D input becomes a column
    assert flat.dim == 1 and len(flat) == 3
    with pytest.raises(ValueError):
        PointCloud(np.empty((0, 2)))
    with pytest.raises(ValueError):
        PointCloud(np.array([[0.0, math.nan]]))


def test_generators_metadata():
    seg = segment_points(11)
    assert seg.resolution_hint == pytest.approx(0.1)
    cant = cantor_endpoints(4)
    assert cant.resolution_hint == pytest.approx(3.0**-4)
    assert len(cant) == 2 ** (4 + 1)  # 2^{d+1} interval endpoints survive dedup
    assert np.all((cant.points >= 0.0) & (cant.points <= 1.0))
    sier = sierpinski_points(5)
    assert sier.dim == 2
    sq = square_points(8)
    assert len(sq) == 64


def test_cantor_endpoints_are_ternary():
    # every depth-3 endpoint is a multiple of 3⁻³ with no digit 1 except
    # possibly a trailing one — spot-check the first few against hand values
    pts = sorted(cantor_endpoints(2).points.ravel().tolist())
    expect = [0.0, 1 / 9, 2 / 9, 1 / 3, 2 / 3, 7 / 9, 8 / 9, 1.0]
    assert pts == pytest.approx(expect, abs=1e-15)


# ---------------------------------------------------------------------------
# covering numbers
# ---------------------------------------------------------------------------

def test_covering_hand_cases():
    single = PointCloud(np.array([[0.2, 0.4]]))
    assert covering_number(single, 0.3) == 1
    pair = PointCloud(np.array([[0.0], [10.0]]))
    assert covering_number(pair, 0.5) == 2  # cells of side 1 cannot join them
    trio = PointCloud(np.array([0.0, 0.5, 1.0]))
    # side = 2·0.3 = 0.6: indices floor(p/0.6) = 0, 0, 1
    assert covering_number(trio, 0.3) == 2
    with pytest.raises(ValueError):
        covering_number(trio, 0.0)


def test_covering_segment_exact_counts():
    # dyadic spacing and radii make the floor-index arithmetic exact
    seg = segment_points(129)  # k/128 for k = 0..128
    # side 2⁻⁷: every point its own cell
    assert covering_number(seg, 2.0**-8) == 129
    # side 2⁻⁴: floor(k/8) takes 17 values
    assert covering_number(seg, 2.0**-5) == 17


def test_covering_monotone_on_doubling_ladder():
    # halving ρ with origin-anchored boxes refines the partition exactly,
    # so counts can only grow, and at most by 2^n per halving
    for dim in (1, 2, 3):
        cloud = PointCloud(RNG.uniform(-1.0, 1.0, size=(400, dim)))
        rho = 0.7
        prev = covering_number(cloud, rho)
        for _ in range(6):
            rho /= 2.0
            cur = covering_number(cloud, rho)
            assert prev <= cur <= (2**dim) * prev
            prev = cur


def test_covering_never_exceeds_point_count():
    cloud = PointCloud(RNG.standard_normal((50, 2)))
    for rho in (1.0, 0.1, 0.01, 1e-6):
        assert 1 <= covering_number(cloud, rho) <= 50
    assert covering_number(cloud, 1e-9) == 50  # generic points all separate


# ---------------------------------------------------------------------------
# dimension fits
# ---------------------------------------------------------------------------

def test_segment_dimension_close_to_one():
    est = hb_dimension(segment_points(4097), [2.0, 3.0, 4.0, 5.0, 6.0])
    assert abs(est.slope - 1.0) <= 0.1
    assert abs(est.offset_slope - 1.0) <= 0.1  # anchoring-insensitive
    assert est.log_counts.shape == (5,)
    # per-scale ratios straddle the fitted slope
    assert est.per_scale.min() <= est.slope + 0.2


def test_cantor_dimension():
    est = hb_dimension(cantor_endpoints(10), np.arange(1.0, 8.0))
    assert abs(est.slope - math.log(2.0) / math.log(3.0)) <= 0.08


def test_sierpinski_dimension():
    est = hb_dimension(sierpinski_points(8), np.arange(1.0, 6.0))
    assert abs(est.slope - math.log(3.0) / math.log(2.0)) <= 0.1


def test_square_dimension():
    est = hb_dimension(square_points(513), [1.0, 2.0, 3.0, 4.0])
    assert abs(est.slope - 2.0) <= 0.15


def test_finite_set_saturates_to_zero():
    cloud = PointCloud(RNG.standard_normal((20, 2)))
    # scales far below the typical separation: N is constantly 20
    est = hb_dimension(cloud, [8.0, 9.0, 10.0, 11.0])
    assert abs(est.slope) <= 1e-9


def test_resolution_warning():
    seg = segment_points(11)  # hint 0.1 ~ e^-2.3
    with pytest.warns(ResolutionWarning):
        hb_dimension(seg, [1.0, 2.0, 3.0, 4.0])
    import warnings as w

    with w.catch_warnings():
        w.simplefilter("error")
        hb_dimension(seg, [0.5, 1.0, 1.5, 2.0])  # coarse ladder stays quiet


def test_ladder_validation():
    seg = segment_points(11)
    with pytest.raises(ValueError):
        hb_dimension(seg, [1.0, 2.0])  # too short
    with pytest.raises(ValueError):
        hb_dimension(seg, [1.0, 2.0, 2.0])  # not strictly increasing
    with pytest.raises(ValueError):
        hb_dimension(seg, [-1.0, 0.5, 1.0])


# ---------------------------------------------------------------------------
# local (pointwise) dimension
# ---------------------------------------------------------------------------

def test_local_dimension_uniform_segment():
    n = 20001
    pts = np.linspace(0.0, 1.0, n)
    mu = SampledMeasure(pts, np.full(n, 1.0 / n))
    est = local_dimension(mu, [0.5], [2.0, 3.0, 4.0, 5.0])
    # μ(B_ρ) ≈ 2ρ in the interior ⇒ slope ≈ 1
    assert abs(est.slope - 1.0) <= 0.05
    assert est.offset_slope is None


def test_local_dimension_uniform_square():
    n = 201
    ax = np.linspace(0.0, 1.0, n)
    xs, ys = np.meshgrid(ax, ax)
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
    mu = SampledMeasure(pts, np.full(n * n, 1.0))
    est = local_dimension(mu, [0.5, 0.5], [1.5, 2.0, 2.5, 3.0, 3.5])
    assert abs(est.slope - 2.0) <= 0.1


def test_local_dimension_boundary_halves_nothing():
    # at the edge of the support the mass law is still ~ρ¹, only the
    # constant changes, so the slope stays near one
    n = 20001
    pts = np.linspace(0.0, 1.0, n)
    mu = SampledMeasure(pts, np.full(n, 1.0))
    est = local_dimension(mu, [0.0], [2.0, 3.0, 4.0, 5.0])
    assert abs(est.slope - 1.0) <= 0.05


def test_local_dimension_zero_mass():
    mu = SampledMeasure(np.array([[0.0]]), np.array([1.0]))
    with pytest.raises(ScaleRangeError):
        local_dimension(mu, [5.0], [1.0, 2.0, 3.0])


def test_local_dimension_dim_mismatch():
    mu = SampledMeasure(np.array([[0.0, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        local_dimension(mu, [0.0], [1.0, 2.0, 3.0])


def test_measure_validation():
    with pytest.raises(ValueError):
        SampledMeasure(np.array([[0.0]]), np.array([-1.0]))
    with pytest.raises(ValueError):
        SampledMeasure(np.array([[0.0]]), np.array([0.0]))
    with pytest.raises(ValueError):
        SampledMeasure(np.array([[0.0]]), np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def test_point_cloud_round_trip(tmp_path):
    cloud = PointCloud(RNG.standard_normal((17, 3)) * 100.0)
    path = tmp_path / "cloud.csv"
    write_point_cloud(cloud, path)
    back = read_point_cloud(path)
    assert np.array_equal(back.points, cloud.points)


def test_read_formats(tmp_path):
    p = tmp_path / "mixed.csv"
    p.write_text("# comment line\n0.5, 1.5\n\n2.5 3.5\n")
    cloud = read_point_cloud(p)
    assert cloud.points.tolist() == [[0.5, 1.5], [2.5, 3.5]]

    m = tmp_path / "measure.csv"
    m.write_text("0.0 0.0 2.0\n1.0 1.0 3.0\n")
    mu = read_sampled_measure(m)
    assert mu.dim == 2
    assert mu.weights.tolist() == [2.0, 3.0]


def test_read_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0 1.0\n0.0\n")
    with pytest.raises(InputFormatError) as err:
        read_point_cloud(bad)
    assert err.value.line == 2

    nonnum = tmp_path / "nn.csv"
    nonnum.write_text("0.0 pear\n")
    with pytest.raises(InputFormatError) as err:
        read_point_cloud(nonnum)
    assert err.value.line == 1

    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing\n")
    with pytest.raises(InputFormatError):
        read_point_cloud(empty)

    thin = tmp_path / "thin.csv"
    thin.write_text("1.0\n2.0\n")
    with pytest.raises(InputFormatError):
        read_sampled_measure(thin)  # needs at least coordinate + weight
