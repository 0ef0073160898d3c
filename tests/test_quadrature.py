import numpy as np
import pytest
from scipy.special import factorial

from lovebem.quadrature import (TriangleRule, triangle_rule,
                                collapsed_rule, subdivide4,
                                static_moments)
from conftest import singular_patch_points

def bary_monomial_integral(a, b, c):
    """Exact integral of l0^a l1^b l2^c over a unit-area triangle."""
    return (2.0 * factorial(a) * factorial(b) * factorial(c)
            / factorial(a + b + c + 2))


def check_exactness(rule: TriangleRule, degree: int):
    tri = np.array([[0.0, 0.0, 0.0], [1.3, 0.1, 0.0],
                    [0.4, 1.7, 0.0]])
    area = 0.5 * np.linalg.norm(np.cross(tri[1] - tri[0],
                                         tri[2] - tri[0]))
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            c = degree - a - b
            lam = rule.points
            val = np.sum(rule.weights * lam[:, 0] ** a
                         * lam[:, 1] ** b * lam[:, 2] ** c) * area
            exact = bary_monomial_integral(a, b, c) * area
            assert val == pytest.approx(exact, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("degree", [1, 2, 4, 5])
def test_standard_rules_exact(degree):
    rule = triangle_rule(degree)
    check_exactness(rule, degree)
    assert rule.weights.sum() == pytest.approx(1.0, rel=1e-13)
    assert np.all(rule.weights > 0)


@pytest.mark.parametrize("n", [3, 6, 9])
def test_collapsed_rule_exact(n):
    rule = collapsed_rule(n)
    check_exactness(rule, n - 1)
    assert np.all(rule.weights > 0)


@pytest.mark.parametrize("vertex", [0, 1, 2])
def test_collapsed_rule_singular_vertex(vertex):
    """The rule must integrate 1/R with the pole at its first vertex.

    Rolling the corners puts each vertex of the triangle first in turn.
    """
    tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0]])
    rule = collapsed_rule(24)
    pts, wts = rule.map_to(np.roll(tri, -vertex, axis=0))
    val = np.sum(wts / np.linalg.norm(pts - tri[vertex], axis=-1))
    i0, _ = static_moments(tri, tri[vertex])
    assert val == pytest.approx(float(i0), rel=1e-10)


def test_map_to_weights_include_area():
    tri = np.random.default_rng(20260822).normal(size=(5, 3, 3))
    rule = triangle_rule(4)
    _, wts = rule.map_to(tri)
    areas = 0.5 * np.linalg.norm(
        np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=-1)
    np.testing.assert_allclose(wts.sum(axis=-1), areas, rtol=1e-13)


def test_subdivide4_partitions():
    tri = np.random.default_rng(4).normal(size=(3, 3))
    kids = subdivide4(tri)
    assert kids.shape == (4, 3, 3)
    rule = triangle_rule(2)
    _, w_parent = rule.map_to(tri)
    _, w_kids = rule.map_to(kids)
    assert w_kids.sum() == pytest.approx(w_parent.sum(), rel=1e-13)
    # integrating a linear function over children reproduces the parent
    f = lambda p: 1.7 + p @ np.array([0.3, -1.1, 0.52])
    p_parent, w_parent = rule.map_to(tri)
    p_kids, w_kids = rule.map_to(kids)
    assert np.sum(w_kids * f(p_kids)) == pytest.approx(
        np.sum(w_parent * f(p_parent)), rel=1e-12)


class TestStaticMoments:
    """Closed forms against the fanned Duffy reference integrator."""

    def brute(self, tri, obs, n=64):
        pts, wts = singular_patch_points(tri, obs, n=n)
        inv_r = 1.0 / np.linalg.norm(pts - obs, axis=-1)
        i0 = np.sum(wts * inv_r)
        i1 = np.sum(wts[:, None] * pts * inv_r[:, None], axis=0)
        return i0, i1

    @pytest.mark.parametrize("case", [
        "above_centroid", "at_vertex", "edge_midpoint", "inside",
        "off_plane_near", "far", "skewed"])
    def test_against_reference(self, case):
        tri = np.array([[0.0, 0.0, 0.0], [0.9, 0.1, 0.0],
                        [0.2, 1.1, 0.0]])
        centroid = tri.mean(axis=0)
        obs = {
            "above_centroid": centroid + [0, 0, 0.3],
            "at_vertex": tri[0],
            "edge_midpoint": 0.5 * (tri[0] + tri[1]),
            "inside": centroid,
            "off_plane_near": centroid + [0.05, -0.02, 0.01],
            "far": np.array([3.0, -2.0, 5.0]),
            "skewed": np.array([1.5, 1.5, 0.0]),
        }[case]
        i0, i1 = static_moments(tri, obs)
        ref0, ref1 = self.brute(tri, obs)
        assert float(i0) == pytest.approx(ref0, rel=1e-9)
        np.testing.assert_allclose(i1, ref1, rtol=1e-8, atol=1e-12)

    def test_random_batch(self):
        rng = np.random.default_rng(1207)
        tris = rng.normal(size=(20, 3, 3))
        obs = rng.normal(size=(20, 3))
        i0, i1 = static_moments(tris, obs)
        for m in range(20):
            ref0, ref1 = self.brute(tris[m], obs[m])
            assert i0[m] == pytest.approx(ref0, rel=1e-8)
            np.testing.assert_allclose(i1[m], ref1, rtol=1e-7,
                                       atol=1e-10)

    def test_far_field_limit(self):
        tri = np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.0],
                        [0.0, 0.01, 0.0]])
        obs = np.array([2.0, 1.0, 3.0])
        area = 0.5 * 0.01 * 0.01
        i0, i1 = static_moments(tri, obs)
        dist = np.linalg.norm(obs - tri.mean(axis=0))
        assert float(i0) == pytest.approx(area / dist, rel=1e-4)
        np.testing.assert_allclose(i1, tri.mean(axis=0) * area / dist,
                                   rtol=1e-3, atol=1e-12)

    def test_on_edge_line_beyond_segment(self):
        tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                        [0.0, 1.0, 0.0]])
        obs = np.array([2.5, 0.0, 0.0])  # on an edge line, outside
        i0, i1 = static_moments(tri, obs)
        ref0, ref1 = self.brute(tri, obs)
        assert float(i0) == pytest.approx(ref0, rel=1e-9)
        np.testing.assert_allclose(i1, ref1, rtol=1e-8)
