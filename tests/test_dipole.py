"""Dipole reference fields: Maxwell oracles then measurement testing."""
import numpy as np
import pytest

from lovebem.dipole import DipoleSource, field_arrays, sample_measurement
from lovebem.mesh import generate_sphere_mesh
from lovebem.operators import ETA0, FrequencyContext
from lovebem.spaces import basis_pair

CTX = FrequencyContext(3.16e9)


@pytest.fixture(scope="module")
def tilted_source():
    moment = np.array([0.3 + 0.1j, -0.2j, 1.0]) * 1e-3
    return DipoleSource(np.zeros(3), moment, CTX)


@pytest.fixture(scope="module")
def axial_source():
    return DipoleSource(np.zeros(3), np.array([0.0, 0.0, 1e-3]), CTX)


@pytest.fixture(scope="module")
def measurement_setup():
    mesh = generate_sphere_mesh(0.04 + CTX.wavelength, CTX.wavelength / 5)
    return mesh, basis_pair(mesh)[1]


def curl_fd(func, pts, step):
    out = np.zeros((len(pts), 3), dtype=np.complex128)
    for axis, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        d = np.zeros(3)
        d[axis] = step
        dfa = (func(pts + d) - func(pts - d)) / (2.0 * step)
        out[:, i] -= dfa[:, j]
        out[:, j] += dfa[:, i]
    return out


class TestSourceValidation:
    def test_rejects_zero_moment(self):
        with pytest.raises(ValueError, match="nonzero"):
            DipoleSource(np.zeros(3), np.zeros(3), CTX)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            DipoleSource(np.zeros(2), np.array([0, 0, 1.0]), CTX)
        with pytest.raises(ValueError):
            DipoleSource(np.zeros(3), np.array([0, 0, 1.0, 0.0]), CTX)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DipoleSource(np.array([0, 0, np.nan]), np.array([0, 0, 1.0]), CTX)


class TestClosedForms:
    def test_maxwell_curl_residuals(self, tilted_source):
        k = CTX.wavenumber
        r0 = 5.0 / k
        pts = r0 * np.array([[0.6, 0.64, 0.48], [-0.8, 0.6, 0.0],
                             [0.0, 0.0, 1.0], [0.267, -0.534, 0.802]])
        step = 1e-4 * CTX.wavelength
        curl_e = curl_fd(lambda p: field_arrays(tilted_source, p)[0],
                         pts, step)
        curl_h = curl_fd(lambda p: field_arrays(tilted_source, p)[1],
                         pts, step)
        e, h = field_arrays(tilted_source, pts)
        target_e = 1j * k * ETA0 * h
        target_h = -1j * k / ETA0 * e
        assert (np.linalg.norm(curl_e - target_e)
                <= 1e-6 * np.linalg.norm(target_e))
        assert (np.linalg.norm(curl_h - target_h)
                <= 1e-6 * np.linalg.norm(target_h))

    def test_far_field_impedance(self, tilted_source):
        point = (1e3 / CTX.wavenumber) * np.array([[0.6, 0.64, 0.48]])
        e, h = field_arrays(tilted_source, point)
        n = point[0] / np.linalg.norm(point[0])
        et = e[0] - n * (e[0] @ n)
        ht = h[0] - n * (h[0] @ n)
        ratio = np.linalg.norm(et) / np.linalg.norm(ht)
        assert ratio == pytest.approx(ETA0, rel=1e-3)

    def test_on_axis_field_is_purely_radial(self, axial_source):
        e, h = field_arrays(axial_source, np.array([[0.0, 0.0, 0.1]]))
        assert np.abs(e[0][:2]).max() <= 1e-20
        assert np.abs(h[0]).max() <= 1e-20
        assert abs(e[0][2]) > 0.0

    def test_radiated_power_matches_closed_form(self, tilted_source):
        k = CTX.wavenumber
        radius = 2000 * CTX.wavelength
        nodes, weights = np.polynomial.legendre.leggauss(64)
        phi = np.linspace(0.0, 2.0 * np.pi, 129)[:-1]
        ct, ph = np.meshgrid(nodes, phi, indexing="ij")
        st = np.sqrt(1.0 - ct ** 2)
        pts = radius * np.stack([st * np.cos(ph), st * np.sin(ph), ct],
                                axis=-1).reshape(-1, 3)
        e, h = field_arrays(tilted_source, pts)
        poynting = 0.5 * np.real(np.cross(e, h.conj()))
        radial = (poynting * (pts / radius)).sum(-1).reshape(64, len(phi))
        power = (radial.mean(axis=1) * 2.0 * np.pi * weights).sum() * radius ** 2
        exact = ETA0 * k ** 2 * np.linalg.norm(tilted_source.moment) ** 2 / (
            12.0 * np.pi)
        assert power == pytest.approx(exact, rel=1e-3)

    def test_singular_point_rejected(self, axial_source):
        with pytest.raises(ValueError, match="coincides"):
            field_arrays(axial_source, np.zeros((1, 3)))


class TestMeasurement:
    def test_scene_radius_value(self):
        assert CTX.wavelength == pytest.approx(0.09487, abs=1e-5)
        assert 0.04 + CTX.wavelength == pytest.approx(0.1349, abs=1e-4)

    def test_quadrature_self_convergence(self, axial_source,
                                         measurement_setup):
        mesh, bc = measurement_setup
        e4, _ = sample_measurement(axial_source, mesh, bc, degree=4)
        e5, _ = sample_measurement(axial_source, mesh, bc, degree=5)
        assert np.linalg.norm(e4 - e5) <= 1e-8 * np.linalg.norm(e5)

    def test_linear_in_moment(self, axial_source, measurement_setup):
        mesh, bc = measurement_setup
        scaled = DipoleSource(axial_source.position,
                              3.0 * axial_source.moment, CTX)
        e1, h1 = sample_measurement(axial_source, mesh, bc)
        e3, h3 = sample_measurement(scaled, mesh, bc)
        assert np.abs(e3 - 3.0 * e1).max() <= 1e-12 * np.abs(e1).max()
        assert np.abs(h3 - 3.0 * h1).max() <= 1e-12 * np.abs(h1).max()

    def test_vector_lengths(self, axial_source, measurement_setup):
        mesh, bc = measurement_setup
        e, h = sample_measurement(axial_source, mesh, bc)
        assert e.shape == h.shape == (bc.n_dofs,)

    def test_wrong_surface_rejected(self, axial_source, measurement_setup):
        _, bc = measurement_setup
        other = generate_sphere_mesh(0.2, 0.1)
        with pytest.raises(ValueError, match="surface"):
            sample_measurement(axial_source, other, bc)
