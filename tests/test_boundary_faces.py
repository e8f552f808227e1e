"""Tests for boundary dual-face geometry and the multi-RHS momentum path."""

import numpy as np
import pytest

from repro.mesh import HexMesh


def uniform_box(shape=(5, 4, 3), extent=(1.0, 1.0, 1.0)):
    axes = [np.linspace(0, extent[a], shape[a]) for a in range(3)]
    X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return HexMesh.from_block("box", X)


class TestBoundaryFaceVectors:
    def test_total_side_area(self):
        m = uniform_box((5, 4, 3), (2.0, 3.0, 4.0))
        ids, vecs = m.boundary_face_vectors(0, hi=True)
        # xhi side area = 3 * 4 = 12, outward +x.
        assert vecs[:, 0].sum() == pytest.approx(12.0)
        assert np.allclose(vecs[:, 1:], 0.0, atol=1e-12)

    def test_lo_side_points_outward_negative(self):
        m = uniform_box()
        _ids, vecs = m.boundary_face_vectors(1, hi=False)
        assert np.all(vecs[:, 1] < 0)

    def test_rim_halving(self):
        m = uniform_box((3, 3, 3))
        ids, vecs = m.boundary_face_vectors(2, hi=True)
        mags = np.abs(vecs[:, 2])
        # Corner faces are quarter-size relative to the face center.
        assert mags.max() == pytest.approx(4 * mags.min())

    def test_periodic_axis_rejected(self):
        u = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        r = np.linspace(1.0, 2.0, 4)
        z = np.linspace(0.0, 1.0, 3)
        U, R, Z = np.meshgrid(u, r, z, indexing="ij")
        X = np.stack([R * np.cos(U), R * np.sin(U), Z], axis=-1)
        m = HexMesh.from_block("ring", X, periodic=(True, False, False))
        with pytest.raises(ValueError):
            m.boundary_face_vectors(0, hi=True)

    def test_closed_surface_sums_to_zero(self):
        """All six sides' outward areas cancel (divergence theorem)."""
        m = uniform_box((4, 5, 6), (1.0, 2.0, 3.0))
        total = np.zeros(3)
        for axis in range(3):
            for hi in (False, True):
                _ids, vecs = m.boundary_face_vectors(axis, hi)
                total += vecs.sum(axis=0)
        assert np.allclose(total, 0.0, atol=1e-12)


class TestMomentumMultiRHS:
    def test_component_rhs_matches_full_assembly(self):
        """The RHS-only path the Picard loop runs for components 1 and 2
        (MomentumSystem.assemble_rhs: RHS refill + Algorithm 2 on the
        active plan) must give the same vector as a full re-assembly for
        that component."""
        from repro import NaluWindSimulation, SimulationConfig
        from repro.core.operators import boundary_mass_flux, mass_flux

        cfg = SimulationConfig(nranks=3)
        sim = NaluWindSimulation("turbine_tiny", cfg)
        sim.step()
        comp = sim.comp
        mdot = mass_flux(comp, sim.velocity, cfg.density)
        bflux = boundary_mass_flux(comp, sim.velocity, cfg.density)
        mu = sim.effective_viscosity()

        # Full assembly for component 1.
        _A, rhs_full = sim.momentum.assemble(
            mdot=mdot,
            mu_eff=mu,
            component=1,
            velocity=sim.velocity,
            velocity_old=sim.velocity_old,
            pressure=sim.pressure_field,
            boundary_flux=bflux,
        )
        # RHS-only path for the same component (matrix values from the
        # assemble above are reused; only the RHS buffers reset).
        rhs_only = sim.momentum.assemble_rhs(
            1, sim.velocity, sim.velocity_old, sim.pressure_field
        )
        assert np.allclose(rhs_only.data, rhs_full.data, atol=1e-12)
