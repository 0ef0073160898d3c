"""Single-current reconstruction systems and their solvers.

The primary path recovers the magnetic surface current on a closed
equivalent surface from tangential electric-field tests taken on a
remote measurement surface.  The electric current never enters the
linear system: the interior zero-field identity pins it to the
magnetic one, so the pseudo-inverted operator keeps one unknown per
edge while the recovered pair still radiates nothing into the
interior.  A scaled variant rebalances the operator against
low-frequency breakdown, and the conventional two-current system with
weighted interior constraints is kept as a baseline.

Sign bookkeeping lives in exactly one place: the solved coefficient
vector ``m`` expands the magnetic current itself, the recovery step
returns ``j`` with the matching sign, and the stack ``(-m, j)`` is
what the interior identity map annihilates.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla

from .operators import ETA0, assemble_blocks
from .spaces import gram_matrix
from .tsvd import SolveReport, factorize, tsvd_solve
# Not called here; bound because the benchmark's traced run wraps them.
from .projectors import build_projectors  # noqa: F401
from .spaces import build_loop_star  # noqa: F401

__all__ = [
    "CalderonBlocks",
    "CurrentSolution",
    "SPSystem",
    "StabilizedSystem",
    "assemble_calderon_interior",
    "build_sp_system",
    "calderon_blocks",
    "check_love_weight",
    "double_layer",
    "interior_coupling",
    "recover_electric_current",
    "save_solution",
    "solve_baseline_love",
    "solve_sp",
    "solve_stabilized",
    "static_double_layer",
]

_STATIC_WAVENUMBER = 1e-30
_SINGULAR_CONDITION = 1e12


def _wavenumber(ctx) -> float:
    k = float(getattr(ctx, "wavenumber", ctx))
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError("wavenumber must be positive and finite")
    return k


def _efie(block, k):
    """Combined field operator k * single + hyper / k of one request."""
    return k * block["single"] + block["hyper"] / k


def double_layer(rwg, bc, ctx, near=None):
    """Primal-dual double layer of one surface, tested on itself.

    ``near``, here and in every same-surface pass below, is the
    surface's ``NearPlan`` if one is kept; without it the pass builds
    one for its own mesh.
    """
    k = _wavenumber(ctx)
    return assemble_blocks(rwg, [(bc, ("double",))], k,
                           near=near)[0]["double"]


def static_double_layer(rwg, bc, near=None):
    """Primal-dual double layer at the static wavenumber.

    It does not depend on the working frequency, so one block serves
    the decoupling correction of every wavenumber on the same mesh.
    Its near pairs fold the same static blocks as every dynamic pass
    with the same ``near``.
    """
    return double_layer(rwg, bc, _STATIC_WAVENUMBER, near)


def _self_requests(rwg, bc):
    """RWG-tested EFIE trace of RWG sources and double layer of BC ones."""
    return [(rwg, ("single", "hyper")), (bc, ("double",))]


def _self_pass(rwg, bc, k, near):
    """EFIE trace and double layer of one surface from one pass."""
    blocks = assemble_blocks(rwg, _self_requests(rwg, bc), k, near=near)
    return _efie(blocks[0], k), blocks[1]["double"]


class CalderonBlocks(NamedTuple):
    """Same-surface blocks of one wavenumber for the interior identity.

    ``trace_efie`` and ``trace_double`` are the self pass's blocks;
    ``dual_double`` is the BC-tested double layer of RWG sources and
    ``dual_efie`` the BC-tested EFIE of BC sources.
    """

    trace_efie: np.ndarray
    trace_double: np.ndarray
    dual_double: np.ndarray
    dual_efie: np.ndarray


def calderon_blocks(rwg, bc, ctx, near=None) -> CalderonBlocks:
    """Self-pass and dual-tested blocks of one surface from one pass.

    RWG and BC functions live on one barycentric refinement, so all
    four blocks fold the same fine-face kernel moments; the self-pass
    blocks equal those of ``build_sp_system`` bit for bit.
    """
    k = _wavenumber(ctx)
    blocks = assemble_blocks(
        rwg, _self_requests(rwg, bc) + [(rwg, ("double",), bc),
                                        (bc, ("single", "hyper"), bc)],
        k, near=near)
    return CalderonBlocks(_efie(blocks[0], k), blocks[1]["double"],
                          blocks[2]["double"], _efie(blocks[3], k))


def interior_coupling(rwg, bc, dynamic_double, static_double, projectors,
                      corrected=True):
    """Dual-tested interior trace block, cleaned for static decoupling.

    The block is half the rotated mixed Gram plus the primal-dual
    double layer ``dynamic_double`` of the working wavenumber.  On a
    closed surface its static limit cannot couple charge-carrying
    inputs to circulation test rows, but the near-pair quadrature leaks
    a small such coupling, and that leak freezes the low-frequency
    decay of the inverse around the quadrature error.  Subtracting the
    star-to-loop part of the statically assembled block
    (``static_double``, from ``static_double_layer``) removes the leak
    while changing the matrix only within quadrature error, since the
    subtracted term is exactly zero in exact arithmetic.

    ``corrected=False`` skips that subtraction and returns the block
    exactly as assembled.  Systems built on the uncorrected block show
    the conditioning breakdown of the naive discretization at low
    frequency, which the sweep diagnostics report next to the scaled
    path.
    """
    half_gram = 0.5 * gram_matrix(rwg, bc, rotated=True).toarray()
    if not corrected:
        return half_gram + dynamic_double
    ps = projectors
    leak = ps.onto_loops(ps.onto_stars((half_gram + static_double).T).T)
    return half_gram + dynamic_double - leak


class SPSystem:
    """Discrete map from a magnetic surface current to remote field tests.

    Holds the radiation rows, the self-surface trace block and one
    factorization of the interior coupling shared by every solve and
    recovery.  ``dense`` returns the composition of the three factors,
    materialized at build time, and ``factors`` the SVD of that matrix,
    made on first use and shared by every solve.  ``trace_double``, when given, keeps
    the self-surface double layer the coupling was built from.
    """

    def __init__(self, wavenumber, field_double, field_efie, trace_efie,
                 coupling, trace_double=None):
        self.wavenumber = float(wavenumber)
        self.trace_double = trace_double
        self.field_double = np.asarray(field_double)
        self.field_efie = np.asarray(field_efie)
        self.trace_efie = np.asarray(trace_efie)
        self.coupling = np.asarray(coupling)
        n = self.coupling.shape[0]
        if self.coupling.ndim != 2 or self.coupling.shape != (n, n):
            raise ValueError("interior coupling block must be square")
        if self.trace_efie.shape != (n, n):
            raise ValueError("trace block does not match the coupling size")
        if (self.field_double.shape != self.field_efie.shape
                or self.field_double.shape[1] != n):
            raise ValueError("radiation rows disagree with the unknown count")
        self.coupling_condition = float(np.linalg.cond(self.coupling))
        if not self.coupling_condition < _SINGULAR_CONDITION:
            raise ValueError(
                "interior coupling is numerically singular (condition "
                f"{self.coupling_condition:.2e}); the surface mesh is broken "
                "or sits on an interior resonance")
        self._lu = sla.lu_factor(self.coupling)
        recovered = self.inner_solve(self.trace_efie)
        self._matrix = -self.field_double - self.field_efie @ recovered

    @property
    def n_unknowns(self) -> int:
        return self.trace_efie.shape[0]

    @property
    def n_tests(self) -> int:
        return self.field_double.shape[0]

    def inner_solve(self, rhs):
        """Solve the interior coupling block for one or many right sides."""
        return sla.lu_solve(self._lu, np.asarray(rhs))

    def dense(self):
        """Materialized system matrix."""
        return self._matrix

    @cached_property
    def factors(self):
        """SVD of ``dense()`` for ``tsvd_solve``."""
        return factorize(self._matrix)


def build_sp_system(rwg, bc, bc_probe, ctx, projectors, static_double,
                    near=None) -> SPSystem:
    """Assemble the single-current system for one working point.

    ``rwg`` and ``bc`` live on the radiating surface, ``bc_probe`` on
    the measurement surface.  ``projectors`` and ``static_double`` are
    the frequency-independent inputs of ``interior_coupling``.  Runs
    two tiled passes: the self pass on the radiating surface and the
    radiation pass onto the probe tests.
    """
    k = _wavenumber(ctx)
    trace_efie, trace_double = _self_pass(rwg, bc, k, near)
    rad = assemble_blocks(
        bc_probe, [(rwg, ("double",)), (bc, ("single", "hyper"))], k)
    coupling = interior_coupling(rwg, bc, trace_double, static_double,
                                 projectors)
    return SPSystem(k, rad[0]["double"], _efie(rad[1], k), trace_efie,
                    coupling, trace_double=trace_double)


@dataclass(frozen=True)
class CurrentSolution:
    """Recovered surface currents with their solve provenance.

    ``m`` holds RWG coefficients of the magnetic current; ``j`` holds
    BC coefficients of the impedance-scaled electric current once the
    recovery step has run, and is ``None`` before that.
    """

    m: np.ndarray
    j: np.ndarray | None
    wavenumber: float
    formulation: str
    report: SolveReport


def solve_sp(system: SPSystem, e, policy) -> CurrentSolution:
    """Pseudo-invert the system for the magnetic current coefficients.

    ``e`` holds plain dual tests of the measured electric field on the
    probe surface, e_i = <g_i, E>.  The system rows produce rotated
    field traces, so the right side is the negated test vector; the
    sign lives here and nowhere else.
    """
    e = np.asarray(e)
    if e.shape != (system.n_tests,):
        raise ValueError(
            "measurement vector length does not match the test count")
    x, report = tsvd_solve(system.factors, -e, policy)
    return CurrentSolution(m=x, j=None, wavenumber=system.wavenumber,
                           formulation="single-current", report=report)


def recover_electric_current(system: SPSystem,
                             solution: CurrentSolution) -> CurrentSolution:
    """Attach the electric current pinned by the interior identity.

    Reuses the factorization made at build time, so recovering twice
    from the same coefficients is bit-identical.
    """
    if solution.m.shape != (system.n_unknowns,):
        raise ValueError("solution does not match the system size")
    j = system.inner_solve(system.trace_efie @ solution.m)
    return replace(solution, j=j)


class StabilizedSystem:
    """Scaled system whose conditioning survives the static limit.

    The unknown map rebalances the current coefficients and the test
    map the measurement rows; solving the scaled system and mapping
    back reproduces the plain solution whenever both paths are well
    conditioned.  The scaled matrix is materialized at build time and
    factored on first use.
    """

    def __init__(self, base: SPSystem, unknown_map, test_map):
        if unknown_map.projectors.n_edges != base.n_unknowns:
            raise ValueError("unknown-side scaling lives on the wrong mesh")
        if test_map.projectors.n_edges != base.n_tests:
            raise ValueError("test-side scaling lives on the wrong mesh")
        self.base = base
        self.unknown_map = unknown_map
        self.test_map = test_map
        scaled_cols = unknown_map.apply(base.dense().T).T
        self._matrix = test_map.apply(scaled_cols)

    def matrix(self):
        """Materialized scaled system."""
        return self._matrix

    @cached_property
    def factors(self):
        """SVD of ``matrix()`` for ``tsvd_solve``."""
        return factorize(self._matrix)


def solve_stabilized(stabilized: StabilizedSystem, e,
                     policy) -> CurrentSolution:
    """Solve the scaled system and map the unknown back.

    ``e`` uses the same plain-test convention as ``solve_sp``.
    """
    e = np.asarray(e)
    if e.shape != (stabilized.base.n_tests,):
        raise ValueError(
            "measurement vector length does not match the test count")
    rhs = stabilized.test_map.apply(-e)
    x, report = tsvd_solve(stabilized.factors, rhs, policy)
    m = stabilized.unknown_map.apply(x)
    return CurrentSolution(m=m, j=None, wavenumber=stabilized.base.wavenumber,
                           formulation="single-current scaled", report=report)


def assemble_calderon_interior(rwg, bc, coupling, blocks: CalderonBlocks):
    """Interior field-identity map on stacked current coefficients.

    Acting on the stack ``(-m, j)`` of a radiating pair, the map
    returns coefficient residuals that vanish up to discretization
    error exactly when the pair radiates nothing into the interior.
    Rows are Gram-normalized so the output lives in the same
    coefficient space as the input and the map can be iterated.

    ``coupling`` is the interior coupling block of the single-current
    system and ``blocks`` comes from ``calderon_blocks``.
    """
    gram = gram_matrix(rwg, bc, rotated=True).toarray()
    gram_dual = -gram.T
    top = np.hstack([0.5 * gram_dual + blocks.dual_double, -blocks.dual_efie])
    bottom = np.hstack([blocks.trace_efie, coupling])
    top = sla.solve(gram_dual, top)
    bottom = sla.solve(gram, bottom)
    return np.vstack([top, bottom])


def check_love_weight(weight) -> float:
    """The interior-constraint weight as a float, if finite and >= 0."""
    weight = float(weight)
    if not (math.isfinite(weight) and weight >= 0.0):
        raise ValueError("love_weight must be a finite nonnegative scalar")
    return weight


def solve_baseline_love(rwg, bc, bc_probe, ctx, e, h, policy, projectors,
                        static_double, love_weight=None,
                        near=None) -> CurrentSolution:
    """Two-current reconstruction with weighted interior constraints.

    Solves the stacked radiation system for both currents at once,
    appending the interior identity rows scaled by ``love_weight`` so
    the pseudo-inverse prefers pairs that radiate nothing inward.
    ``e`` and ``h`` hold plain dual tests of the measured fields,
    <g_i, E> and <g_i, H>; the impedance scaling of ``h`` is applied
    here.  ``love_weight=None`` balances the spectral norms of the two
    stacks, zero disables the constraint.  ``projectors`` and
    ``static_double`` are the frequency-independent inputs of
    ``interior_coupling``.  Two passes run: the radiation pass onto the
    probe tests and ``calderon_blocks``, whose self-surface blocks are
    the ones ``build_sp_system`` makes.
    """
    k = _wavenumber(ctx)
    e = np.asarray(e)
    h = np.asarray(h)
    n_tests = bc_probe.n_dofs
    if e.shape != (n_tests,) or h.shape != (n_tests,):
        raise ValueError("measurement vectors do not match the probe space")
    # An explicit weight is checked before any assembly pass runs.
    weight = None if love_weight is None else check_love_weight(love_weight)
    rad = assemble_blocks(
        bc_probe, [(rwg, ("double", "single", "hyper")),
                   (bc, ("double", "single", "hyper"))], k)
    double_primal = rad[0]["double"]
    efie_primal = _efie(rad[0], k)
    double_dual = rad[1]["double"]
    efie_dual = _efie(rad[1], k)
    radiation = np.block([[-double_primal, efie_dual],
                          [-efie_primal, -double_dual]])
    blocks = calderon_blocks(rwg, bc, k, near)
    coupling = interior_coupling(rwg, bc, blocks.trace_double, static_double,
                                 projectors)
    identity_map = assemble_calderon_interior(rwg, bc, coupling, blocks)
    if weight is None:
        weight = check_love_weight(np.linalg.norm(radiation, 2)
                                   / np.linalg.norm(identity_map, 2))
    stacked = np.vstack([radiation, weight * identity_map])
    rhs = np.concatenate([e, ETA0 * h, np.zeros(2 * rwg.n_dofs)])
    x, report = tsvd_solve(factorize(stacked), rhs, policy)
    n = rwg.n_dofs
    return CurrentSolution(m=-x[:n], j=x[n:], wavenumber=k,
                           formulation="two-current", report=report)


def save_solution(solution: CurrentSolution, path, extra=None) -> None:
    """Write a solution as CSV with a JSON provenance comment line.

    ``extra`` merges additional provenance keys into the header.
    """
    meta = {
        "wavenumber": solution.wavenumber,
        "formulation": solution.formulation,
        "sigma_max": solution.report.sigma_max,
        "sigma_cut": solution.report.sigma_cut,
        "rank": solution.report.rank,
        "condition": solution.report.condition,
        "residual": solution.report.residual,
    }
    if extra:
        meta.update(extra)
    with open(path, "w", newline="") as handle:
        handle.write("# " + json.dumps(meta) + "\n")
        writer = csv.writer(handle)
        if solution.j is None:
            writer.writerow(["edge", "re_m", "im_m"])
            for i, val in enumerate(solution.m):
                writer.writerow(
                    [i, repr(float(val.real)), repr(float(val.imag))])
        else:
            writer.writerow(["edge", "re_m", "im_m", "re_j", "im_j"])
            for i, (mv, jv) in enumerate(zip(solution.m, solution.j)):
                writer.writerow(
                    [i, repr(float(mv.real)), repr(float(mv.imag)),
                     repr(float(jv.real)), repr(float(jv.imag))])
