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

import json
import math
import warnings
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
    "rotated_gram",
    "save_solution",
    "solve_baseline_love",
    "solve_sp",
    "solve_stabilized",
    "static_coupling",
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


def static_coupling(rwg, bc, projectors, gram, near=None):
    """Frequency-free part of the interior coupling block of one surface.

    The coupling of wavenumber k is half the rotated mixed Gram plus the
    primal-dual double layer of k.  On a closed surface its static limit
    cannot couple charge-carrying inputs to circulation test rows, but
    the near-pair quadrature leaks a small such coupling, and that leak
    freezes the low-frequency decay of the inverse around the quadrature
    error.  So the star-to-loop part of the statically assembled block
    is subtracted from the half Gram: that removes the leak and changes
    the matrix only within quadrature error, since the term is exactly
    zero in exact arithmetic.  The static pass folds the same near
    statics as every dynamic pass with the same ``near``.

    For unit-flux functions the block is dimensionless and free of
    frequency, so one serves every wavenumber and radius of a shape.
    ``gram`` is the dense rotated mixed Gram (``rotated_gram``).
    """
    half_gram = 0.5 * gram
    static = double_layer(rwg, bc, _STATIC_WAVENUMBER, near)
    leak = projectors.onto_loops(
        projectors.onto_stars((half_gram + static).T).T)
    return half_gram - leak


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


def interior_coupling(dynamic_double, static_coupling):
    """Dual-tested interior trace block of one wavenumber.

    Adds the primal-dual double layer ``dynamic_double`` of the working
    wavenumber to the frequency-free part built by ``static_coupling``.
    Passed the bare half rotated Gram instead, it gives the block
    exactly as assembled, without the static decoupling correction:
    systems built on that show the conditioning breakdown of the naive
    discretization at low frequency, which the sweep diagnostics report
    next to the scaled path.
    """
    return static_coupling + dynamic_double


class SPSystem:
    """Discrete map from a magnetic surface current to remote field tests.

    Holds the radiation rows, the self-surface trace block and one
    factorization of the interior coupling shared by every solve and
    recovery.  ``dense`` returns the composition of the three factors,
    materialized at build time, and ``factors`` the SVD of that matrix,
    made on first use and shared by every solve.  ``trace_double``, when given, keeps
    the self-surface double layer the coupling was built from.
    ``coupling_condition`` is LAPACK's estimate of the coupling's
    1-norm condition number from its LU factors (``gecon``), a lower
    bound on it; a block whose estimate reaches 1e12 is rejected.
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
        with warnings.catch_warnings():
            # An exactly singular block is rejected just below.
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            self._lu = sla.lu_factor(self.coupling)
        gecon = sla.get_lapack_funcs("gecon", (self._lu[0],))
        rcond, _ = gecon(self._lu[0], np.linalg.norm(self.coupling, 1))
        self.coupling_condition = math.inf if rcond == 0.0 else 1.0 / rcond
        if not self.coupling_condition < _SINGULAR_CONDITION:
            raise ValueError(
                "interior coupling is numerically singular (condition "
                f"{self.coupling_condition:.2e}); the surface mesh is broken "
                "or sits on an interior resonance")
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


def build_sp_system(rwg, bc, bc_probe, ctx, static_coupling,
                    near=None) -> SPSystem:
    """Assemble the single-current system for one working point.

    ``rwg`` and ``bc`` live on the radiating surface, ``bc_probe`` on
    the measurement surface.  ``static_coupling`` is the
    frequency-free part of ``interior_coupling``.  Runs two tiled
    passes: the self pass on the radiating surface and the
    radiation pass onto the probe tests.
    """
    k = _wavenumber(ctx)
    trace_efie, trace_double = _self_pass(rwg, bc, k, near)
    rad = assemble_blocks(
        bc_probe, [(rwg, ("double",)), (bc, ("single", "hyper"))], k)
    coupling = interior_coupling(trace_double, static_coupling)
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


def rotated_gram(rwg, bc):
    """The rotated mixed Gram G = <f_i, n x g_j>, dense, and its LU
    factors.  Both are dimensionless for unit-flux functions."""
    gram = gram_matrix(rwg, bc, rotated=True).toarray()
    return gram, sla.lu_factor(gram)


def assemble_calderon_interior(coupling, blocks: CalderonBlocks,
                               gram_factors):
    """Interior field-identity map on stacked current coefficients.

    Acting on the stack ``(-m, j)`` of a radiating pair, the map
    returns coefficient residuals that vanish up to discretization
    error exactly when the pair radiates nothing into the interior.
    Rows are Gram-normalized so the output lives in the same
    coefficient space as the input and the map can be iterated: the
    top rows, ``-G^T / 2 + D'`` and ``-E'``, by the negated transpose
    of the rotated mixed Gram G, the bottom rows by G.

    ``coupling`` is the interior coupling block of the single-current
    system, ``blocks`` comes from ``calderon_blocks`` and
    ``gram_factors`` are G's LU factors (``rotated_gram``).
    """
    def under_dual(block):
        return sla.lu_solve(gram_factors, block, trans=1)

    top = np.hstack([0.5 * np.eye(len(coupling))
                     - under_dual(blocks.dual_double),
                     under_dual(blocks.dual_efie)])
    bottom = sla.lu_solve(gram_factors,
                          np.hstack([blocks.trace_efie, coupling]))
    return np.vstack([top, bottom])


def check_love_weight(weight) -> float:
    """The interior-constraint weight as a float, if finite and >= 0."""
    weight = float(weight)
    if not (math.isfinite(weight) and weight >= 0.0):
        raise ValueError("love_weight must be a finite nonnegative scalar")
    return weight


def solve_baseline_love(rwg, bc, bc_probe, ctx, e, h, policy,
                        static_coupling, gram_factors, love_weight=None,
                        near=None) -> CurrentSolution:
    """Two-current reconstruction with weighted interior constraints.

    Solves the stacked radiation system for both currents at once,
    appending the interior identity rows scaled by ``love_weight`` so
    the pseudo-inverse prefers pairs that radiate nothing inward.
    ``e`` and ``h`` hold plain dual tests of the measured fields,
    <g_i, E> and <g_i, H>; the impedance scaling of ``h`` is applied
    here.  ``love_weight=None`` balances the spectral norms of the two
    stacks, zero disables the constraint.  ``static_coupling`` is the
    frequency-free part of ``interior_coupling``, and ``gram_factors``
    those of ``assemble_calderon_interior``.  Two passes run: the
    radiation pass onto the probe tests and ``calderon_blocks``, whose
    self-surface blocks are the ones ``build_sp_system`` makes.
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
    coupling = interior_coupling(blocks.trace_double, static_coupling)
    identity_map = assemble_calderon_interior(coupling, blocks, gram_factors)
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
    currents = {"m": solution.m}
    if solution.j is not None:
        currents["j"] = solution.j
    header = ["edge"] + [f"{part}_{name}" for name in currents
                         for part in ("re", "im")]
    columns = [part.tolist() for values in currents.values()
               for part in (np.real(values), np.imag(values))]
    # One string with the bytes csv.writer gives: repr floats, \r\n ends.
    lines = [",".join(header)] + [",".join([str(i), *map(repr, row)])
                                  for i, row in enumerate(zip(*columns))]
    with open(path, "w", newline="") as handle:
        handle.write("# " + json.dumps(meta) + "\n")
        handle.write("\r\n".join(lines) + "\r\n")
