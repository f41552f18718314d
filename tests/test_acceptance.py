"""Acceptance gate: one test per criterion, at the stated tolerances and instance counts.

Each test records a PASS/FAIL line (shown in the pytest terminal summary)
before asserting, so the verdict table is complete even when something fails.
"""

import json
import subprocess
import sys
import time

import numpy as np

from eprkit.antilinear import AntilinearMap, adjoint, apply, compose_aa, compose_mixed, polar
from eprkit.bipartite import (
    BipartiteVector,
    cloning_check,
    epr_maps,
    inner_via_trace,
    local_transform,
    partner_operator,
    polar_of_state,
    project_rank1,
    reconstruct,
    reduced,
)
from eprkit.linalg import partial_trace, psd_sqrt, support_projection
from eprkit.modular import lift_operators, tomita_S, twisted_adjoint, twisted_compose, twisted_product
from eprkit.sampling import rng_for, state_from_rng
from eprkit.teleport import (
    chain_oracle,
    chain_teleport,
    luders_apply,
    luders_channel,
    success_bound,
    teleport_map,
    teleport_oracle,
    trace_norm_fidelity,
)

from util import bell, complex_normal, random_unitary

SEED = 42


def fro(x) -> float:
    return float(np.linalg.norm(np.asarray(x).reshape(-1)))


def verdict(record, number: int, label: str, residual: float, tol: float, extra: str = ""):
    status = "PASS" if residual <= tol else "FAIL"
    note = f", {extra}" if extra else ""
    record(f"{status} {number:02d} {label}: max residual {residual:.3e} (tol {tol:.0e}{note})")


def test_criterion_1_epr_identity_suite(acceptance_report):
    dims = [2, 3, 4]
    pairs = [(da, db) for da in dims for db in dims]
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        da, db = pairs[trial % len(pairs)]
        rng = rng_for(SEED, 201, trial)
        psi = state_from_rng(rng, da, db)
        pair = epr_maps(psi)
        phi_a = complex_normal(rng, da)
        phi_a /= np.linalg.norm(phi_a)
        phi_b = complex_normal(rng, db)

        worst = max(
            worst,
            fro(project_rank1(psi, phi_a).coeff - np.outer(phi_a, apply(pair.s_ba, phi_a))),
        )
        target = np.vdot(np.kron(phi_a, phi_b), psi.to_vector())
        worst = max(
            worst,
            abs(np.vdot(phi_b, apply(pair.s_ba, phi_a)) - target),
            abs(np.vdot(phi_a, apply(pair.s_ab, phi_b)) - target),
        )
        chi = state_from_rng(rng, da, db)
        worst = max(worst, abs(inner_via_trace(chi, psi) - np.vdot(chi.coeff, psi.coeff)))
        worst = max(worst, fro(reconstruct(pair.s_ba, np.eye(da)).coeff - psi.coeff))
        dense = np.outer(psi.to_vector(), np.conj(psi.to_vector()))
        worst = max(
            worst,
            fro(reduced(psi, "a") - partial_trace(dense, da, db, "a")),
            fro(reduced(psi, "b") - partial_trace(dense, da, db, "b")),
        )
        a_op = complex_normal(rng, da, da)
        b_op = complex_normal(rng, db, db)
        moved = epr_maps(local_transform(psi, a_op, b_op))
        want_ba = compose_mixed(b_op, compose_mixed(a_op.conj().T, pair.s_ba, "right"), "left")
        want_ab = compose_mixed(a_op, compose_mixed(b_op.conj().T, pair.s_ab, "right"), "left")
        worst = max(worst, fro(moved.s_ba.mat - want_ba.mat), fro(moved.s_ab.mat - want_ab.mat))
    elapsed = time.perf_counter() - start
    verdict(acceptance_report, 1, "EPR identity suite (100 states)", worst, 1e-10, f"{elapsed:.2f} s")
    assert worst <= 1e-10
    assert elapsed <= 5.0


def test_criterion_2_factorization_theorem(acceptance_report):
    worst = 0.0
    for trial in range(100):
        rng = rng_for(SEED, 202, trial)
        da, db, dc = (int(rng.integers(2, 5)) for _ in range(3))
        psi = state_from_rng(rng, da, db)
        phi = state_from_rng(rng, db, dc)
        v = complex_normal(rng, da)
        v /= np.linalg.norm(v)
        worst = max(worst, fro(teleport_map(psi, phi).t @ v - teleport_oracle(psi, phi, v)))
    bell_exact = float(np.abs(teleport_map(bell(2), bell(2)).t - np.eye(2) / 2).max())
    verdict(
        acceptance_report, 2, "teleportation factorization (100 instances)", worst, 1e-10,
        f"Bell/Bell entry error {bell_exact:.1e}",
    )
    assert worst <= 1e-10
    assert bell_exact <= 1e-14


def test_criterion_3_trace_norm_equals_fidelity(acceptance_report):
    worst = 0.0
    for trial in range(100):
        rng = rng_for(SEED, 203, trial)
        da, db, dc = (int(rng.integers(2, 5)) for _ in range(3))
        tm = teleport_map(state_from_rng(rng, da, db), state_from_rng(rng, db, dc))
        tn, f = trace_norm_fidelity(tm)
        worst = max(worst, abs(tn - f))
    skew = BipartiteVector(np.diag([np.sqrt(0.8), np.sqrt(0.2)]))
    tn, _ = trace_norm_fidelity(teleport_map(bell(2), skew))
    closed = abs(tn - 0.9486832980505138)
    verdict(
        acceptance_report, 3, "trace norm = fidelity (100 instances)", max(worst, closed), 1e-9,
        f"closed form error {closed:.1e}",
    )
    assert worst <= 1e-9
    assert closed <= 1e-9


def test_criterion_4_success_bound(acceptance_report):
    worst_violation = 0.0
    worst_gap = 0.0
    for trial in range(20):
        rng = rng_for(SEED, 204, trial)
        da, db, dc = (int(rng.integers(2, 5)) for _ in range(3))
        tm = teleport_map(state_from_rng(rng, da, db), state_from_rng(rng, db, dc))
        bound = success_bound(tm)
        vs = complex_normal(rng, 1000, da)
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        out_norms = np.linalg.norm(vs @ tm.t.T, axis=1) ** 2
        worst_violation = max(worst_violation, float(out_norms.max()) - bound)
        _, sv, vh = np.linalg.svd(tm.t)
        attained = float(np.linalg.norm(tm.t @ vh[0].conj()) ** 2)
        worst_gap = max(worst_gap, abs(attained - bound))
    verdict(
        acceptance_report, 4, "output-norm bound (20x1000 inputs)",
        max(worst_violation, 0.0), 1e-12, f"saturation gap {worst_gap:.1e}",
    )
    assert worst_violation <= 1e-12
    assert worst_gap <= 1e-9


def test_criterion_5_polar_suite(acceptance_report):
    dims = [2, 3, 4]
    pairs = [(da, db) for da in dims for db in dims]
    worst = 0.0
    for trial in range(100):
        da, db = pairs[trial % len(pairs)]
        rng = rng_for(SEED, 205, trial)
        c = complex_normal(rng, da, db)
        if trial % 3 == 2 and da > 1:
            c[int(rng.integers(da))] = 0.0  # rank-deficient case
        psi = BipartiteVector(c / np.linalg.norm(c))
        pair = epr_maps(psi)
        parts = polar(pair.s_ba)
        worst = max(
            worst,
            fro(pair.s_ba.mat - parts.positive @ parts.phase.mat),
            fro(pair.s_ba.mat - parts.phase.mat @ np.conj(parts.positive_dom)),
            fro(compose_aa(adjoint(parts.phase), parts.phase) - parts.support_dom),
            fro(compose_aa(parts.phase, adjoint(parts.phase)) - parts.support_cod),
            fro(
                compose_aa(
                    compose_mixed(reduced(psi, "a"), parts.phase, "right"), adjoint(parts.phase)
                )
                - reduced(psi, "b")
            ),
        )
    verdict(acceptance_report, 5, "polar decompositions incl. rank-deficient", worst, 1e-9)
    assert worst <= 1e-9


def test_criterion_6_partner_transfer(acceptance_report):
    worst = 0.0
    for trial in range(100):
        rng = rng_for(SEED, 206, trial)
        d = 2 + trial % 3
        psi = state_from_rng(rng, d, d, entangled=True)
        a_op = complex_normal(rng, d, d)
        b_op = partner_operator(a_op, polar_of_state(psi))
        worst = max(
            worst,
            abs(np.trace(reduced(psi, "a") @ a_op) - np.trace(reduced(psi, "b") @ b_op)),
        )
    verdict(acceptance_report, 6, "partner-operator trace transfer (100 pairs)", worst, 1e-10)
    assert worst <= 1e-10


def test_criterion_7_cloning_lemma(acceptance_report):
    worst = 0.0
    all_hermitian = True
    for trial in range(50):
        rng = rng_for(SEED, 207, trial)
        d = 2 + trial % 3
        u = random_unitary(rng, d)
        v = random_unitary(rng, d)
        p = rng.random(d) + 0.05
        q = rng.random(d) + 0.05
        phi = BipartiteVector(u @ np.diag(np.sqrt(p / p.sum())) @ v.conj().T)
        psi = BipartiteVector(u @ np.diag(np.sqrt(q / q.sum())) @ v.conj().T)
        hermitian, comm = cloning_check(phi, psi)
        all_hermitian = all_hermitian and hermitian
        worst = max(worst, comm)
    verdict(acceptance_report, 7, "cloning lemma (50 constructed pairs)", worst, 1e-9)
    assert all_hermitian
    assert worst <= 1e-9


def test_criterion_8_luders_suite(acceptance_report):
    worst_indep = 0.0
    worst_bound = 0.0
    rank1_exact = True
    for trial in range(50):
        rng = rng_for(SEED, 208, trial)
        da, db, dc = 2, 2, 2
        phi = state_from_rng(rng, db, dc)
        u = random_unitary(rng, da * db)
        rank = 1 + int(rng.integers(da * db))
        psis = [BipartiteVector.from_vector(u[:, k], da, db) for k in range(rank)]
        ch = luders_channel(psis, phi)

        mix = random_unitary(rng, rank)
        flat = np.stack([p.to_vector() for p in psis])
        psis2 = [BipartiteVector.from_vector(w, da, db) for w in mix.T @ flat]
        ch2 = luders_channel(psis2, phi)
        nu_raw = complex_normal(rng, da, da)
        nu = nu_raw @ nu_raw.conj().T
        worst_indep = max(worst_indep, fro(luders_apply(ch, nu) - luders_apply(ch2, nu)))

        out_trace = float(np.trace(luders_apply(ch, nu)).real)
        worst_bound = max(
            worst_bound, out_trace - ch.ancilla_norm_sq * float(np.trace(nu).real)
        )

        single = luders_channel(psis[:1], phi)
        rank1_exact = rank1_exact and np.array_equal(
            single.maps[..., 0, :, :], teleport_map(psis[0], phi).t
        )
    worst = max(worst_indep, worst_bound, 0.0)
    verdict(
        acceptance_report, 8, "higher-rank channel suite (50 instances)", worst, 1e-9,
        f"rank-1 exact: {rank1_exact}",
    )
    assert worst_indep <= 1e-9
    assert worst_bound <= 1e-9
    assert rank1_exact


def test_criterion_9_chain_theorem(acceptance_report):
    worst = 0.0
    for trial in range(50):
        rng = rng_for(SEED, 209, trial)
        stages = [state_from_rng(rng, 2, 2) for _ in range(4)]
        t = chain_teleport(stages)
        v = complex_normal(rng, 2)
        v /= np.linalg.norm(v)
        out = chain_oracle(v, stages)
        worst = max(worst, fro(t @ v - out))
    bell_exact = float(np.abs(chain_teleport([bell(2)] * 4) - np.eye(2) / 4).max())
    verdict(
        acceptance_report, 9, "five-subsystem chain (50 instances)", worst, 1e-10,
        f"all-Bell entry error {bell_exact:.1e}",
    )
    assert worst <= 1e-10
    assert bell_exact <= 1e-14


def test_criterion_10_twisted_modular_suite(acceptance_report):
    worst = 0.0
    for trial in range(50):
        d = 2 + trial % 2
        rng = rng_for(SEED, 210, trial)
        psi = state_from_rng(rng, d, d, entangled=True)
        phi = state_from_rng(rng, d, d)

        eta1, xi1 = AntilinearMap(complex_normal(rng, d, d)), AntilinearMap(complex_normal(rng, d, d))
        eta2, xi2 = AntilinearMap(complex_normal(rng, d, d)), AntilinearMap(complex_normal(rng, d, d))
        p1 = twisted_product(eta1, xi1)
        p2 = twisted_product(eta2, xi2)
        worst = max(
            worst,
            fro(twisted_adjoint(p1).mat - p1.mat.T),
            fro(twisted_compose(p1, p2).mat - np.kron(compose_aa(eta1, xi2), compose_aa(xi1, eta2))),
        )

        fwd = lift_operators(phi, psi)
        bwd = lift_operators(psi, phi)
        om_a_phi, om_b_phi = reduced(phi, "a"), reduced(phi, "b")
        om_a_psi, om_b_psi = reduced(psi, "a"), reduced(psi, "b")
        worst = max(
            worst,
            fro(twisted_compose(fwd.delta_tilde, bwd.delta_tilde).mat - np.kron(om_a_phi, om_b_psi)),
            fro(
                twisted_compose(fwd.j, bwd.j).mat
                - np.kron(support_projection(om_a_phi), support_projection(om_b_psi))
            ),
        )
        j = fwd.j.mat
        q_a_phi, q_b_phi = support_projection(om_a_phi), support_projection(om_b_phi)
        q_a_psi, q_b_psi = support_projection(om_a_psi), support_projection(om_b_psi)
        worst = max(
            worst,
            fro(fwd.delta_tilde.mat - psd_sqrt(np.kron(om_a_phi, om_b_psi)) @ j),
            fro(fwd.delta_tilde.mat - j @ np.conj(psd_sqrt(np.kron(om_a_psi, om_b_phi)))),
            fro(fwd.s_tilde.mat - np.kron(q_a_phi, psd_sqrt(om_b_psi)) @ j),
            fro(fwd.s_tilde.mat - j @ np.conj(np.kron(psd_sqrt(om_a_psi), q_b_phi))),
            fro(fwd.f_tilde.mat - np.kron(psd_sqrt(om_a_phi), q_b_psi) @ j),
            fro(fwd.f_tilde.mat - j @ np.conj(np.kron(q_a_psi, psd_sqrt(om_b_phi)))),
        )

        triple = tomita_S(phi, psi)
        for i in range(d):
            for k in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[i, k] = 1.0
                worst = max(
                    worst,
                    fro(triple.s((e @ psi.coeff).reshape(-1)) - (e.conj().T @ phi.coeff).reshape(-1)),
                )
        worst = max(
            worst,
            fro(triple.s.mat - triple.j.mat @ np.conj(psd_sqrt(triple.delta.mat))),
            fro(triple.j.mat - bwd.j.mat),
            fro(
                triple.s.mat @ np.conj(np.kron(np.eye(d), psd_sqrt(om_b_psi)))
                - bwd.j.mat @ np.conj(np.kron(psd_sqrt(om_a_phi), np.eye(d)))
            ),
        )
    verdict(acceptance_report, 10, "twisted products and modular triple (50 instances)", worst, 1e-9)
    assert worst <= 1e-9


def test_criterion_11_full_verify_run(acceptance_report):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "eprkit", "verify"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and elapsed < 60.0
    status = "PASS" if ok else "FAIL"
    acceptance_report(
        f"{status} 11 full verify run (seed 42, defaults): exit {proc.returncode}, {elapsed:.1f} s"
    )
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 60.0
    report = json.loads(proc.stdout)
    assert report["pass"] is True
