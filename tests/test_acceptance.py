"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one PASS/FAIL line (run with -s to see them on success).
Stated runtime budgets are printed for reference; wall-clock is hardware
dependent and is not asserted.
"""

import math
import time
from fractions import Fraction
from itertools import product

import numpy as np

from snrecoupling.combinatorics import (
    enumerate_partitions,
    sk_dimension,
    weyl_dimension,
)
from snrecoupling.experiments import (
    cmd_dimension_ratio,
    cmd_overlap_bound_fuzz,
    cmd_spectrum_estimation,
    cmd_ssa_scan,
    cmd_overlap_certificate,
)
from snrecoupling.intertwiner import (
    bend_and_compare,
    kronecker_coefficient,
    trivial_coupling,
)
from snrecoupling.quantumstates import (
    DensityMatrix,
    ghz_state,
    maximally_mixed,
)
from snrecoupling.recoupling import (
    column_swap_check,
    column_swap_check_ag,
    full_recoupling_unitary,
    recoupling_tensor,
)
from snrecoupling.schurweyl import hs_norm_via_schurweyl


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number} {status}: {detail}")
    return passed


def test_criterion_1_dimension_identities():
    start = time.time()
    for k in range(1, 9):
        total = sum(sk_dimension(lam) ** 2 for lam in enumerate_partitions(k))
        assert total == math.factorial(k)
    for d in (1, 2, 3):
        for k in range(1, 7):
            total = sum(
                sk_dimension(lam) * weyl_dimension(lam, d)
                for lam in enumerate_partitions(k)
            )
            assert total == d**k
    elapsed = time.time() - start
    assert report(1, True, f"dimension identities exact (k<=8, d<=3); {elapsed:.2f}s (budget 1s)")


def test_criterion_2_unitarity_sum_rule():
    start = time.time()
    worst_sum = 0.0
    worst_unitary = 0.0
    for k in (2, 3, 4, 5):
        parts_all = enumerate_partitions(k)
        parts3 = [p for p in parts_all if len(p) <= 3]
        for alpha, beta, gamma, lam in product(parts3, repeat=4):
            total = sum(
                recoupling_tensor(alpha, beta, gamma, mu, nu, lam).hs ** 2
                for mu in parts_all
                for nu in parts_all
            )
            expected = sum(
                kronecker_coefficient(alpha, beta, mu)
                * kronecker_coefficient(mu, gamma, lam)
                for mu in parts_all
            )
            worst_sum = max(worst_sum, abs(total - expected))
            u = full_recoupling_unitary(alpha, beta, gamma, lam).matrix
            n = u.shape[0]
            if n:
                worst_unitary = max(
                    worst_unitary, float(np.abs(u.T @ u - np.eye(n)).max())
                )
    elapsed = time.time() - start
    passed = worst_sum <= 1e-8 and worst_unitary <= 1e-8
    assert report(
        2,
        passed,
        f"sum-rule defect {worst_sum:.2e}, unitarity defect {worst_unitary:.2e} "
        f"(tol 1e-8); {elapsed:.0f}s (budget 10min)",
    )


def test_criterion_3_column_swaps():
    start = time.time()
    worst = 0.0
    for k in (1, 2, 3, 4):
        for labels in product(enumerate_partitions(k), repeat=6):
            for check in (column_swap_check, column_swap_check_ag):
                r = check(*labels)
                worst = max(worst, r.residual)
    elapsed = time.time() - start
    passed = worst <= 1e-8
    assert report(
        3, passed,
        f"both column-swap relations, exhaustive k<=4: worst residual {worst:.2e} "
        f"(tol 1e-8); {elapsed:.0f}s (budget 5min)",
    )


def test_criterion_4_cross_route_oracle():
    start = time.time()
    worst = 0.0
    sandwich_ok = True
    for k in (1, 2, 3):
        parts = enumerate_partitions(k)
        two_row = [p for p in parts if len(p) <= 2]
        for alpha, beta, gamma in product(two_row, repeat=3):
            for mu, nu, lam in product(parts, repeat=3):
                sw = hs_norm_via_schurweyl(alpha, beta, gamma, mu, nu, lam, (2, 2, 2), k)
                abstract = recoupling_tensor(alpha, beta, gamma, mu, nu, lam).hs
                worst = max(worst, abs(sw.hs - abstract))
                if sw.op > abstract + 1e-8:
                    sandwich_ok = False
    elapsed = time.time() - start
    passed = worst <= 1e-8 and sandwich_ok
    assert report(
        4, passed,
        f"independent tensor-power route: worst |hs diff| {worst:.2e} (tol 1e-8), "
        f"op_norm <= hs everywhere: {sandwich_ok}; {elapsed:.0f}s (budget 10min)",
    )


def two_row_trace(k, m, p, q):
    """tr(P_lam rho^(x k)) for lam = (k - m, m) and spec rho = (p, q), exactly."""
    dim = math.comb(k, m) - (math.comb(k, m - 1) if m else 0)
    schur = (p * q) ** m * sum(p**i * q ** (k - 2 * m - i) for i in range(k - 2 * m + 1))
    return dim * schur


def keyl_werner_bound(lam, r):
    """(k + 1)^(d(d-1)/2) exp(-k D(lam/k || r)), with D the relative entropy."""
    k, d = sum(lam), len(r)
    rel_entropy = sum(l / k * math.log(l / (k * ri)) for l, ri in zip(lam, r) if l)
    return (k + 1) ** (d * (d - 1) // 2) * math.exp(-k * rel_entropy)


def test_criterion_5_spectrum_estimation():
    # The stated "tail <= 1e-3 at k = 30" cannot hold.  With the closed form
    # tr(P_lam rho^(x k)) = dim[lam] s_lam(p, q) for lam = (k - m, m), where
    # dim[lam] = C(k, m) - C(k, m - 1) and s_lam(p, q) = (pq)^m sum_i p^i q^(k-2m-i),
    # the exact tail outside the closed l1-ball of radius 0.3 around
    # (0.9, 0.1) at k = 30 is 5.528223059922743e-3.  It first drops to 1e-3
    # or below at k = 44 (6.88e-4), past the driver's k_max <= 30.  So the
    # test pins every tail to its exact value, checks the Keyl-Werner bound
    # that does hold, and checks that the unmet 1e-3 figure is reported unmet.
    start = time.time()
    rho = DensityMatrix(dims=(2,), matrix=np.diag([0.9, 0.1]))
    rep = cmd_spectrum_estimation(rho, k_max=30, delta=0.3)
    elapsed = time.time() - start
    s = rep.summary
    p, q, delta = Fraction(9, 10), Fraction(1, 10), Fraction(3, 10)
    exact = [
        float(sum(
            two_row_trace(k, m, p, q)
            for m in range(k // 2 + 1)
            if abs(Fraction(k - m, k) - p) + abs(Fraction(m, k) - q) > delta
        ))
        for k in range(1, 31)
    ]
    # absolute: the alternating cycle-type sum cancels to ~1e-10 absolute,
    # which is over 1% of the smallest traces at k = 30
    tail_error = max(abs(got - want) for got, want in zip(s["tail_mass"], exact))
    kw_ratio = max(item["trace"] / keyl_werner_bound(item["lam"], (0.9, 0.1))
                   for item in rep.items)
    gate_rate = s["gate_rate"]
    passed = (
        len(s["tail_mass"]) == 30 and tail_error <= 1e-9 and kw_ratio <= 1.0
        and s["gate_tail"] is False and rep.passed is False and gate_rate is True
    )
    report(
        5, passed,
        f"tail mass outside l1-ball(0.3) at k=30: {s['tail_at_k_max']:.6e}, exact "
        f"{exact[-1]:.6e}, max |error| over k=1..30 {tail_error:.1e} (<= 1e-9); "
        f"traces / Keyl-Werner bound <= {kw_ratio:.2f}; stated 1e-3 bound reported "
        f"unmet: gate_tail {s['gate_tail']}, passed {rep.passed}; rate diagnostic "
        f"concave: {gate_rate}; {elapsed:.1f}s (budget 5s)",
    )
    assert len(s["tail_mass"]) == 30
    assert tail_error <= 1e-9, f"tail masses {s['tail_mass']} differ from exact {exact}"
    assert abs(s["tail_at_k_max"] - exact[-1]) <= 1e-9
    assert kw_ratio <= 1.0, f"a trace exceeds the Keyl-Werner bound ({kw_ratio})"
    assert s["gate_tail"] is False, "the exact tail 5.528e-3 does not meet 1e-3"
    assert rep.passed is False
    assert gate_rate is True, "rate diagnostic must have non-increasing increments"


def test_criterion_6_certificate_chain():
    start = time.time()
    rep = cmd_overlap_certificate(maximally_mixed((2, 2, 2)), k=4, delta=1.0)
    elapsed = time.time() - start
    s = rep.summary
    first = s["sum_hs"] >= s["t_pq_abs"] - 1e-9
    second = s["t_pq_abs"] >= s["rhs_lower_bound"] - 1e-9
    direct = s["sum_hs"] >= s["t_p"] - math.sqrt(max(0.0, 1.0 - s["t_q"])) - 1e-9
    passed = first and second and direct
    assert report(
        6, passed,
        f"sum_hs {s['sum_hs']:.3f} >= |t_PQ| {s['t_pq_abs']:.5f} >= "
        f"t_P - sqrt(1 - t_Q) = {s['rhs_lower_bound']:.5f}; {elapsed:.0f}s (budget 30min)",
    )


def test_criterion_7_entropy_gates():
    start = time.time()
    rep = cmd_ssa_scan(1000, seed=2024)
    elapsed = time.time() - start
    min_ssa = rep.summary["min_ssa_gap"]
    min_weak = rep.summary["min_weak_mono_gap"]
    ghz_gap = rep.summary["ghz_ssa_gap"]
    passed = (
        min_ssa >= -1e-9 and min_weak >= -1e-9 and abs(ghz_gap - 1.0) <= 1e-9
    )
    assert report(
        7, passed,
        f"1000 HS-random states: min ssa gap {min_ssa:.3e}, min weak-mono gap "
        f"{min_weak:.3e}, GHZ gap {ghz_gap:.12f}; {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_8_dimension_ratio_limit():
    start = time.time()
    rep = cmd_dimension_ratio(ghz_state(), [2000])
    elapsed = time.time() - start
    item = rep.items[0]
    deviation = abs(item["ratio"] - 1.0)
    passed = deviation <= 0.05
    assert report(
        8, passed,
        f"GHZ at k=2000: (1/k) log2 dim ratio = {item['ratio']:.4f}, "
        f"|ratio - 1| = {deviation:.4f} (tol 0.05); {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_9_graphical_identities():
    start = time.time()
    worst_tele = 0.0
    for k in range(1, 6):
        for lam in enumerate_partitions(k):
            d = sk_dimension(lam)
            phi = trivial_coupling(lam).reshape(d, d)
            composed = np.einsum("ef,fg->ge", phi, phi)
            worst_tele = max(worst_tele, float(np.abs(composed - np.eye(d) / d).max()))
    worst_unitary = 0.0
    checked = 0
    for k in (1, 2, 3):
        for alpha, beta, lam in product(enumerate_partitions(k), repeat=3):
            if kronecker_coefficient(alpha, beta, lam) < 1:
                continue
            u = bend_and_compare(alpha, beta, lam)
            g = u.shape[0]
            worst_unitary = max(
                worst_unitary, float(np.abs(u @ u.conj().T - np.eye(g)).max())
            )
            checked += 1
    elapsed = time.time() - start
    passed = worst_tele <= 1e-10 and worst_unitary <= 1e-8
    assert report(
        9, passed,
        f"teleportation residual {worst_tele:.2e} (tol 1e-10, k<=5); bent-basis "
        f"Gram/unitary checks on {checked} triples, worst {worst_unitary:.2e} "
        f"(tol 1e-8); {elapsed:.0f}s (budget 1min)",
    )


def test_criterion_10_overlap_bound_fuzz():
    start = time.time()
    rep = cmd_overlap_bound_fuzz(10_000, seed=77)
    elapsed = time.time() - start
    passed = rep.summary["violations"] == 0 and rep.summary["min_slack"] >= -1e-9
    assert report(
        10, passed,
        f"10^4 random (P, Q, sigma) triples: {rep.summary['violations']} violations, "
        f"min slack {rep.summary['min_slack']:.2e}; {elapsed:.0f}s (budget 30s)",
    )
