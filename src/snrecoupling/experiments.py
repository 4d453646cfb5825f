"""Desk-scale experiment drivers with machine-readable reports.

Every driver is deterministic given (parameters, seed) and returns an
ExperimentReport: per-item records, summary statistics and a pass flag for
the gates it declares.  Asymptotic statements are certified only through
exact finite-size identities and inequalities; unspecified polynomial
factors are reported as diagnostics, never asserted.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .combinatorics import (
    K_MAX,
    Partition,
    _sk_dimension,
    enumerate_partitions,
    log_sk_dimension,
    round_spectrum,
)
from .errors import ValidationError, check_cap, check_int
from .quantumstates import (
    DensityMatrix,
    SpectraTuple,
    ghz_state,
    group_dims,
    sample_hs_random,
    spectra_tuple,
    ssa_gap,
    weak_mono_gap,
)
from .recoupling import recoupling_tensor
from .schurweyl import (
    _recoupling_character_sums,
    overlap_trace,
    projected_trace,
    tripartite_elements,
)

SCHEMA_VERSION = 1
GATE_SLACK = 1e-9
TAIL_BOUND = 1e-3  # the spectrum-estimation tail figure, reported met or unmet
LABELS = ("alpha", "beta", "gamma", "mu", "nu", "lam")  # the report names of GROUPS


@dataclass
class ExperimentReport:
    experiment: str
    parameters: dict
    items: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    passed: bool = True

    def to_json_lines(self) -> str:
        """A header record, one record per item and a summary record, one JSON line each."""
        header = {"record": "header", "experiment": self.experiment,
                  "schema_version": SCHEMA_VERSION, "parameters": self.parameters}
        summary = {"record": "summary", "passed": self.passed, **self.summary}
        records = [header, *({"record": "item", **item} for item in self.items), summary]
        return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)

    def to_csv(self) -> str:
        """The items only, one row each under a header: "" for no items.  The
        parameters and summary are in the JSON lines, the pass flag in the exit code."""
        if not self.items:
            return ""
        buf = io.StringIO()
        fields = list(dict.fromkeys(key for item in self.items for key in item))
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        writer.writerows(self.items)
        return buf.getvalue()


def _l1_distance(lam: Partition, r: np.ndarray) -> float:
    """l1 distance of r from lam / k, both zero-padded; lam is canonical, not re-checked."""
    diff = np.zeros(max(len(lam), r.size))
    diff[: len(lam)] = np.asarray(lam, dtype=float) / sum(lam)
    diff[: r.size] -= r
    return float(np.abs(diff).sum())


def _check_delta(delta) -> None:
    """The one check of a ball radius: a finite non-negative real number, not a bool."""
    if isinstance(delta, bool) or not (
            isinstance(delta, numbers.Real) and math.isfinite(delta) and delta >= 0):
        raise ValidationError(f"delta must be finite and non-negative, got {delta!r}")


def _in_ball(dist: float, delta: float) -> bool:
    """Membership of the closed delta-ball, for an l1 distance from _l1_distance.

    A diagram exactly on the sphere can come out a rounding error above delta
    (|0.75 - 0.9| + |0.25 - 0.1| = 0.30000000000000004); GATE_SLACK keeps it in.
    """
    return dist <= delta + GATE_SLACK


def _chain_second(t_pq_abs: float, t_p: float, t_q: float) -> tuple[bool, float]:
    """The second chain gate |t_pq| >= t_p - sqrt(1 - t_q), and its right side.

    A 1 - t_q within 8 ulp of 0 counts as 0: sqrt would turn a rounding
    error of 7e-16 in t_q into 2.6e-8, far above GATE_SLACK.
    """
    gap = 1.0 - t_q
    rhs = t_p - (math.sqrt(gap) if gap > 8 * math.ulp(1.0) else 0.0)
    return t_pq_abs >= rhs - GATE_SLACK, rhs


def _ball(k: int, r: np.ndarray, delta: float, max_rows: int) -> list[Partition]:
    return [
        lam
        for lam in enumerate_partitions(k, max_rows)
        if _in_ball(_l1_distance(lam, r), delta)
    ]


def _labels_record(labels: Sequence[Partition]) -> dict[str, list[int]]:
    """The report fields of six labels, named by LABELS."""
    return {name: list(lam) for name, lam in zip(LABELS, labels)}


def _round_marginal(r, k: int) -> Partition:
    """Diagram of k boxes nearest to a spectrum, after clipping and renormalizing."""
    v = np.clip(np.asarray(r, dtype=float), 0.0, None)
    if not (np.isfinite(v).all() and v.sum() > 0):
        raise ValidationError(f"spectrum {v.tolist()} is not a finite non-zero vector")
    return round_spectrum(v / v.sum(), k)


# ---------------------------------------------------------------------------

def cmd_overlap_certificate(rho: DensityMatrix, k: int, delta: float) -> ExperimentReport:
    """Finite-size certificate for the projector-overlap chain.

    Forms the delta-ball projector sums P~ and Q~ around the marginal
    spectra of rho in the group algebra of S_k x S_k x S_k, computes their
    overlap traces with rho^(x k), sums the recoupling norms over the ball
    tuples and asserts, on computed numbers,

        sum_ball hs  >=  |tr(P~ Q~ rho^k)|  >=  tr(P~ rho^k) - sqrt(1 - tr(Q~ rho^k)).

    Each norm comes from characters alone, in the same group algebra: one
    product, ``schurweyl._recoupling_character_sums``, gives the exact
    integer S of every ball tuple and hs = sqrt(dim mu dim nu S / k!^3), so
    no intertwiner or Kronecker coefficient is computed.  A block is zero
    exactly when S == 0, with no threshold (``recoupling.HS_ZERO`` plays no
    part); the items are the other tuples, in the order of the balls'
    product, and only they count in ``nonzero_tuple_count`` and ``sum_hs``.
    """
    k = check_int(k, "k")
    _check_delta(delta)
    if len(rho.dims) != 3:
        raise ValidationError("certificate needs a tripartite state")
    balls = [_ball(k, r, delta, n) for r, n in zip(spectra_tuple(rho), group_dims(rho.dims))]
    elements = tripartite_elements(*balls, rho.dims, k)
    t_pq, t_p, t_q = overlap_trace(elements, rho, k)

    items = []
    cube = math.factorial(k) ** 3
    sums = _recoupling_character_sums(balls, k)
    nonzero = np.nonzero(sums)  # in C order, the order of the product of the balls
    for index, s in zip(zip(*nonzero), sums[nonzero].tolist()):
        labels = [ball[i] for ball, i in zip(balls, index)]
        hs = math.sqrt(_sk_dimension(labels[3]) * _sk_dimension(labels[4]) * s / cube)
        items.append({**_labels_record(labels), "hs": hs})
    sum_hs = sum(item["hs"] for item in items)

    chain_first = sum_hs >= abs(t_pq) - GATE_SLACK
    chain_second, rhs = _chain_second(abs(t_pq), t_p, t_q)
    return ExperimentReport(
        experiment="overlap_certificate",
        parameters={"k": k, "delta": delta, "dims": list(rho.dims)},
        items=items,
        summary={
            "t_p": float(t_p),
            "t_q": float(t_q),
            "t_pq_abs": float(abs(t_pq)),
            "sum_hs": float(sum_hs),
            "rhs_lower_bound": float(rhs),
            "ball_tuple_count": math.prod(map(len, balls)),
            "nonzero_tuple_count": len(items),
            "ball_sizes": dict(zip(LABELS, map(len, balls))),
            "chain_first_holds": chain_first,
            "chain_second_holds": chain_second,
        },
        passed=chain_first and chain_second,
    )


def cmd_overlap_bound_fuzz(n: int, seed: int) -> ExperimentReport:
    """Fuzz |tr(PQ sigma)| >= tr(P sigma) - sqrt(tr((1-Q) sigma)).

    Random-subspace projectors P, Q and HS-random sigma on dimensions up
    to 16.
    """
    n, seed = check_int(n, "n"), check_int(seed, "seed", 0)

    def trial(i: int) -> dict:
        rng = np.random.default_rng((seed, i))
        d = int(rng.integers(2, 17))
        sigma = sample_hs_random(d, rng).matrix

        def projector():
            rank = int(rng.integers(0, d + 1))
            if rank == 0:
                return np.zeros((d, d), dtype=complex)
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            q_mat, _ = np.linalg.qr(g)
            v = q_mat[:, :rank]
            return v @ v.conj().T

        p, q = projector(), projector()
        lhs = abs(complex(np.trace(p @ q @ sigma)))
        rhs = float(np.trace(p @ sigma).real) - math.sqrt(
            max(0.0, float(np.trace((np.eye(d) - q) @ sigma).real))
        )
        return {"trial": i, "dim": d, "lhs": float(lhs), "rhs": float(rhs),
                "slack": float(lhs - rhs)}

    items = [trial(i) for i in range(n)]
    min_slack = min(item["slack"] for item in items)
    violations = sum(1 for item in items if item["slack"] < -GATE_SLACK)
    return ExperimentReport(
        experiment="overlap_bound_fuzz",
        parameters={"n": n, "seed": seed},
        items=items,
        summary={"min_slack": float(min_slack), "violations": violations},
        passed=violations == 0,
    )


def cmd_spectrum_estimation(rho: DensityMatrix, k_max: int, delta: float = 0.3) -> ExperimentReport:
    """Concentration of tr(P_lam rho^(x k)) around the spectrum of rho.

    The delta-ball is closed: a diagram whose l1 distance from the spectrum
    equals delta counts as inside.  The tail mass at k is the summed trace of
    the diagrams outside it.

    Gates: (a) reports whether the tail mass at k_max is at most
    ``TAIL_BOUND``; it promises no such bound, and for a given state the
    tail can exceed it at every supported k (diag(0.9, 0.1) at delta 0.3 has
    tail 5.528e-3 at k = 30);
    (b) along every diagram sequence obtained by growing the first row on
    fixed lower rows, the rate diagnostic log(trace) + k * dist^2 / 2 has
    non-increasing increments over the last 10 k values.
    A k_max above ``combinatorics.K_MAX`` raises ResourceLimitError before any trace.
    """
    if len(rho.dims) != 1:
        raise ValidationError("spectrum estimation needs a single-system state")
    _check_delta(delta)
    k_max, d = check_int(k_max, "k_max"), rho.dims[0]
    if d > 4:
        raise ValidationError("supported range is d <= 4")
    check_cap("k_max of the S_k whose conjugacy classes a character sum runs over", k_max, K_MAX)
    r = rho.spectrum()

    items, tails = [], []
    for k in range(1, k_max + 1):
        rows = [(lam, projected_trace(lam, rho), _l1_distance(lam, r))
                for lam in enumerate_partitions(k, d)]
        items += [{"k": k, "lam": list(lam), "trace": float(tr), "l1_dist": float(dist),
                   "gaussian_bound": float(math.exp(-k * dist**2 / 2))} for lam, tr, dist in rows]
        tails.append(sum(tr for _, tr, dist in rows if not _in_ball(dist, delta)))
    gate_tail = tails[-1] <= TAIL_BOUND

    # a direction fixes the lower rows lam[1:] and grows the first row; its group
    # holds the rate diagnostic of its window items with positive trace, in k order
    groups: dict[tuple[int, ...], list[float]] = {}
    for item in items:
        if item["k"] > k_max - 10 and item["trace"] > 0:
            groups.setdefault(tuple(item["lam"][1:]), []).append(
                math.log(item["trace"]) + item["k"] * item["l1_dist"] ** 2 / 2)
    directions = []
    for lam_top in enumerate_partitions(k_max, d):
        seq = groups.get(lam_top[1:], [])
        incs = [b - a for a, b in zip(seq, seq[1:])]
        mono = all(b <= a + GATE_SLACK for a, b in zip(incs, incs[1:]))
        directions.append({"direction": list(lam_top), "points": len(seq), "monotone": mono})
    gate_rate = all(direction["monotone"] for direction in directions)

    return ExperimentReport(
        experiment="spectrum_estimation",
        parameters={"k_max": k_max, "delta": delta, "dims": list(rho.dims),
                    "tail_bound": TAIL_BOUND},
        items=items,
        summary={
            "tail_mass": [float(t) for t in tails],
            "tail_at_k_max": float(tails[-1]),
            "gate_tail": gate_tail,
            "rate_directions": directions,
            "gate_rate": gate_rate,
        },
        passed=gate_tail and gate_rate,
    )


def cmd_dimension_ratio(rho: DensityMatrix, k_values: Sequence[int]) -> ExperimentReport:
    """Dimension-ratio route to the strong-subadditivity gap.

    For each k the four relevant spectra are rounded to diagrams and
    g(k) = (1/k) log2(dim[mu] dim[nu] / (dim[beta] dim[lam])) is compared
    with the entropy gap H(AB) + H(BC) - H(B) - H(ABC); the deviation is
    certified against C log2(k)/k with C = 4 (ab + bc + b + abc).
    """
    if len(rho.dims) != 3:
        raise ValidationError("dimension ratio needs a tripartite state")
    k_values = ([check_int(k, "k values", 2) for k in k_values]
                if isinstance(k_values, Iterable) else [])
    if not k_values:
        raise ValidationError("dimension ratio needs a non-empty list of k values")
    _, b, _, ab, bc, abc = group_dims(rho.dims)
    spectra = spectra_tuple(rho)
    gap = ssa_gap(spectra)
    big_c = 4.0 * (ab + bc + b + abc)

    items = []
    for k in k_values:
        mu, nu, beta, lam = (
            _round_marginal(r, k) for r in (spectra.r_ab, spectra.r_bc, spectra.r_b, spectra.r_abc)
        )
        g_k = (log_sk_dimension(mu) + log_sk_dimension(nu) - log_sk_dimension(beta)
               - log_sk_dimension(lam)) / (k * math.log(2.0))
        err = abs(g_k - gap)
        bound = big_c * math.log2(k) / k
        items.append(
            {
                "k": k,
                "mu": list(mu), "nu": list(nu), "beta": list(beta), "lam": list(lam),
                "ratio": float(g_k),
                "gap": float(gap),
                "abs_error": float(err),
                "error_bound": float(bound),
            }
        )
    ok = not any(item["abs_error"] > item["error_bound"] for item in items)
    return ExperimentReport(
        experiment="dimension_ratio",
        parameters={"k_values": list(k_values), "dims": list(rho.dims)},
        items=items,
        summary={"ssa_gap": float(gap), "bound_constant": float(big_c)},
        passed=ok,
    )


def cmd_converse_probe(spectra: SpectraTuple, k_values: Sequence[int]) -> ExperimentReport:
    """Decay probe for spectra tuples, compatible or not with a joint state.

    Rounds the six target spectra to diagrams at each k and reports the
    recoupling norm of the rounded tuple, 0.0 for a zero block (see
    ``recoupling.HS_ZERO``).  The local dimensions (a, b, c) are the lengths
    of r_a, r_b and r_c; r_ab, r_bc and r_abc must have lengths ab, bc, abc.
    Every k >= 1 is taken, checked as it is reached, so ``k_values`` may be
    a long range; the caps of ``recoupling_tensor`` decide which blocks can
    be computed, and the first k whose rounded tuple exceeds one raises
    ResourceLimitError (every k above ``combinatorics.K_MAX``, and at k = 8
    some tuples already exceed ``intertwiner.DEFAULT_PRODUCT_CAP``).
    The decay sequence is a trend diagnostic, not a proof.
    """
    lengths = tuple(map(np.size, spectra))
    dims = lengths[:3]
    if lengths != group_dims(dims):
        raise ValidationError(f"r_ab, r_bc, r_abc have lengths {lengths[3:]}, not ab, bc, abc "
                              f"for the lengths (a, b, c) = {dims} of r_a, r_b, r_c")
    items = []
    for k in k_values if isinstance(k_values, Iterable) else ():
        k = check_int(k, "k values")
        labels = [_round_marginal(r, k) for r in spectra]
        items.append({"k": k, **_labels_record(labels), "hs": recoupling_tensor(*labels).hs})
    if not items:
        raise ValidationError("the converse probe needs a non-empty list of k values")

    return ExperimentReport(
        experiment="converse_probe",
        parameters={"k_values": [item["k"] for item in items], "dims": list(dims),
                    "spectra": spectra.as_dict()},
        items=items,
        summary={"hs_sequence": [item["hs"] for item in items]},
        passed=True,
    )


def cmd_ssa_scan(n: int, seed: int) -> ExperimentReport:
    """Entropy-inequality scan over HS-random tripartite states plus GHZ."""
    n, seed = check_int(n, "n"), check_int(seed, "seed", 0)

    def gaps(trial, rho: DensityMatrix) -> dict:
        spectra = spectra_tuple(rho)
        return {
            "trial": trial,
            "ssa_gap": float(ssa_gap(spectra)),
            "weak_mono_gap": float(weak_mono_gap(spectra)),
        }

    items = [
        gaps(i, sample_hs_random((2, 2, 2), np.random.default_rng((seed, i))))
        for i in range(n)
    ]
    ghz_item = gaps("ghz_probe", ghz_state())
    items.append(ghz_item)
    min_ssa = min(item["ssa_gap"] for item in items)
    min_weak = min(item["weak_mono_gap"] for item in items)
    passed = (
        min_ssa >= -GATE_SLACK
        and min_weak >= -GATE_SLACK
        and abs(ghz_item["ssa_gap"] - 1.0) <= GATE_SLACK
    )
    return ExperimentReport(
        experiment="ssa_scan",
        parameters={"n": n, "seed": seed},
        items=items,
        summary={
            "min_ssa_gap": float(min_ssa),
            "min_weak_mono_gap": float(min_weak),
            "ghz_ssa_gap": ghz_item["ssa_gap"],
        },
        passed=passed,
    )
