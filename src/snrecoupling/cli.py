"""Command-line interface.

Partitions are written as comma-separated rows ("3,1"); where several labels
are needed they are joined with "/" ("2,1/2,1/3").  The labels of one command
must all be partitions of one k, which they fix: only ``scan-recoupling`` and
``overlap-certificate``, which take no labels, take --k.  Every subcommand
takes --out FILE, which gets the bytes stdout would, each output ending in one
newline; the three that draw random states take --seed.  Reports are JSON
lines, except from spectrum-estimation, which takes --format json|csv (csv).

Exit codes: 0 when every gate declared by the invoked command passes, 1 when
a gate fails (or ``validate-state`` finds the state invalid), 2 on invalid
input (``ValidationError``, an unwritable --out, or a flag argparse rejects,
such as a negative ``--seed`` or a flag the subcommand does not take), 3 when
a size cap would be exceeded (``ResourceLimitError``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from itertools import product
from typing import Callable, Iterable, NamedTuple

from .combinatorics import check_labels, check_partition, enumerate_partitions
from .errors import ResourceLimitError, ValidationError
from .experiments import (
    ExperimentReport,
    cmd_converse_probe,
    cmd_dimension_ratio,
    cmd_overlap_bound_fuzz,
    cmd_spectrum_estimation,
    cmd_ssa_scan,
    cmd_overlap_certificate,
)
from .intertwiner import cg_isometries, kronecker_coefficient
from .quantumstates import (
    load_json,
    load_state,
    sample_hs_random,
    spectra_from_json,
    state_to_json,
)
from .recoupling import column_swap_check, column_swap_check_ag, recoupling_tensor
from .repsym import character
from .schurweyl import overlap_trace, tripartite_elements


def parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ValidationError(f"cannot parse {what} {text!r}: {exc}") from exc


def parse_seed(text: str) -> int:
    """argparse type of --seed: a non-negative integer, as numpy's generators need."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed {text!r} is not an integer") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {seed}")
    return seed


def parse_partition(text: str):
    return check_partition(parse_ints(text, "partition"))


def parse_labels(text: str, expected: int):
    pieces = [p for p in text.split("/") if p.strip()]
    if len(pieces) != expected:
        raise ValidationError(f"expected {expected} labels, got {len(pieces)} in {text!r}")
    return tuple(parse_partition(p) for p in pieces)


def _emit(lines: Iterable[str], out: str | None) -> None:
    """The one writer: ``lines`` go to ``out`` (stdout when absent or "-") as they
    come.  An unwritable file raises ValidationError; a failed command leaves none."""
    to_file = out and out != "-"
    try:
        with open(out, "w") if to_file else contextlib.nullcontext(sys.stdout) as stream:
            stream.writelines(lines)
    except OSError as exc:
        raise ValidationError(f"cannot write {out if to_file else 'stdout'}: {exc}") from exc


def _emit_report(report: ExperimentReport, args) -> int:
    csv = getattr(args, "format", "json") == "csv"  # only spectrum-estimation has --format
    _emit([report.to_csv() if csv else report.to_json_lines()], args.out)
    return 0 if report.passed else 1


def _cmd_char(args) -> int:
    value = character(parse_partition(args.lam), parse_partition(args.cycle_type))
    _emit([f"{value}\n"], args.out)
    return 0


def _cmd_kron(args) -> int:
    value = kronecker_coefficient(*map(parse_partition, (args.alpha, args.beta, args.lam)))
    _emit([f"{value}\n"], args.out)
    return 0


def _cmd_cg(args) -> int:
    alpha, beta, lam = map(parse_partition, (args.alpha, args.beta, args.lam))
    maps = cg_isometries(alpha, beta, lam)
    payload = {
        "alpha": list(alpha),
        "beta": list(beta),
        "lambda": list(lam),
        "count": len(maps),
        "maps": maps.tolist(),
    }
    _emit([json.dumps(payload, sort_keys=True) + "\n"], args.out)
    return 0


def _cmd_recoupling(args) -> int:
    labels = parse_labels(args.labels, 6)
    tensor = recoupling_tensor(*labels)
    payload = {
        "labels": [list(l) for l in tensor.labels],
        "block_shape": list(tensor.block_shape),
        "entries": tensor.entries.tolist(),
        "hs": tensor.hs,
    }
    _emit([json.dumps(payload, sort_keys=True) + "\n"], args.out)
    return 0


def _cmd_scan_recoupling(args) -> int:
    """One JSON line per six-tuple, written as soon as it is computed: the
    scan holds no line but the current one, and a refusal (exit 3) leaves
    the lines before it in the output."""
    records = ({
        "labels": [list(l) for l in labels],
        "hs": recoupling_tensor(*labels).hs,
        "swap_bl_residual": column_swap_check(*labels).residual,
        "swap_ag_residual": column_swap_check_ag(*labels).residual,
    } for labels in product(enumerate_partitions(args.k, args.max_rows), repeat=6))
    _emit((json.dumps(r, sort_keys=True) + "\n" for r in records), args.out)
    return 0


def _cmd_spectrum_estimation(args) -> int:
    return _emit_report(cmd_spectrum_estimation(load_state(args.rho), args.k_max, args.delta), args)


def _cmd_overlap(args) -> int:
    rho = load_state(args.rho)
    if len(rho.dims) != 3:
        raise ValidationError("overlap needs a tripartite state")
    labels = check_labels(*parse_labels(args.labels, 6))
    k = sum(labels[0])
    elements = tripartite_elements(*([l] for l in labels), rho.dims, k)
    traces = overlap_trace(elements, rho, k)
    payload = {
        "t_pq": [traces.t_pq.real, traces.t_pq.imag],
        "t_p": traces.t_p,
        "t_q": traces.t_q,
    }
    _emit([json.dumps(payload, sort_keys=True) + "\n"], args.out)
    return 0


def _cmd_overlap_certificate(args) -> int:
    return _emit_report(cmd_overlap_certificate(load_state(args.rho), args.k, args.delta), args)


def _cmd_fuzz(args) -> int:
    return _emit_report(cmd_overlap_bound_fuzz(args.n, args.seed), args)


def _cmd_dimension_ratio(args) -> int:
    ks = parse_ints(args.k_list, "k list")
    return _emit_report(cmd_dimension_ratio(load_state(args.rho), ks), args)


def _cmd_converse(args) -> int:
    spectra = spectra_from_json(load_json(args.spectra))
    ks = range(args.k_min, args.k_max + 1)
    return _emit_report(cmd_converse_probe(spectra, ks), args)


def _cmd_ssa_scan(args) -> int:
    return _emit_report(cmd_ssa_scan(args.n, args.seed), args)


def _cmd_validate_state(args) -> int:
    """Residuals of the matrix as written in the file, not of the one the state stores."""
    try:
        rho = load_state(args.state)
    except ValidationError as exc:
        _emit([json.dumps({"valid": False, "reason": str(exc)}) + "\n"], args.out)
        return 1
    _emit([json.dumps({"valid": True, **rho.residuals}, sort_keys=True) + "\n"], args.out)
    return 0


def _cmd_sample_state(args) -> int:
    rho = sample_hs_random(parse_ints(args.dims, "dimensions"), args.seed)
    _emit([json.dumps(state_to_json(rho)) + "\n"], args.out)
    return 0


class Command(NamedTuple):
    help: str
    handler: Callable[[argparse.Namespace], int]
    arguments: tuple = ()


def _arg(*flags, **kwargs):
    return flags, kwargs


_TRIPLE = (
    _arg("--alpha", required=True),
    _arg("--beta", required=True),
    _arg("--lambda", dest="lam", required=True),
)
_SIX_LABELS = _arg("--labels", required=True,
                   help="six partitions alpha/beta/gamma/mu/nu/lambda")
_SEED = _arg("--seed", type=parse_seed, default=0,
             help="deterministic seed (non-negative integer)")

# every subcommand: its help text, its handler and its own arguments
# (--out is added to each)
COMMANDS = {
    "char": Command("integer character value", _cmd_char, (
        _arg("--lambda", dest="lam", required=True),
        _arg("--type", dest="cycle_type", required=True),
    )),
    "kron": Command("Kronecker coefficient", _cmd_kron, _TRIPLE),
    "cg": Command("intertwiner basis matrices", _cmd_cg, _TRIPLE),
    "recoupling": Command("one recoupling block", _cmd_recoupling, (_SIX_LABELS,)),
    "scan-recoupling": Command("norms and swap residuals per tuple", _cmd_scan_recoupling, (
        _arg("--k", type=int, required=True),
        _arg("--max-rows", type=int, default=None),
    )),
    "spectrum-estimation": Command("concentration table", _cmd_spectrum_estimation, (
        _arg("--rho", required=True, help="state file (single system)"),
        _arg("--k-max", type=int, default=30),
        _arg("--delta", type=float, default=0.3),
        _arg("--format", choices=("json", "csv"), default="csv"),
    )),
    "overlap": Command("projector overlap traces", _cmd_overlap, (
        _arg("--rho", required=True, help="tripartite state file"),
        _SIX_LABELS,
    )),
    "overlap-certificate": Command("projector-overlap chain certificate", _cmd_overlap_certificate, (
        _arg("--rho", required=True),
        _arg("--k", type=int, required=True),
        _arg("--delta", type=float, required=True),
    )),
    "overlap-bound-fuzz": Command("projector inequality fuzz", _cmd_fuzz, (
        _arg("--n", type=int, default=10000),
        _SEED,
    )),
    "dimension-ratio": Command("dimension-ratio route to the entropy gap", _cmd_dimension_ratio, (
        _arg("--rho", required=True),
        _arg("--k-list", required=True, help="comma-separated k values"),
    )),
    "converse-probe": Command("decay probe for target spectra", _cmd_converse, (
        _arg("--spectra", required=True, help="JSON file with r_a..r_abc"),
        _arg("--k-min", type=int, default=2),
        _arg("--k-max", type=int, default=4),
    )),
    "ssa-scan": Command("entropy-inequality scan", _cmd_ssa_scan, (
        _arg("--n", type=int, default=1000),
        _SEED,
    )),
    "validate-state": Command("check a state file and echo residuals", _cmd_validate_state, (
        _arg("state", help="state file"),
    )),
    "sample-state": Command("write an HS-random state file", _cmd_sample_state, (
        _arg("--dims", required=True, help="comma-separated dimensions"),
        _SEED,
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser.  For a known ``command`` only that subcommand's parser is
    built; otherwise (``--help``, a typo) every subcommand is listed."""
    parser = argparse.ArgumentParser(prog="snrecoupling", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in COMMANDS else COMMANDS:
        spec = COMMANDS[name]
        p = sub.add_parser(name, help=spec.help)
        for flags, kwargs in spec.arguments:
            p.add_argument(*flags, **kwargs)
        p.add_argument("--out", default=None, help="output file ('-' for stdout)")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return COMMANDS[args.command].handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
