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

from .combinatorics import check_labels, enumerate_partitions
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
from .schurweyl import _check_algebra_size, _tripartite_elements, overlap_trace


def parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
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


def parse_labels(text: str):
    """The six labels alpha/beta/gamma/mu/nu/lambda of --labels."""
    pieces = [p for p in text.split("/") if p.strip()]
    if len(pieces) != 6:
        raise ValidationError(f"expected 6 labels, got {len(pieces)} in {text!r}")
    return tuple(parse_ints(p, "partition") for p in pieces)


def _emit(lines: Iterable[str], out: str | None) -> None:
    """The one writer, called by ``main``: ``lines`` go to ``out`` (stdout when absent or
    "-") as they come.  An unwritable file raises ValidationError; a failed command leaves none."""
    to_file = out and out != "-"
    try:
        with open(out, "w") if to_file else contextlib.nullcontext(sys.stdout) as stream:
            stream.writelines(lines)
    except OSError as exc:
        raise ValidationError(f"cannot write {out if to_file else 'stdout'}: {exc}") from exc


def _report(report: ExperimentReport, csv: bool = False) -> tuple:
    """A report's JSON lines (or CSV), and exit code 0 when it passed, else 1."""
    return [report.to_csv() if csv else report.to_json_lines()], 0 if report.passed else 1


def _cmd_char(args) -> tuple:
    value = character(parse_ints(args.lam, "partition"), parse_ints(args.cycle_type, "partition"))
    return [f"{value}\n"], 0


def _cmd_kron(args) -> tuple:
    triple = (parse_ints(p, "partition") for p in (args.alpha, args.beta, args.lam))
    return [f"{kronecker_coefficient(*triple)}\n"], 0


def _cmd_cg(args) -> tuple:
    alpha, beta, lam = (parse_ints(p, "partition") for p in (args.alpha, args.beta, args.lam))
    maps = cg_isometries(alpha, beta, lam)
    payload = {"alpha": list(alpha), "beta": list(beta), "lambda": list(lam),
               "count": len(maps), "maps": maps.tolist()}
    return [json.dumps(payload, sort_keys=True) + "\n"], 0


def _cmd_recoupling(args) -> tuple:
    tensor = recoupling_tensor(*parse_labels(args.labels))
    payload = {"labels": [list(l) for l in tensor.labels], "block_shape": list(tensor.block_shape),
               "entries": tensor.entries.tolist(), "hs": tensor.hs}
    return [json.dumps(payload, sort_keys=True) + "\n"], 0


def _cmd_scan_recoupling(args) -> tuple:
    """One JSON line per six-tuple, written as soon as it is computed: the
    scan holds no line but the current one, and a refusal (exit 3) leaves
    the lines before it in the output."""
    records = ({
        "labels": [list(l) for l in labels],
        "hs": recoupling_tensor(*labels).hs,
        "swap_bl_residual": column_swap_check(*labels).residual,
        "swap_ag_residual": column_swap_check_ag(*labels).residual,
    } for labels in product(enumerate_partitions(args.k, args.max_rows), repeat=6))
    return (json.dumps(r, sort_keys=True) + "\n" for r in records), 0


def _cmd_spectrum_estimation(args) -> tuple:
    report = cmd_spectrum_estimation(load_state(args.rho), args.k_max, args.delta)
    return _report(report, args.format == "csv")


def _cmd_overlap(args) -> tuple:
    rho = load_state(args.rho)
    if len(rho.dims) != 3:
        raise ValidationError("overlap needs a tripartite state")
    labels = check_labels(*parse_labels(args.labels))
    k = _check_algebra_size(rho.dims, sum(labels[0]))
    elements = _tripartite_elements([[l] for l in labels], k)
    traces = overlap_trace(elements, rho, k)
    payload = {"t_pq": [traces.t_pq.real, traces.t_pq.imag], "t_p": traces.t_p, "t_q": traces.t_q}
    return [json.dumps(payload, sort_keys=True) + "\n"], 0


def _cmd_overlap_certificate(args) -> tuple:
    return _report(cmd_overlap_certificate(load_state(args.rho), args.k, args.delta))


def _cmd_fuzz(args) -> tuple:
    return _report(cmd_overlap_bound_fuzz(args.n, args.seed))


def _cmd_dimension_ratio(args) -> tuple:
    ks = parse_ints(args.k_list, "k list")
    return _report(cmd_dimension_ratio(load_state(args.rho), ks))


def _cmd_converse(args) -> tuple:
    spectra = spectra_from_json(load_json(args.spectra))
    return _report(cmd_converse_probe(spectra, range(args.k_min, args.k_max + 1)))


def _cmd_ssa_scan(args) -> tuple:
    return _report(cmd_ssa_scan(args.n, args.seed))


def _cmd_validate_state(args) -> tuple:
    """Residuals of the matrix as written in the file, not of the one the state stores."""
    try:
        rho = load_state(args.state)
    except ValidationError as exc:
        return [json.dumps({"valid": False, "reason": str(exc)}) + "\n"], 1
    return [json.dumps({"valid": True, **rho.residuals}, sort_keys=True) + "\n"], 0


def _cmd_sample_state(args) -> tuple:
    rho = sample_hs_random(parse_ints(args.dims, "dimensions"), args.seed)
    return [json.dumps(state_to_json(rho)) + "\n"], 0


class Command(NamedTuple):
    help: str
    handler: Callable[[argparse.Namespace], tuple[Iterable[str], int]]  # lines for main, exit code
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
    """The parser of what follows a known ``command``'s name, one level with its
    own arguments; else (``--help``, a typo) the table of every subcommand."""
    if command in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"snrecoupling {command}")
        parsers = {command: parser}
    else:
        parser = argparse.ArgumentParser(prog="snrecoupling", description=__doc__)
        sub = parser.add_subparsers(dest="command", required=True)
        parsers = {name: sub.add_parser(name, help=spec.help) for name, spec in COMMANDS.items()}
    for name, p in parsers.items():
        for flags, kwargs in COMMANDS[name].arguments:
            p.add_argument(*flags, **kwargs)
        p.add_argument("--out", default=None, help="output file ('-' for stdout)")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in COMMANDS:
        build_parser().parse_args(argv)  # prints the help or an error, and exits
    args = build_parser(argv[0]).parse_args(argv[1:])
    try:
        lines, code = COMMANDS[argv[0]].handler(args)
        _emit(lines, args.out)
        return code
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
