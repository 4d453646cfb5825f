import json
import math
import time
from itertools import product

import numpy as np
import pytest

from snrecoupling import cli, intertwiner
from snrecoupling.cli import COMMANDS, build_parser, main, parse_labels, parse_partition
from snrecoupling.combinatorics import enumerate_partitions
from snrecoupling.errors import ResourceLimitError, ValidationError
from snrecoupling.experiments import LABELS
from snrecoupling.quantumstates import (
    SAMPLE_DIM_CAP,
    DensityMatrix,
    maximally_mixed,
    sample_hs_random,
    spectra_tuple,
    state_to_json,
)
from snrecoupling.recoupling import column_swap_check, column_swap_check_ag, recoupling_tensor
from oracles import exact_hs_squared


# the subcommands that draw random states
SEEDED = {"overlap-bound-fuzz", "ssa-scan", "sample-state"}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_state(rho, path):
    path.write_text(json.dumps(state_to_json(rho)))


def skewed_mixed_state(path):
    """The maximally mixed (2,2,2) state with i 4.24e-11 added at entry (0, 1):
    a Hermiticity residual of 6e-11, inside HERMITICITY_TOL = 1e-10."""
    payload = state_to_json(maximally_mixed((2, 2, 2)))
    payload["matrix"][0][1] = [0.0, 4.24e-11]
    path.write_text(json.dumps(payload))
    return path


class TestParsing:
    def test_partition(self):
        assert parse_partition("3,1") == (3, 1)
        with pytest.raises(ValidationError):
            parse_partition("1,3")
        with pytest.raises(ValidationError):
            parse_partition("a,b")

    def test_labels(self):
        labels = parse_labels("2,1/2,1/3/3/2,1/2,1", 6)
        assert labels[2] == (3,)
        with pytest.raises(ValidationError):
            parse_labels("2,1/3", 6)


class TestParserTable:
    """Each run builds only its own subcommand's parser; help and errors are unchanged."""

    def test_top_level_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert len(COMMANDS) == 14
        for name, spec in COMMANDS.items():
            assert f"{name} {spec.help}" in out

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_subcommand_help_exits_0(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: snrecoupling {name}")
        # each flag is offered exactly where the subcommand reads it
        assert ("--seed" in out) == (name in SEEDED)
        assert ("--format" in out) == (name == "spectrum-estimation")
        assert "--out" in out

    @pytest.mark.parametrize("argv", [["bogus"], [], ["--seed", "1"]])
    def test_unknown_or_missing_subcommand_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: snrecoupling" in captured.err

    def test_only_the_invoked_subcommand_is_built(self, capsys):
        with pytest.raises(SystemExit):
            build_parser("char").parse_args(["kron", "--alpha", "1", "--beta", "1",
                                             "--lambda", "1"])
        err = capsys.readouterr().err
        assert "invalid choice" in err and "kron" in err and "sample-state" not in err

    @pytest.mark.parametrize("argv", [
        ["char", "--lambda", "2,1", "--type", "3", "--seed", "1"],
        ["cg", "--alpha", "2,1", "--beta", "2,1", "--lambda", "3", "--format", "csv"],
        ["validate-state", "x.json", "--format", "json"],
        ["overlap-certificate", "--rho", "x.json", "--k", "2", "--delta", "1", "--seed", "1"],
        ["overlap-certificate", "--rho", "x.json", "--k", "2", "--delta", "1", "--format", "csv"],
    ])
    def test_flag_the_subcommand_does_not_read_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    def test_spectrum_estimation_defaults_to_csv(self):
        args = build_parser("spectrum-estimation").parse_args(
            ["spectrum-estimation", "--rho", "x.json"])
        assert args.format == "csv"
        assert not hasattr(build_parser("ssa-scan").parse_args(["ssa-scan"]), "format")


# one short run of each subcommand; {tri}, {qubit} and {spectra} name the
# files of the `inputs` fixture
SHORT_RUNS = {
    "char": ["--lambda", "2,1", "--type", "3"],
    "kron": ["--alpha", "2,1", "--beta", "2,1", "--lambda", "2,1"],
    "cg": ["--alpha", "2,1", "--beta", "2,1", "--lambda", "3"],
    "recoupling": ["--labels", "2,1/2,1/2,1/3/3/2,1"],
    "scan-recoupling": ["--k", "2"],
    "spectrum-estimation": ["--rho", "{qubit}", "--k-max", "4"],
    "overlap": ["--rho", "{tri}", "--labels", "2/2/2/2/2/2"],
    "overlap-certificate": ["--rho", "{tri}", "--k", "2", "--delta", "1.0"],
    "overlap-bound-fuzz": ["--n", "3"],
    "dimension-ratio": ["--rho", "{tri}", "--k-list", "250"],
    "converse-probe": ["--spectra", "{spectra}", "--k-min", "1", "--k-max", "3"],
    "ssa-scan": ["--n", "3"],
    "validate-state": ["{tri}"],
    "sample-state": ["--dims", "2,2"],
}


@pytest.fixture
def inputs(tmp_path):
    """A tripartite state, a qubit state and a spectra file."""
    tri = sample_hs_random((2, 2, 3), 5)
    files = {"tri": tmp_path / "tri.json", "qubit": tmp_path / "qubit.json",
             "spectra": tmp_path / "spectra.json"}
    write_state(tri, files["tri"])
    write_state(DensityMatrix(dims=(2,), matrix=np.diag([0.9, 0.1])), files["qubit"])
    files["spectra"].write_text(json.dumps(spectra_tuple(tri).as_dict()))
    return {name: str(path) for name, path in files.items()}


class TestOneWriter:
    """``cli._emit`` writes every subcommand's output, to stdout or to --out."""

    def test_every_subcommand_has_a_short_run(self):
        assert set(SHORT_RUNS) == set(COMMANDS)

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_out_file_gets_the_bytes_of_stdout(self, capsys, tmp_path, inputs, name):
        argv = [name, *(arg.format(**inputs) for arg in SHORT_RUNS[name])]
        code, out = run(capsys, *argv)
        path = tmp_path / "out.txt"
        assert run(capsys, *argv, "--out", str(path)) == (code, "")
        assert path.read_bytes() == out.encode()
        assert out.endswith("\n") and not out.endswith("\n\n")

    @pytest.mark.parametrize("argv", [["char", "--lambda", "2,1", "--type", "3"],
                                      ["scan-recoupling", "--k", "2"]])
    def test_out_under_a_missing_directory_exits_2(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "out.txt"
        code = main([*argv, "--out", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: cannot write {path}")
        assert "Traceback" not in captured.err and not path.parent.exists()

    def test_failed_command_leaves_no_out_file(self, capsys, tmp_path):
        rho = tmp_path / "rho.json"
        write_state(sample_hs_random((2, 2), 0), rho)
        path = tmp_path / "out.jsonl"
        code = main(["overlap-certificate", "--rho", str(rho), "--k", "2", "--delta", "1.0",
                     "--out", str(path)])
        assert code == 2 and "tripartite" in capsys.readouterr().err
        assert not path.exists()


class TestScalarCommands:
    def test_char(self, capsys):
        code, out = run(capsys, "char", "--lambda", "2,1", "--type", "3")
        assert code == 0
        assert out.strip() == "-1"

    def test_kron(self, capsys):
        code, out = run(capsys, "kron", "--alpha", "2,1", "--beta", "2,1",
                        "--lambda", "2,1")
        assert code == 0
        assert out.strip() == "1"

    def test_cg_dump(self, capsys, tmp_path):
        path = tmp_path / "cg.json"
        code, _ = run(capsys, "cg", "--alpha", "2,1", "--beta", "2,1",
                      "--lambda", "3", "--out", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["count"] == 1
        mat = np.array(payload["maps"][0])
        assert mat.shape == (4, 1)

    def test_recoupling_block(self, capsys):
        code, out = run(capsys, "recoupling", "--labels", "3/3/3/3/3/3")
        assert code == 0
        payload = json.loads(out)
        assert payload["hs"] == pytest.approx(1.0)
        assert payload["block_shape"] == [1, 1, 1, 1]

    def test_recoupling_zero_block_prints_zeros(self, capsys):
        code, out = run(capsys, "recoupling", "--labels", "2,1/2,1/2,1/2,1/2,1/2,1")
        payload = json.loads(out)
        assert code == 0 and payload["entries"] == [[[[0.0]]]] and payload["hs"] == 0.0

    def test_scan_recoupling(self, capsys):
        code, out = run(capsys, "scan-recoupling", "--k", "2")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().split("\n")]
        assert len(lines) == 2**6
        for line in lines:
            assert line["swap_bl_residual"] < 1e-8
            assert line["swap_ag_residual"] < 1e-8

    def test_scan_recoupling_reports_zero_blocks_as_zero(self, capsys):
        code, out = run(capsys, "scan-recoupling", "--k", "3")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().split("\n")]
        assert len(lines) == 3**6
        for line in lines:
            exact = exact_hs_squared(*map(tuple, line["labels"]))
            if exact == 0:
                assert line["hs"] == 0.0, line
            else:
                assert abs(line["hs"] ** 2 - exact) < 1e-13, line

    def test_scan_recoupling_streams_the_bytes_of_one_batch(self, capsys, tmp_path):
        # oracle: every line built first, then joined and written at once
        batch = "\n".join(
            json.dumps({"labels": [list(l) for l in labels],
                        "hs": recoupling_tensor(*labels).hs,
                        "swap_bl_residual": column_swap_check(*labels).residual,
                        "swap_ag_residual": column_swap_check_ag(*labels).residual},
                       sort_keys=True)
            for labels in product(enumerate_partitions(3), repeat=6)
        ) + "\n"
        path = tmp_path / "scan.jsonl"
        assert main(["scan-recoupling", "--k", "3", "--out", str(path)]) == 0
        assert path.read_text() == batch
        assert run(capsys, "scan-recoupling", "--k", "3") == (0, batch)

    def test_scan_recoupling_keeps_the_lines_before_a_refusal(self, tmp_path, monkeypatch):
        n, done = 100, []

        def refuse_after_n(*labels):
            if len(done) == n:
                raise ResourceLimitError("refused")
            done.append(labels)
            return recoupling_tensor(*labels)

        monkeypatch.setattr(cli, "recoupling_tensor", refuse_after_n)
        path = tmp_path / "scan.jsonl"
        assert main(["scan-recoupling", "--k", "3", "--out", str(path)]) == 3
        lines = path.read_text().splitlines()
        assert [tuple(map(tuple, json.loads(line)["labels"])) for line in lines] == done
        assert len(done) == n


class TestStateCommands:
    def test_sample_validate_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        code, _ = run(capsys, "sample-state", "--dims", "2,2,2", "--seed", "7",
                      "--out", str(path))
        assert code == 0
        code, out = run(capsys, "validate-state", str(path))
        assert code == 0
        res = json.loads(out)
        assert res["valid"] and res["hermiticity"] < 1e-10

    def test_validate_rejects_bad_state(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        payload = state_to_json(maximally_mixed((2, 2)))
        payload["matrix"][0][0] = [0.9, 0.0]  # breaks the trace
        path.write_text(json.dumps(payload))
        code, out = run(capsys, "validate-state", str(path))
        assert code == 1
        assert not json.loads(out)["valid"]

    def test_validate_rejects_nan_state(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"dims":[2],"matrix":[[[NaN,0],[0,0]],[[0,0],[0.5,0]]]}')
        code, out = run(capsys, "validate-state", str(path))
        assert code == 1
        res = json.loads(out)
        assert res["valid"] is False
        assert "NaN" in res["reason"]

    def test_spectrum_estimation_csv(self, capsys, tmp_path):
        path = tmp_path / "rho.json"
        write_state(DensityMatrix(dims=(2,), matrix=np.diag([0.9, 0.1])), path)
        _, out = run(capsys, "spectrum-estimation", "--rho", str(path),
                     "--k-max", "6", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0].split(",")[:4] == ["k", "lam", "trace", "l1_dist"]
        assert len(lines) > 6

    def test_overlap(self, capsys, tmp_path):
        path = tmp_path / "rho.json"
        write_state(maximally_mixed((2, 2, 2)), path)
        code, out = run(capsys, "overlap", "--rho", str(path), "--labels", "2/2/2/2/2/2")
        assert code == 0
        payload = json.loads(out)
        assert 0 <= payload["t_p"] <= 1 and 0 <= payload["t_q"] <= 1

    def test_overlap_certificate(self, capsys, tmp_path):
        path = tmp_path / "rho.json"
        write_state(maximally_mixed((2, 2, 2)), path)
        code, out = run(capsys, "overlap-certificate", "--rho", str(path),
                        "--k", "2", "--delta", "2.0")
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["passed"]

    def test_ssa_scan_exit_code(self, capsys):
        code, out = run(capsys, "ssa-scan", "--n", "5", "--seed", "3")
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1])["passed"]

    def test_overlap_bound_fuzz(self, capsys):
        code, out = run(capsys, "overlap-bound-fuzz", "--n", "20", "--seed", "1")
        assert code == 0

    def test_report_written_with_out_in_both_formats(self, capsys, tmp_path):
        argv = ("overlap-bound-fuzz", "--n", "5", "--seed", "0")
        code, out = run(capsys, *argv, "--out", str(tmp_path / "r.jsonl"))
        assert code == 0 and out == ""
        lines = (tmp_path / "r.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["record"] == "header"
        assert len(lines) == 5 + 2
        # CSV comes only from spectrum-estimation (its gate fails on this state)
        qubit = tmp_path / "rho.json"
        write_state(DensityMatrix(dims=(2,), matrix=np.diag([0.9, 0.1])), qubit)
        code, out = run(capsys, "spectrum-estimation", "--rho", str(qubit), "--k-max", "4",
                        "--format", "csv", "--out", str(tmp_path / "r.csv"))
        assert code == 1 and out == ""
        rows = (tmp_path / "r.csv").read_text().splitlines()
        assert rows[0].split(",")[:2] == ["k", "lam"] and len(rows) > 4

    def test_dimension_ratio(self, capsys, tmp_path):
        path = tmp_path / "ghz.json"
        v = np.zeros(8)
        v[0] = v[7] = 1 / np.sqrt(2)
        write_state(DensityMatrix(dims=(2, 2, 2), matrix=np.outer(v, v)), path)
        code, out = run(capsys, "dimension-ratio", "--rho", str(path),
                        "--k-list", "500,2000")
        assert code == 0

    def test_dimension_ratio_at_the_largest_k(self, capsys, tmp_path):
        # O(rows^2) per diagram: k = 1e11 costs what k = 500 does
        path = tmp_path / "rho.json"
        write_state(maximally_mixed((2, 2, 2)), path)
        start = time.perf_counter()
        code, out = run(capsys, "dimension-ratio", "--rho", str(path),
                        "--k-list", "100000000000")
        assert time.perf_counter() - start < 1.0
        assert code in (0, 1)
        assert math.isfinite(json.loads(out.splitlines()[1])["ratio"])

    def test_validate_reports_the_residual_in_the_file(self, capsys, tmp_path):
        code, out = run(capsys, "validate-state", str(skewed_mixed_state(tmp_path / "s.json")))
        assert code == 0
        res = json.loads(out)
        assert res["valid"] and res["hermiticity"] == pytest.approx(6e-11, rel=1e-3)

    def test_state_inside_the_hermiticity_tolerance_is_usable(self, capsys, tmp_path):
        # accepted by DensityMatrix, so every command downstream must run on it
        path = str(skewed_mixed_state(tmp_path / "s.json"))
        code, out = run(capsys, "overlap-certificate", "--rho", path, "--k", "2",
                        "--delta", "1.0")
        assert code == 0 and json.loads(out.splitlines()[-1])["passed"]
        code, out = run(capsys, "dimension-ratio", "--rho", path, "--k-list", "250")
        assert code == 0 and json.loads(out.splitlines()[-1])["passed"]

    def test_state_on_the_eigenvalue_floor_is_usable(self, capsys, tmp_path):
        # accepted with lowest eigenvalue -1e-10, on the floor; its A marginal
        # has -4e-10, which no command downstream may refuse
        path = tmp_path / "floor.json"
        diag = [-1e-10] * 4 + [(1 + 4e-10) / 4] * 4
        path.write_text(json.dumps({"dims": [2, 2, 2], "matrix": [
            [[x if i == j else 0.0, 0.0] for j in range(8)] for i, x in enumerate(diag)]}))
        code, out = run(capsys, "validate-state", str(path))
        res = json.loads(out)
        assert code == 0 and res["valid"] and res["min_eigenvalue"] == -1e-10
        for command, *flags in (("overlap-certificate", "--k", "2", "--delta", "1.0"),
                                ("dimension-ratio", "--k-list", "2,3")):
            code, out = run(capsys, command, "--rho", str(path), *flags)
            assert code == 0 and json.loads(out.splitlines()[-1])["passed"], command

    def test_validate_checks_the_eigenvalues_of_the_stored_matrix(self, capsys, tmp_path):
        # eigvalsh of the lower triangle reads -0.9e-10, inside the floor, but
        # the Hermitian part that would be stored has -1.25e-10, outside it
        mat = np.diag([1 + 1.8e-10, -0.9e-10, -0.9e-10]).astype(complex)
        mat[1, 2] = 7e-11j
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({"dims": [3], "matrix": [
            [[z.real, z.imag] for z in row] for row in mat]}))
        code, out = run(capsys, "validate-state", str(path))
        assert code == 1 and "negative eigenvalue" in json.loads(out)["reason"]

    def test_converse_probe(self, capsys, tmp_path):
        path = tmp_path / "spectra.json"
        path.write_text(json.dumps({
            "r_a": [0.5, 0.5], "r_b": [0.5, 0.5], "r_c": [1.0, 0.0],
            "r_ab": [0.25, 0.25, 0.25, 0.25], "r_bc": [0.5, 0.5, 0.0, 0.0],
            "r_abc": [1.0, 0, 0, 0, 0, 0, 0, 0],
        }))
        code, out = run(capsys, "converse-probe", "--spectra", str(path),
                        "--k-min", "2", "--k-max", "3")
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["hs_sequence"] == [0.0, 0.0]

    def test_converse_probe_reaches_k7(self, capsys, tmp_path):
        path = tmp_path / "spectra.json"
        path.write_text(json.dumps({
            "r_a": [0.5, 0.5], "r_b": [0.5, 0.5], "r_c": [0.5, 0.5],
            "r_ab": [0.25] * 4, "r_bc": [0.25] * 4, "r_abc": [0.125] * 8,
        }))
        code, out = run(capsys, "converse-probe", "--spectra", str(path),
                        "--k-min", "1", "--k-max", "7")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert [line["k"] for line in lines if line["record"] == "item"] == list(range(1, 8))
        assert "surrogate_max" not in lines[1]

    def test_converse_probe_takes_k8_where_the_caps_admit_it(self, capsys, tmp_path):
        path = tmp_path / "spectra.json"
        path.write_text(json.dumps(spectra_tuple(maximally_mixed((2, 2, 2))).as_dict()))
        code, out = run(capsys, "converse-probe", "--spectra", str(path),
                        "--k-min", "8", "--k-max", "8")
        assert code == 0
        items = [line for line in map(json.loads, out.splitlines()) if line["record"] == "item"]
        assert [[item[name] for name in LABELS] for item in items] == [
            [[4, 4]] * 3 + [[2, 2, 2, 2]] * 2 + [[1] * 8]]

    def test_converse_probe_k8_above_the_product_cap_exits_3(self, capsys, tmp_path):
        path = tmp_path / "spectra.json"
        path.write_text(json.dumps(spectra_tuple(sample_hs_random((2, 2, 2), 0)).as_dict()))
        code = main(["converse-probe", "--spectra", str(path), "--k-min", "8", "--k-max", "8"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: Jucys-Murphy operator entries for "
                                       "((5, 3), (4, 2, 1, 1), (3, 2, 1, 1, 1))")
        assert f"exceeds cap {intertwiner.DEFAULT_PRODUCT_CAP}" in captured.err

    def test_converse_probe_long_range_ends_at_the_first_refused_k(self, capsys, tmp_path):
        # the k range is not listed up front: k = 1..8 fit the caps here and
        # k = 9 is refused
        path = tmp_path / "spectra.json"
        path.write_text(json.dumps(spectra_tuple(maximally_mixed((2, 2, 2))).as_dict()))
        code = main(["converse-probe", "--spectra", str(path),
                     "--k-min", "1", "--k-max", str(10**12)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert f"exceeds cap {intertwiner.DEFAULT_PRODUCT_CAP}" in captured.err

    def test_error_exit_code(self, capsys):
        code = main(["char", "--lambda", "1,2", "--type", "3"])
        assert code == 2

    def test_resource_limit_exit_code(self, capsys):
        # dim (4,3,2,1) = 768: far above the intertwiner cap, rejected unsolved
        code = main(["cg", "--alpha", "4,3,2,1", "--beta", "4,3,2,1",
                     "--lambda", "4,3,2,1"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "exceeds cap" in captured.err

    @pytest.mark.parametrize("argv", [
        # S_60 has 966,467 classes; the sum took 50 s at 1.1 GB before the cap
        ["kron", "--alpha", "59,1", "--beta", "59,1", "--lambda", "60"],
        ["cg", "--alpha", "59,1", "--beta", "59,1", "--lambda", "60"],
        # a 10 x 10 box at cycle type 1^100: 1.94 s at 122 MB before the cap
        ["char", "--lambda", ",".join(["10"] * 10), "--type", ",".join(["1"] * 100)],
        # k_max is checked against the same cap before any trace
        ["spectrum-estimation", "--rho", "{qubit}", "--k-max", "31"],
    ], ids=["kron", "cg", "char", "spectrum"])
    def test_class_count_cap_exits_3_at_once(self, capsys, tmp_path, argv):
        qubit = tmp_path / "rho.json"
        write_state(maximally_mixed(2), qubit)
        argv = [arg.format(qubit=qubit) for arg in argv]
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "conjugacy classes" in captured.err
        assert elapsed < 0.2


class TestMalformedInput:
    """Bad input exits 2 with an error line, never a traceback (exit 1 means a gate failed)."""

    def check_rejected(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        return captured.err

    def test_semicolon_is_not_a_label_separator(self, capsys):
        self.check_rejected(capsys, "recoupling", "--labels", "3;3;3;3;3;3")

    def test_sample_state_bad_dims(self, capsys):
        err = self.check_rejected(capsys, "sample-state", "--dims", "2,x")
        assert "dimensions" in err

    def test_sample_state_non_positive_dims(self, capsys):
        self.check_rejected(capsys, "sample-state", "--dims", "2,-1")

    def test_sample_state_above_the_cap_exits_3(self, capsys):
        code = main(["sample-state", "--dims", str(SAMPLE_DIM_CAP + 1)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: ")
        assert f"exceeds cap {SAMPLE_DIM_CAP}" in captured.err

    def test_state_with_negative_dims(self, capsys, tmp_path):
        # -2 * -2 * 2 = 8 matches the 8 x 8 matrix, but no command can use it
        path = tmp_path / "rho.json"
        payload = state_to_json(maximally_mixed((2, 2, 2)))
        payload["dims"] = [-2, -2, 2]
        path.write_text(json.dumps(payload))
        code, out = run(capsys, "validate-state", str(path))
        assert code == 1 and "tensor factors" in json.loads(out)["reason"]
        self.check_rejected(capsys, "overlap-certificate", "--rho", str(path),
                            "--k", "2", "--delta", "1.0")
        self.check_rejected(capsys, "dimension-ratio", "--rho", str(path),
                            "--k-list", "2,3")

    @pytest.mark.parametrize("dims, entry", [
        ([2.7], [0.5, 0.0]),
        (["2"], [0.5, 0.0]),
        ([True, 2], [0.5, 0.0]),
        ([2], [0.5, 0.0, 7]),
        ([2], [0.5, 0.0, "x"]),
    ], ids=["float-dims", "string-dims", "bool-dims", "three-numbers", "trailing-string"])
    def test_state_file_read_exactly(self, capsys, tmp_path, dims, entry):
        # a lax reader takes each of these as diag(0.5, 0.5) on (2,) or (1, 2)
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({"dims": dims, "matrix": [
            [entry, [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}))
        code, out = run(capsys, "validate-state", str(path))
        assert code == 1 and json.loads(out)["valid"] is False
        self.check_rejected(capsys, "overlap-certificate", "--rho", str(path),
                            "--k", "2", "--delta", "1.0")

    def test_dimension_ratio_k_above_the_rounding_bound(self, capsys, tmp_path):
        path = tmp_path / "rho.json"
        write_state(maximally_mixed((2, 2, 2)), path)
        err = self.check_rejected(capsys, "dimension-ratio", "--rho", str(path),
                                  "--k-list", "1000000000000")
        assert "k must be in" in err

    def test_non_json_state_file(self, capsys, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text("not json")
        self.check_rejected(capsys, "overlap-certificate", "--rho", str(path),
                            "--k", "2", "--delta", "1.0")

    def test_dimension_ratio_bad_k_list(self, capsys, tmp_path):
        path = tmp_path / "rho.json"
        write_state(maximally_mixed((2, 2, 2)), path)
        err = self.check_rejected(capsys, "dimension-ratio", "--rho", str(path),
                                  "--k-list", "2,x")
        assert "k list" in err

    def test_dimension_ratio_empty_k_list(self, capsys, tmp_path):
        path = tmp_path / "rho.json"
        write_state(maximally_mixed((2, 2, 2)), path)
        err = self.check_rejected(capsys, "dimension-ratio", "--rho", str(path),
                                  "--k-list", ",")
        assert "k values" in err

    @pytest.mark.parametrize("k_min, k_max", [("3", "2"), ("0", "2"), ("0", "0")])
    def test_converse_probe_bad_k_range(self, capsys, tmp_path, k_min, k_max):
        # an empty range would print a passing report over no data
        path = tmp_path / "spectra.json"
        path.write_text(json.dumps({
            "r_a": [0.5, 0.5], "r_b": [0.5, 0.5], "r_c": [1.0, 0.0], "r_ab": [0.25] * 4,
            "r_bc": [0.5, 0.5, 0.0, 0.0], "r_abc": [1.0] + [0.0] * 7,
        }))
        err = self.check_rejected(capsys, "converse-probe", "--spectra", str(path),
                                  "--k-min", k_min, "--k-max", k_max)
        assert "k values" in err

    def test_non_json_spectra_file(self, capsys, tmp_path):
        path = tmp_path / "spectra.json"
        path.write_text("{r_a: [1.0]}")
        self.check_rejected(capsys, "converse-probe", "--spectra", str(path))

    def test_spectra_file_missing_key(self, capsys, tmp_path):
        path = tmp_path / "spectra.json"
        path.write_text(json.dumps({
            "r_a": [0.5, 0.5], "r_c": [1.0, 0.0], "r_ab": [0.25] * 4,
            "r_bc": [0.5, 0.5, 0.0, 0.0], "r_abc": [1.0] + [0.0] * 7,
        }))
        err = self.check_rejected(capsys, "converse-probe", "--spectra", str(path))
        assert "r_b" in err

    def test_spectra_file_zero_spectrum(self, capsys, tmp_path):
        path = tmp_path / "spectra.json"
        path.write_text(json.dumps({
            "r_a": [0.0, 0.0], "r_b": [0.5, 0.5], "r_c": [1.0, 0.0], "r_ab": [0.25] * 4,
            "r_bc": [0.5, 0.5, 0.0, 0.0], "r_abc": [1.0] + [0.0] * 7,
        }))
        self.check_rejected(capsys, "converse-probe", "--spectra", str(path))

    @pytest.mark.parametrize("payload", [
        {"dims": ["x"], "matrix": [[[1, 0]]]},
        {"dims": [2], "matrix": [[[1, 0]], [[0, 0], [0.5, 0]]]},  # ragged rows
        {"dims": [1], "matrix": [[[10**400, 0]]]},  # no float holds the entry
    ])
    def test_malformed_state_file(self, capsys, tmp_path, payload):
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(payload))
        code, out = run(capsys, "validate-state", str(path))
        assert code == 1
        assert json.loads(out)["reason"].startswith("malformed state file")
        self.check_rejected(capsys, "overlap-certificate", "--rho", str(path),
                            "--k", "2", "--delta", "1.0")

    def test_validate_non_json_state_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[[[1, 0]]")
        code, out = run(capsys, "validate-state", str(path))
        assert code == 1
        assert json.loads(out)["valid"] is False

    def test_overlap_certificate_nan_delta(self, capsys, tmp_path):
        path = tmp_path / "rho.json"
        write_state(maximally_mixed((2, 2, 2)), path)
        err = self.check_rejected(capsys, "overlap-certificate", "--rho", str(path),
                                  "--k", "2", "--delta", "nan")
        assert "finite" in err

    def test_spectrum_estimation_nan_delta(self, capsys, tmp_path):
        path = tmp_path / "rho.json"
        write_state(maximally_mixed(2), path)
        err = self.check_rejected(capsys, "spectrum-estimation", "--rho", str(path),
                                  "--k-max", "4", "--delta", "nan")
        assert "finite" in err

    def test_spectrum_estimation_negative_delta(self, capsys, tmp_path):
        path = tmp_path / "rho.json"
        write_state(maximally_mixed(2), path)
        err = self.check_rejected(capsys, "spectrum-estimation", "--rho", str(path),
                                  "--k-max", "4", "--delta", "-1")
        assert "non-negative" in err

    def test_spectrum_estimation_zero_k_max(self, capsys, tmp_path):
        path = tmp_path / "rho.json"
        write_state(maximally_mixed(2), path)
        err = self.check_rejected(capsys, "spectrum-estimation", "--rho", str(path),
                                  "--k-max", "0")
        assert "k_max" in err

    def test_converse_probe_inconsistent_spectrum_lengths(self, capsys, tmp_path):
        path = tmp_path / "spectra.json"
        path.write_text(json.dumps({
            "r_a": [0.5, 0.5], "r_b": [0.5, 0.5], "r_c": [1.0, 0.0], "r_ab": [0.25] * 4,
            "r_bc": [0.5, 0.5, 0.0], "r_abc": [1.0] + [0.0] * 7,
        }))
        err = self.check_rejected(capsys, "converse-probe", "--spectra", str(path))
        assert "r_ab, r_bc, r_abc" in err

    def test_spectra_file_scalar_spectrum(self, capsys, tmp_path):
        path = tmp_path / "spectra.json"
        path.write_text(json.dumps({
            "r_a": 1.0, "r_b": [0.5, 0.5], "r_c": [1.0, 0.0], "r_ab": [0.5, 0.5],
            "r_bc": [0.5, 0.5, 0.0, 0.0], "r_abc": [1.0] + [0.0] * 3,
        }))
        err = self.check_rejected(capsys, "converse-probe", "--spectra", str(path))
        assert "non-empty vector" in err

    @pytest.mark.parametrize("flag", ["--samples", "--seed"])
    def test_converse_probe_takes_no_sampling_flags(self, capsys, tmp_path, flag):
        # the probe computes exact norms only: it draws no states
        path = tmp_path / "spectra.json"
        path.write_text(json.dumps({
            "r_a": [0.5, 0.5], "r_b": [0.5, 0.5], "r_c": [1.0, 0.0], "r_ab": [0.25] * 4,
            "r_bc": [0.5, 0.5, 0.0, 0.0], "r_abc": [1.0] + [0.0] * 7,
        }))
        with pytest.raises(SystemExit) as exc:
            main(["converse-probe", "--spectra", str(path), flag, "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} 0" in captured.err

    def test_overlap_label_not_a_partition_of_k(self, capsys, tmp_path):
        path = tmp_path / "rho.json"
        write_state(maximally_mixed((2, 2, 2)), path)
        # the labels fix k, so labels of two sizes are rejected
        err = self.check_rejected(capsys, "overlap", "--rho", str(path),
                                  "--labels", "2,1/2/2/2/2/2")
        assert "do not share one k" in err

    @pytest.mark.parametrize("argv", [
        ("ssa-scan", "--n", "2"),
        ("sample-state", "--dims", "2"),
        ("overlap-bound-fuzz", "--n", "2"),
    ])
    def test_negative_seed(self, capsys, argv):
        # rejected by argparse where --seed is parsed: exit 2, usage on stderr
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be non-negative" in captured.err
