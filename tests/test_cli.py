import copy
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import purbounds
from purbounds import bounds, quantum, verify
from purbounds.bounds import bound_report
from purbounds.cli import entrypoint, main, qubit_sweep
from purbounds.instances import (
    InstanceFormatError,
    _decode,
    instance_payload,
    json_dumps,
    load_instance,
    parse_instance,
    report_to_dict,
)
from purbounds.quantum import Observable, QuantumState, basis_state, equatorial_state, normalize, pauli_x, pauli_z
from purbounds.verify import random_observable, random_state


# the subprocess imports the same package as this process, installed or not
PACKAGE_PARENT = str(Path(purbounds.__file__).resolve().parent.parent)
SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(p for p in (PACKAGE_PARENT, os.environ.get("PYTHONPATH")) if p),
}


def instance_dict(state, a, b, xi_perp=None):
    return instance_payload(state, a, b, xi_perp)


def write_instance(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def trivial_instance(tmp_path):
    # (Z, X, |0>): the HRSUR bounds vanish while the variance sum is 1
    payload = instance_dict(basis_state(2, 0), pauli_z(), pauli_x())
    return write_instance(tmp_path, "trivial.json", payload)


@pytest.fixture
def quarter_turn_instance(tmp_path):
    payload = instance_dict(equatorial_state(np.pi / 2), pauli_x(), pauli_z())
    return write_instance(tmp_path, "quarter.json", payload)


def corpus_instance(dim):
    """(state, A, B, xi_perp) with -0.0 parts, integral entries and 1e-300 / 1e150 magnitudes."""
    rng = np.random.default_rng(dim)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    vec[0], vec[1] = complex(-0.0, 1e-300), complex(3.0, -0.0)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = np.round(2.0 * (g + g.conj().T))
    a[0, 0], a[0, 1], a[1, 0] = 1e150, complex(-0.0, 1e-300), complex(-0.0, -1e-300)
    b = 1e-300 * (g + g.conj().T)
    b[1, 1] = -0.0
    perp = np.zeros(dim, dtype=complex)
    perp[-1] = complex(-0.0, -1.0)
    return normalize(vec), Observable(a), Observable(b), normalize(perp)


def with_integers(obj):
    """The payload with every nonzero integral float written as a JSON integer."""
    if isinstance(obj, dict):
        return {key: with_integers(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [with_integers(item) for item in obj]
    return int(obj) if isinstance(obj, float) and obj.is_integer() and obj != 0.0 else obj


def edited(payload, path, replace):
    out = copy.deepcopy(payload)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = replace(parent[path[-1]])
    return out


# (entry path, replacement, the location the error names), all InstanceFormatError;
# the locations are those the element-wise parser this one replaced reported. The two size
# rows give the whole message, since a 1-D and a 2-D field word their size differently
MALFORMED = {
    "bool": (("A", 1, 2, 0), lambda old: True, "A[1][2]"),
    "bool_imag": (("state", 2, 1), lambda old: False, "state[2]"),
    "string": (("B", 2, 0, 1), lambda old: "0.5", "B[2][0]"),
    "null": (("state", 1, 0), lambda old: None, "state[1]"),
    "null_pair": (("A", 2, 2), lambda old: None, "A[2][2]"),
    "null_field": (("B",), lambda old: None, "B"),
    "string_field": (("state",), lambda old: "abc", "state"),
    "one_element_pair": (("A", 0, 1), lambda old: old[:1], "A[0][1]"),
    "three_element_pair": (("B", 1, 1), lambda old: old + [0.0], "B[1][1]"),
    "every_pair_three_elements": (("state",), lambda old: [pair + [0.0] for pair in old], "state[0]"),
    "ragged_row": (("A", 2), lambda old: old[:2], "A[2]"),
    "long_row": (("B", 0), lambda old: old + [[0.0, 0.0]], "B[0]"),
    "row_not_a_list": (("A", 1), lambda old: 7, "A[1]"),
    "bad_pair_before_short_row": (("A",), lambda old: [[[True, 0.0]] + old[0][1:], old[1], old[2][:2]], "A[0][0]"),
    "wrong_length": (("state",), lambda old: old[:2], "state: expected a length-3 array of [re, im] pairs"),
    "wrong_row_count": (("A",), lambda old: old[:2], "A: expected a 3x3 array of [re, im] pairs"),
    "huge_integer": (("A", 1, 1, 0), lambda old: 10 ** 400, "A[1][1]"),
    "nested_too_deep": (("state", 1), lambda old: [old, old], "state[1]"),
    "np_int64": (("A", 0, 0, 0), lambda old: np.int64(1), "A[0][0]"),
    "xi_perp_bool": (("xi_perp", 1, 0), lambda old: True, "xi_perp[1]"),
    "nan": (("A", 0, 0, 0), lambda old: float("nan"), "matrix A"),
    "non_hermitian": (("B", 0, 1), lambda old: [5.0, 5.0], "matrix B is not Hermitian"),
    "unnormalized": (("state", 0), lambda old: [3.0, 0.0], "state"),
}


def malformed_base():
    state, a, b = random_state(3, 5), random_observable(3, 6), random_observable(3, 7)
    return instance_payload(state, a, b, QuantumState(np.array([0.0, 0.0, 1.0])))


class TestParseInstance:
    def test_round_trip(self):
        payload = instance_dict(equatorial_state(1.2), pauli_x(), pauli_z(), basis_state(2, 1))
        inst = parse_instance(payload)
        np.testing.assert_allclose(inst.state.vector, equatorial_state(1.2).vector)
        np.testing.assert_allclose(inst.a.matrix, pauli_x().matrix)
        assert inst.xi_perp is not None

    def test_missing_field(self):
        with pytest.raises(InstanceFormatError, match="state"):
            parse_instance({"dim": 2, "A": [], "B": []})

    def test_shape_mismatch_names_field(self):
        payload = instance_dict(basis_state(2, 0), pauli_z(), pauli_x())
        payload["A"] = payload["A"][:1]
        with pytest.raises(InstanceFormatError, match="A"):
            parse_instance(payload)

    def test_non_hermitian_matrix_names_offender(self):
        payload = instance_dict(basis_state(2, 0), pauli_z(), pauli_x())
        payload["B"][0][1] = [0.0, 1.0]
        payload["B"][1][0] = [0.0, 1.0]
        with pytest.raises(InstanceFormatError, match="matrix B"):
            parse_instance(payload)

    def test_unnormalizable_state(self):
        payload = instance_dict(basis_state(2, 0), pauli_z(), pauli_x())
        payload["state"] = [[2.0, 0.0], [0.0, 0.0]]
        with pytest.raises(InstanceFormatError, match="state"):
            parse_instance(payload)

    def test_bad_pair_encoding(self):
        payload = instance_dict(basis_state(2, 0), pauli_z(), pauli_x())
        payload["state"][0] = [1.0]
        with pytest.raises(InstanceFormatError, match=r"\[re, im\]"):
            parse_instance(payload)

    @pytest.mark.parametrize("data", [[], "instance", 2, None])
    def test_top_level_must_be_an_object(self, data):
        with pytest.raises(InstanceFormatError, match="^instance file must contain a JSON object$"):
            parse_instance(data)

    @pytest.mark.parametrize("dim", [1, 0, -2, 65])
    def test_dim_must_be_at_least_two(self, dim):
        # and at most 64: the types' one supported range, checked before any field is decoded
        payload = instance_dict(basis_state(2, 0), pauli_z(), pauli_x())
        with pytest.raises(InstanceFormatError, match=rf"^dimension {dim} outside supported range \[2, 64\]$"):
            parse_instance({**payload, "dim": dim})

    def test_dim_must_be_integer(self):
        # present and an integer, under the package's one integer rule
        fields = {"state": [], "A": [], "B": []}
        for data, message in [
            (fields, "missing required field 'dim'"),
            ({"dim": "2", **fields}, "dim must be an integer, got '2'"),
            ({"dim": 2.0, **fields}, "dim must be an integer, got 2.0"),
            ({"dim": True, **fields}, "dim must be an integer, got True"),
        ]:
            with pytest.raises(InstanceFormatError, match=f"^{re.escape(message)}$"):
                parse_instance(data)

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_round_trip_is_bit_identical(self, dim):
        state, a, b, perp = corpus_instance(dim)
        arrays = {"state": state.vector, "A": a.matrix, "B": b.matrix, "xi_perp": perp.vector}
        for arr in arrays.values():
            assert np.signbit(np.stack((arr.real, arr.imag))).any() and (arr != 0).any()
        payload = instance_payload(state, a, b, perp)
        assert payload["state"] == [[z.real, z.imag] for z in state.vector.tolist()]
        assert payload["A"] == [[[z.real, z.imag] for z in row] for row in a.matrix.tolist()]
        integral = with_integers(payload)
        assert isinstance(integral["A"][0][0][0], int)
        for data in (payload, integral, json.loads(json_dumps(integral))):
            for key, arr in arrays.items():
                assert _decode(data[key], arr.shape, key).tobytes() == arr.tobytes()
            inst = parse_instance(data)
            assert inst.state.vector.tobytes() == state.vector.tobytes()
            assert inst.xi_perp.vector.tobytes() == perp.vector.tobytes()
            assert inst.a.matrix.tobytes() == a.matrix.tobytes()
            assert inst.b.matrix.tobytes() == b.matrix.tobytes()

    @pytest.mark.parametrize("name", MALFORMED)
    def test_malformed_entry_names_first_offender(self, name):
        path, replace, location = MALFORMED[name]
        with pytest.raises(InstanceFormatError) as info:
            parse_instance(edited(malformed_base(), path, replace))
        assert type(info.value) is InstanceFormatError
        # a row names the location, the text before the first colon, or with a colon the whole message
        message = str(info.value)
        assert (message if ":" in location else message.split(":")[0]) == location

    def test_numpy_float64_entries_accepted(self):
        payload = malformed_base()
        inst = parse_instance(payload)
        as_numpy = edited(payload, ("A",), lambda old: [[list(map(np.float64, pair)) for pair in row] for row in old])
        assert isinstance(as_numpy["A"][0][0][0], np.float64)
        assert parse_instance(as_numpy).a.matrix.tobytes() == inst.a.matrix.tobytes()


class TestCmdBounds:
    def test_trivial_instance(self, trivial_instance, capsys):
        assert main(["bounds", trivial_instance]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["t1"] == 0.0
        assert out["t2"] == 0.0
        assert out["mpur"] == pytest.approx(1.0, abs=1e-15)
        assert out["hrsur_trivial"] is True

    def test_quarter_turn_instance(self, quarter_turn_instance, capsys):
        assert main(["bounds", quarter_turn_instance]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["t1"] == pytest.approx(1.0, abs=1e-12)
        assert out["l2"]["value"] == pytest.approx(2.0, abs=1e-12)

    def test_missing_file(self, tmp_path, capsys):
        assert main(["bounds", str(tmp_path / "absent.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["bounds", str(path)]) == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_non_hermitian_matrix(self, tmp_path, capsys):
        payload = instance_dict(basis_state(2, 0), pauli_z(), pauli_x())
        payload["A"][0][1] = [0.0, 1.0]
        payload["A"][1][0] = [0.0, 1.0]
        path = write_instance(tmp_path, "nonherm.json", payload)
        assert main(["bounds", path]) == 2
        assert "matrix A" in capsys.readouterr().err

    def test_overflowing_entry_exits_two_with_one_error_line(self, tmp_path):
        # M + M^dagger of this entry overflows to inf
        payload = instance_dict(basis_state(2, 0), pauli_z(), pauli_x())
        payload["A"][0][0] = [1.7e308, 0.0]
        path = write_instance(tmp_path, "overflow.json", payload)
        proc = subprocess.run(
            [sys.executable, "-m", "purbounds", "bounds", path],
            capture_output=True,
            text=True,
            timeout=60,
            env=SUBPROCESS_ENV,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "matrix A" in lines[0]

    @pytest.mark.parametrize("warnings", ["default", "error::RuntimeWarning"])
    def test_overflowing_state_norm_exits_two_with_one_error_line(self, tmp_path, warnings):
        # the squared norm of (1e200, 0) overflows to inf, outside the renormalization window: one error line,
        # and no RuntimeWarning printed before it or raised past main
        payload = instance_dict(basis_state(2, 0), pauli_x(), pauli_z())
        payload["state"][0] = [1e200, 0.0]
        path = write_instance(tmp_path, "state_overflow.json", payload)
        proc = subprocess.run(
            [sys.executable, "-m", "purbounds", "bounds", path],
            capture_output=True,
            text=True,
            timeout=60,
            env={**SUBPROCESS_ENV, "PYTHONWARNINGS": warnings},
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: invalid instance {path}: state: state norm inf differs from 1 by more than 1e-06\n"
        )

    def test_user_xi_perp(self, tmp_path, capsys):
        payload = instance_dict(basis_state(2, 0), pauli_z(), pauli_x(), basis_state(2, 1))
        path = write_instance(tmp_path, "userperp.json", payload)
        assert main(["bounds", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["l1"]["kind"] == "user_supplied"
        assert out["l1"]["value"] == pytest.approx(0.5, abs=1e-15)

    def test_non_orthogonal_xi_perp(self, tmp_path, capsys):
        payload = instance_dict(basis_state(2, 0), pauli_z(), pauli_x(), basis_state(2, 0))
        path = write_instance(tmp_path, "badperp.json", payload)
        assert main(["bounds", path]) == 2

    def test_report_json_round_trip(self, quarter_turn_instance):
        inst = load_instance(quarter_turn_instance)
        report = bound_report(inst.a, inst.b, inst.state)
        text = json_dumps(report_to_dict(report))
        assert json_dumps(json.loads(text)) == text
        reread = json.loads(text)
        assert reread["var_a"] == report.var_a
        assert reread["saturation_gap"] == report.saturation_gap


class TestCmdSweep:
    def test_small_sweep_values(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--points", "8", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,var_a,var_b,sum_var,prod_var,t1,t2,l1,l2"
        assert len(lines) == 9
        first = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(first["alpha"]) == 0.0
        assert abs(float(first["t1"])) <= 1e-12
        assert abs(float(first["t2"])) <= 1e-12
        assert float(first["l1"]) == pytest.approx(0.5, abs=1e-12)
        assert float(first["l2"]) == pytest.approx(1.0, abs=1e-12)

    def test_rows_satisfy_closed_forms(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--points", "24", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()[1:]
        for line in lines:
            alpha, var_a, var_b, sum_var, prod_var, t1, t2, l1, l2 = map(float, line.split(","))
            s2 = math.sin(alpha) ** 2
            assert abs(l2 - 2 * l1) < 1e-10
            assert abs(l2 - sum_var) < 1e-10
            assert abs(t1 - s2) < 1e-10
            assert abs(var_b - 1.0) < 1e-12

    def test_byte_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--points", "61", "--out", str(out1)]) == 0
        assert main(["sweep", "--points", "61", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_rows_equal_single_reports(self):
        # the sweep is one stacked kernel call; each row is the one-row report at its alpha, bit for bit
        rows = qubit_sweep(241)
        assert len(rows) == 241
        a, b = pauli_x(), pauli_z()
        for k, row in enumerate(rows):
            alpha = math.tau * k / 241
            rep = bound_report(a, b, equatorial_state(alpha))
            expected = (alpha, rep.var_a, rep.var_b, rep.sum_var, rep.prod_var, rep.t1, rep.t2, rep.l1, rep.l2)
            assert [value.hex() for value in row] == [value.hex() for value in expected]

    def test_reads_values_and_makes_no_projection(self, monkeypatch):
        # neither a candidate vector nor any complement projection is formed
        calls = []

        def counted(name, original):
            def wrapper(*args):
                calls.append(name)
                return original(*args)

            return wrapper

        for name in ("_unit_projections", "_project", "_trusted_state"):
            monkeypatch.setattr(bounds, name, counted(name, getattr(bounds, name)))
        monkeypatch.setattr(quantum, "_project", counted("quantum._project", quantum._project))
        assert len(qubit_sweep(241)) == 241
        assert calls == []

    def test_points_too_small(self, tmp_path, capsys):
        assert main(["sweep", "--points", "1", "--out", str(tmp_path / "x.csv")]) == 2

    def test_console_entrypoint_exits_with_mains_code(self, tmp_path, monkeypatch, capsys):
        # the installed script's entry point reads sys.argv and exits with main's status
        monkeypatch.setattr(sys, "argv", ["purbounds", "sweep", "--points", "1", "--out", str(tmp_path / "x.csv")])
        with pytest.raises(SystemExit) as exit_info:
            entrypoint()
        assert exit_info.value.code == 2
        assert capsys.readouterr() == ("", "error: points must be at least 2, got 1\n")

    @pytest.mark.parametrize("points", ["1", "0", "-3"])
    def test_points_rule_is_qubit_sweeps(self, tmp_path, capsys, points):
        # qubit_sweep's own rule and message, at exit 2; no file is written
        assert main(["sweep", "--points", points, "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: points must be at least 2, got {points}\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "points,message",
        [
            (8.0, "points must be an integer, got 8.0"),
            (True, "points must be an integer, got True"),
            (1, "points must be at least 2, got 1"),
            (2, None),
        ],
        ids=["8.0", "True", "1", "2"],
    )
    def test_sweep_points_must_be_an_integer_of_at_least_two(self, points, message):
        if message is None:
            assert [row[0] for row in qubit_sweep(points)] == [0.0, math.pi]
            return
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            qubit_sweep(points)

    def test_unwritable_path(self, tmp_path, capsys):
        assert main(["sweep", "--points", "4", "--out", str(tmp_path / "nodir" / "x.csv")]) == 1

    def test_twelve_significant_digits(self, tmp_path):
        rows = qubit_sweep(241)
        # formatting is %.12g: spot-check one irrational value
        from purbounds.cli import _fmt

        alpha = rows[1][0]
        assert _fmt(alpha) == f"{alpha:.12g}"
        assert len(_fmt(1.0 / 3.0).replace("0.", "")) <= 13


class TestCmdRandom:
    def test_small_suite_exits_zero(self, capsys):
        assert main(["random", "--count", "20", "--dims", "2,3", "--seed", "1", "--tol", "1e-9"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is True
        assert out["violations"] == []
        assert "hrsur_product" in out["min_slacks"]

    def test_violations_exit_three(self, capsys):
        # rounding-level slacks and defects exceed tol 1e-30
        assert main(["random", "--count", "5", "--tol", "1e-30"]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is False
        assert out["violations"]

    def test_count_zero_is_usage_error(self, capsys):
        assert main(["random", "--count", "0"]) == 2

    def test_dims_one_is_usage_error(self, capsys):
        assert main(["random", "--count", "5", "--dims", "1"]) == 2

    def test_dims_garbage_is_usage_error(self, capsys):
        assert main(["random", "--count", "5", "--dims", "a,b"]) == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tol_is_usage_error(self, tol, capsys):
        # with --tol nan no comparison could fire, and the suite would print "passed": true
        assert main(["random", "--count", "5", f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: tol must be a positive finite real number, got {float(tol)!r}\n"

    def test_non_finite_tol_exits_two_from_the_shell(self):
        proc = subprocess.run(
            [sys.executable, "-m", "purbounds", "random", "--count", "5", "--tol", "nan"],
            capture_output=True,
            text=True,
            timeout=60,
            env=SUBPROCESS_ENV,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == ["error: tol must be a positive finite real number, got nan"]

    def test_unset_options_take_the_suites_own_defaults(self, monkeypatch, capsys):
        # the parser holds no copy of run_invariant_suite's defaults: only the options given are passed
        calls, real = [], verify.run_invariant_suite

        def recorded(**options):
            calls.append(options)
            return real(**{**options, "count": 2})

        monkeypatch.setattr(verify, "run_invariant_suite", recorded)
        assert main(["random"]) == 0
        assert main(["random", "--count", "3", "--dims", "2,3", "--seed", "1", "--tol", "1e-8"]) == 0
        assert calls == [{}, {"count": 3, "dims": (2, 3), "seed": 1, "tol": 1e-8}]


class TestCmdMontecarlo:
    def test_quarter_turn_instance(self, quarter_turn_instance, capsys):
        assert main(["montecarlo", "--file", quarter_turn_instance, "--samples", "20000", "--seed", "42"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["violation"] is False
        assert out["empirical_sum"] == pytest.approx(2.0, abs=0.05)

    def test_single_sample_is_usage_error(self, quarter_turn_instance, capsys):
        assert main(["montecarlo", "--file", quarter_turn_instance, "--samples", "1"]) == 2

    @pytest.mark.parametrize("samples", ["1", "0", "-3"])
    def test_samples_rule_is_statistical_bound_checks(self, quarter_turn_instance, capsys, samples):
        # statistical_bound_check's own n >= 2 rule and message, at exit 2; nothing on stdout
        assert main(["montecarlo", "--file", quarter_turn_instance, "--samples", samples]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: n must be at least 2, got {samples}\n")

    def test_degenerate_instance(self, tmp_path, capsys):
        payload = instance_dict(basis_state(2, 0), pauli_z(), pauli_z())
        path = write_instance(tmp_path, "degenerate.json", payload)
        assert main(["montecarlo", "--file", path, "--samples", "1000", "--seed", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["estimate_a"]["var_hat"] == 0.0
        assert out["estimate_b"]["var_hat"] == 0.0

    def test_sharp_observables_exit_zero(self, tmp_path, capsys):
        # both observables are sharp on |0>: every outcome is 0.1, and the sample mean is not
        payload = instance_dict(basis_state(2, 0), Observable(np.diag([0.1, 0.3])), Observable(np.diag([0.1, 0.7])))
        path = write_instance(tmp_path, "sharp.json", payload)
        assert main(["montecarlo", "--file", path, "--samples", "1000", "--seed", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["violation"] is False

    def test_missing_file(self, tmp_path, capsys):
        assert main(["montecarlo", "--file", str(tmp_path / "none.json"), "--samples", "100"]) == 1


class ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


class TestOneFailurePath:
    """`main` maps every OSError to exit 1, every ValueError to exit 2 and every EigensolverError to
    exit 4, each as one `error:` line with the command's context in the message, and nothing on stdout."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "{dir}/quarter.json"],
            ["random", "--count", "2"],
            ["montecarlo", "--file", "{dir}/quarter.json", "--samples", "100"],
        ],
        ids=["bounds", "random", "montecarlo"],
    )
    def test_closed_stdout_is_an_io_error(self, tmp_path, monkeypatch, capsys, argv):
        write_instance(tmp_path, "quarter.json", instance_dict(equatorial_state(np.pi / 2), pauli_x(), pauli_z()))
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main([arg.format(dir=tmp_path) for arg in argv]) == 1
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"

    def test_solver_failure_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        # a validated observable that the eigensolver fails on: exit 4, not a traceback
        path = write_instance(tmp_path, "quarter.json", instance_dict(equatorial_state(np.pi / 2), pauli_x(), pauli_z()))

        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        assert main(["montecarlo", "--file", path, "--samples", "100"]) == 4
        assert capsys.readouterr() == ("", "error: eigensolver failed to converge: Eigenvalues did not converge\n")

    @pytest.mark.parametrize(
        "argv,code,message",
        [
            (["bounds", "{dir}/absent.json"], 1, "cannot read {dir}/absent.json: [Errno 2]"),
            (["bounds", "{dir}/bad.json"], 2, "malformed JSON in {dir}/bad.json: "),
            (["bounds", "{dir}/dim1.json"], 2, "invalid instance {dir}/dim1.json: dimension 1 outside supported range [2, 64]"),
            (["bounds", "{dir}/parallel.json"], 2, "invalid instance {dir}/parallel.json: |<state|xi_perp>| = "),
            (["sweep", "--out", "{dir}/nodir/x.csv"], 1, "cannot write {dir}/nodir/x.csv: [Errno 2]"),
            (["random", "--dims", "2,x"], 2, "--dims must be a comma-separated integer list, got '2,x'"),
            (["random", "--dims", "2,65"], 2, "dimension 65 outside supported range [2, 64]"),
            (["random", "--count", "0"], 2, "count must be at least 1, got 0"),
            (["random", "--seed", "-1"], 2, "seed must be at least 0, got -1"),
            (["montecarlo", "--file", "{dir}/absent.json"], 1, "cannot read {dir}/absent.json: [Errno 2]"),
            (["montecarlo", "--file", "{dir}/bad.json"], 2, "malformed JSON in {dir}/bad.json: "),
            (["montecarlo", "--file", "{dir}/dim1.json"], 2, "invalid instance {dir}/dim1.json: dimension 1 outside"),
            (["montecarlo", "--file", "{dir}/quarter.json", "--seed", "-1"], 2, "seed must be at least 0, got -1"),
            # the one supported range, [2, 64], for instance files and suite dimensions alike
            (["bounds", "{dir}/dim0.json"], 2, "invalid instance {dir}/dim0.json: dimension 0 outside supported range [2, 64]"),
            (["bounds", "{dir}/dim65.json"], 2, "invalid instance {dir}/dim65.json: dimension 65 outside supported range [2, 64]"),
            (["montecarlo", "--file", "{dir}/dim65.json"], 2, "invalid instance {dir}/dim65.json: dimension 65 outside"),
            (["random", "--dims", "2,1"], 2, "dimension 1 outside supported range [2, 64]"),
            (["random", "--dims", "0"], 2, "dimension 0 outside supported range [2, 64]"),
            # the one integer rule, for an instance file's dim and an option's lower bound alike
            (["bounds", "{dir}/dim_str.json"], 2, "invalid instance {dir}/dim_str.json: dim must be an integer, got '2'"),
            (["sweep", "--points", "1", "--out", "{dir}/x.csv"], 2, "points must be at least 2, got 1"),
        ],
    )
    def test_one_error_line(self, tmp_path, capsys, argv, code, message):
        payload = instance_dict(equatorial_state(np.pi / 2), pauli_x(), pauli_z())
        write_instance(tmp_path, "quarter.json", payload)
        write_instance(tmp_path, "dim1.json", {**payload, "dim": 1})
        write_instance(tmp_path, "dim0.json", {**payload, "dim": 0})
        write_instance(tmp_path, "dim_str.json", {**payload, "dim": "2"})
        # well formed at d = 65: |0> and A = B = I
        eye = [[[float(i == j), 0.0] for j in range(65)] for i in range(65)]
        write_instance(tmp_path, "dim65.json", {"dim": 65, "state": eye[0], "A": eye, "B": eye})
        write_instance(tmp_path, "parallel.json", instance_dict(basis_state(2, 0), pauli_z(), pauli_x(), basis_state(2, 0)))
        (tmp_path / "bad.json").write_text("{not json")
        assert main([arg.format(dir=tmp_path) for arg in argv]) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: " + message.format(dir=tmp_path)), err


class TestHugeIntegerLiterals:
    """Integer literals beyond the double range (400 digits) or the interpreter's
    integer-parsing digit limit (5000 digits) are validation errors, not crashes."""

    @pytest.mark.parametrize("digits", [400, 5000])
    @pytest.mark.parametrize("command", ["bounds", "montecarlo"])
    def test_exit_two_with_one_error_line(self, tmp_path, command, digits):
        payload = instance_dict(basis_state(2, 0), pauli_z(), pauli_x())
        payload["A"][0][0] = ["HUGE", 0.0]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(payload).replace('"HUGE"', "9" * digits))
        argv = [str(path)] if command == "bounds" else ["--file", str(path), "--samples", "100"]
        proc = subprocess.run(
            [sys.executable, "-m", "purbounds", command, *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env=SUBPROCESS_ENV,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in proc.stderr



class TestOperandScale:
    """A d = 4 pair scaled by 1e80 passes Observable's entry limit, but its
    variance product overflows: a validation error, not a traceback."""

    @pytest.mark.parametrize("command", ["bounds", "montecarlo"])
    def test_exit_two_with_one_error_line(self, tmp_path, command):
        state = random_state(4, 1)
        a = Observable(1e80 * random_observable(4, 2).matrix)
        b = Observable(1e80 * random_observable(4, 3).matrix)
        path = write_instance(tmp_path, "scaled.json", instance_dict(state, a, b))
        argv = [path] if command == "bounds" else ["--file", path, "--samples", "100"]
        proc = subprocess.run(
            [sys.executable, "-m", "purbounds", command, *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env=SUBPROCESS_ENV,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "operand scale too large" in lines[0]


class TestColdImports:
    """A cold `python -m purbounds` process imports only the modules its subcommand runs."""

    @pytest.mark.parametrize(
        "argv,loaded,not_loaded",
        [
            (["bounds", "quarter.json"], {"purbounds.instances"}, {"purbounds.verify", "purbounds.montecarlo"}),
            (["sweep", "--points", "5", "--out", "sweep.csv"], set(),
             {"purbounds.verify", "purbounds.montecarlo", "purbounds.instances", "json"}),
            (["random", "--count", "2"], {"purbounds.verify"}, {"purbounds.montecarlo"}),
            (["montecarlo", "--file", "quarter.json", "--samples", "100"], {"purbounds.montecarlo"}, {"purbounds.verify"}),
        ],
        ids=["bounds", "sweep", "random", "montecarlo"],
    )
    def test_subcommand_loads_only_its_modules(self, tmp_path, argv, loaded, not_loaded):
        write_instance(tmp_path, "quarter.json", instance_dict(equatorial_state(np.pi / 2), pauli_x(), pauli_z()))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "purbounds", *argv],
            cwd=tmp_path, capture_output=True, text=True, timeout=60, env=SUBPROCESS_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        # each line of the import log ends with the module it imported
        imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
        assert {"purbounds.bounds", "purbounds.cli", *loaded} <= imported
        assert imported & not_loaded == set()


class TestUsage:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_option_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["random", "--perp-samples", "5"])
        assert err.value.code == 2
