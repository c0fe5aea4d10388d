import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from superdense import bases, cli, randlab, serialize
from superdense import numkit as nk
from superdense import protocol as pr
from superdense import rigidity as rg
from superdense.cli import main


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def matrix_json(m):
    """A matrix in the file format's list form: rows of [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


class TestRoundTrip:
    def test_basis_exact(self, tmp_path):
        b = bases.clock_shift_basis(4)
        path = str(tmp_path / "b.json")
        serialize.save_basis(b, path)
        loaded = serialize.load_basis(path)
        assert loaded.d == 4 and loaded.labels == b.labels
        for a, c in zip(loaded.elements, b.elements):
            assert np.array_equal(a, c)

    def test_protocol_exact(self, tmp_path):
        p, _ = pr.random_scrambled_bw(np.random.default_rng(1), 2, 2, 2)
        path = str(tmp_path / "p.json")
        serialize.save_protocol(p, path)
        loaded = serialize.load_protocol(path)
        assert loaded.dims == p.dims
        assert np.array_equal(loaded.tau, p.tau)
        for a, c in zip(loaded.encoders, p.encoders):
            assert np.array_equal(a, c)

    def test_decomposition_exact(self, tmp_path):
        _, dec = pr.random_scrambled_bw(np.random.default_rng(2), 3, 2, 2)
        path = str(tmp_path / "dec.json")
        serialize.save_decomposition(dec, path)
        loaded = serialize.load_decomposition(path)
        assert np.array_equal(loaded.v, dec.v)
        assert np.array_equal(loaded.w, dec.w)
        assert np.array_equal(loaded.rho, dec.rho)
        for (p1, s1, g1), (p2, s2, g2) in zip(loaded.blocks, dec.blocks):
            assert np.array_equal(p1, p2) and np.array_equal(s1, s2) and g1 == g2

    def test_eigenvalue_csv(self, tmp_path):
        path = str(tmp_path / "esd.csv")
        vals = [2.5, 1.0, 0.5, 0.0]
        serialize.save_eigenvalues_csv(vals, path)
        text = read(path).decode()
        assert text.splitlines()[0] == "eigenvalue"
        assert len(text.splitlines()) == 5
        assert serialize.load_eigenvalues_csv(path) == vals

    def test_malformed_inputs(self, tmp_path):
        trunc = tmp_path / "trunc.json"
        trunc.write_text('{"d": 2, "elements": [[[')
        with pytest.raises(serialize.SerializationError):
            serialize.load_basis(str(trunc))
        missing = tmp_path / "missing.json"
        missing.write_text('{"elements": []}')
        with pytest.raises(serialize.SerializationError) as err:
            serialize.load_basis(str(missing))
        assert "d" in str(err.value)
        _, dec = pr.random_scrambled_bw(np.random.default_rng(2), 2, 2, 1)
        for field in ("c", "blocks"):
            path = str(tmp_path / f"bad-{field}.json")
            serialize.save_decomposition(dec, path)
            doc = json.loads(read(path))
            doc[field] = 5
            (tmp_path / f"bad-{field}.json").write_text(json.dumps(doc))
            with pytest.raises(serialize.SerializationError, match=f"'{field}'"):
                serialize.load_decomposition(path)


    @pytest.mark.parametrize("data", [
        [[[1.0, 0.0, 2.0], [1.0]]],  # pairs of 3 and 1 entries: as many numbers as two pairs
        [[[1, 0], [1, 0]], [[1, 0]], [[1, 0], [1, 0], [1, 0]]],  # ragged: six pairs in three rows
        [[[1.0, 0.0]], [[1.0]]],
        [], [[]], {"rows": 1}, [[5]], [["ab"]],
        [[[1e400, 0.0]]], [[[10**400, 0.0]]],
    ])
    def test_malformed_matrix_is_rejected(self, data):
        with pytest.raises(serialize.SerializationError, match="'m'"):
            serialize.matrix_from_json(data, "x.json", "m")


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert main(["nosuch"]) == 2

    def test_unknown_flag(self):
        assert main(["basis", "build", "--bogus"]) == 2

    def test_check_pass_and_fail(self, tmp_path, capsys):
        path = str(tmp_path / "b.json")
        assert main(["basis", "build", "--kind", "clock-shift", "--d", "3", "-o", path]) == 0
        assert main(["basis", "check", path]) == 0
        doc = json.loads((tmp_path / "b.json").read_text())
        doc["elements"][1] = doc["elements"][0]
        (tmp_path / "dup.json").write_text(json.dumps(doc))
        assert main(["basis", "check", str(tmp_path / "dup.json")]) == 1

    def test_truncated_json_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"d": 2')
        assert main(["basis", "check", str(bad)]) == 2

    def test_certify_invalid_basis_is_verification_failure(self, tmp_path, capsys):
        path = str(tmp_path / "b.json")
        assert main(["basis", "build", "--kind", "clock-shift", "--d", "3", "-o", path]) == 0
        doc = json.loads((tmp_path / "b.json").read_text())
        doc["elements"][1] = doc["elements"][0]
        (tmp_path / "dup.json").write_text(json.dumps(doc))
        assert main(["basis", "certify", str(tmp_path / "dup.json")]) == 1
        assert "valid orthogonal unitary basis" in capsys.readouterr().err

    def test_certify_tol_beyond_clock_spacing_is_usage_error(self, tmp_path, capsys):
        # at --tol 1 the distinct-count threshold 10 exceeds the spacing of
        # the clock's eigenvalues, so clock/shift would certify against itself
        path, out = str(tmp_path / "cs4.json"), tmp_path / "out.json"
        assert main(["basis", "build", "--kind", "clock-shift", "--d", "4", "-o", path]) == 0
        assert main(["basis", "certify", path, "--tol", "1", "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: tol = 1.0 is too large for d = 4")

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "x.json")
        assert main(["random", "run", "--d", "2", "--trials", "1", "-o", out]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "x.json" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("flag", ["-o", "--esd-csv"])
    def test_missing_output_directory_fails_before_first_trial(
        self, flag, tmp_path, capsys, monkeypatch
    ):
        def no_run(*args, **kwargs):
            pytest.fail("the experiment ran although its output cannot be written")

        monkeypatch.setattr(randlab, "distinguishability_experiment", no_run)
        out = str(tmp_path / "missing" / "x.out")
        assert main(["random", "run", "--d", "2", "--trials", "1", flag, out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "x.out" in captured.err
        # an output that is a directory fails there too, with the message open() gives
        assert main(["random", "run", "--d", "2", "--trials", "1", flag, str(tmp_path)]) == 2
        assert capsys.readouterr() == (
            "", f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(tmp_path)!r}\n"
        )

    def test_directory_input_is_usage_error(self, tmp_path, capsys):
        assert main(["basis", "certify", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and str(tmp_path) in captured.err

    def test_certify_dimension_one_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "d1.json"
        path.write_text('{"d": 1, "elements": [[[[1.0, 0.0]]]]}')
        assert main(["basis", "check", str(path)]) == 0
        capsys.readouterr()
        assert main(["basis", "certify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "d >= 2" in captured.err

    @pytest.mark.parametrize("command", ["check", "certify"])
    def test_element_shape_is_usage_error(self, command, tmp_path, capsys):
        eye3 = [[[1.0 if r == c else 0.0, 0.0] for c in range(3)] for r in range(3)]
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"d": 2, "elements": [eye3] * 4}))
        assert main(["basis", command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "elements[0]" in err and "broadcast" not in err

    def test_boolean_dimension_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        path.write_text('{"d": true, "elements": [[[[1.0, 0.0]]]]}')
        assert main(["basis", "certify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'d'" in err

    @pytest.mark.parametrize("key", ["dim_a_prime", "dim_a_dbl", "dim_b"])
    def test_boolean_protocol_dimension_is_usage_error(self, key, tmp_path, capsys):
        path = str(tmp_path / "p.json")
        serialize.save_protocol(pr.bennett_wiesner(), path)
        assert main(["protocol", "verify", path]) == 0
        doc = json.loads(read(path))
        doc[key] = True
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["protocol", "verify", str(tmp_path / "bad.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{key}'" in err

    @pytest.mark.parametrize("command", ["check", "certify"])
    @pytest.mark.parametrize(
        "field, value",
        [("elements", 5), ("labels", 5), ("labels", "abcd"), ("labels", ["a", "b"]),
         ("labels", [])],
    )
    def test_basis_list_field_is_usage_error(self, command, field, value, tmp_path, capsys):
        path = tmp_path / "b.json"
        serialize.save_basis(bases.clock_shift_basis(2), str(path))
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        assert main(["basis", command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{field}'" in err

    @pytest.mark.parametrize("command", ["verify", "canonicalize"])
    def test_encoder_shape_is_usage_error(self, command, tmp_path, capsys):
        path = tmp_path / "p.json"
        serialize.save_protocol(pr.bennett_wiesner(), str(path))
        doc = json.loads(path.read_text())
        doc["encoders"][2] = matrix_json(np.eye(3))
        path.write_text(json.dumps(doc))
        assert main(["protocol", command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'encoders[2]'" in err and "same shape" not in err

    @pytest.mark.parametrize("command", ["verify", "canonicalize"])
    def test_non_unitary_encoder_is_usage_error(self, command, tmp_path, capsys):
        # a (2,2,4) scramble whose encoder 1 is doubled, so no longer unitary
        p, _ = pr.random_scrambled_bw(np.random.default_rng(3), 2, 2, 1)
        encoders = list(p.encoders)
        encoders[1] = 2 * encoders[1]
        path = tmp_path / "p.json"
        serialize.save_protocol(pr.Protocol(2, 2, p.dim_b, p.tau, tuple(encoders)), str(path))
        assert main(["protocol", command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "'encoders[1]'" in captured.err

    @pytest.mark.parametrize("command", ["verify", "canonicalize"])
    def test_encoders_not_a_list_is_usage_error(self, command, tmp_path, capsys):
        path = tmp_path / "p.json"
        serialize.save_protocol(pr.bennett_wiesner(), str(path))
        doc = json.loads(path.read_text())
        doc["encoders"] = 5
        path.write_text(json.dumps(doc))
        assert main(["protocol", command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'encoders'" in err

    @pytest.mark.parametrize("command", ["verify", "canonicalize"])
    def test_zero_tau_is_usage_error(self, command, tmp_path, capsys):
        path = tmp_path / "p.json"
        serialize.save_protocol(pr.bennett_wiesner(), str(path))
        doc = json.loads(path.read_text())
        doc["tau"] = matrix_json(np.zeros((4, 4)))
        path.write_text(json.dumps(doc))
        out = tmp_path / "dec.json"
        assert main(["protocol", command, str(path), "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error:") and "'tau'" in captured.err

    def test_canonicalize_non_qubit_is_usage_error(self, tmp_path, capsys):
        path = str(tmp_path / "p.json")
        serialize.save_protocol(pr.canonical_protocol(bases.clock_shift_basis(3)), path)
        assert main(["protocol", "canonicalize", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "d = 2" in err

    def test_canonicalize_unverified_result_fails(self, tmp_path, capsys):
        # 1e-9 encoder noise on the (3,3,2) scramble [5, 9]: every stage
        # passes, but the result misses tol 1e-8 by a factor of four
        p, _ = pr.random_scrambled_bw(np.random.default_rng([5, 9]), 3, 3, 2)
        rng = np.random.default_rng([6, 9])
        encoders = tuple(
            nk.polar_decomposition(u + 1e-9 * (rng.standard_normal(u.shape)
                                               + 1j * rng.standard_normal(u.shape)))[1]
            for u in p.encoders
        )
        path = str(tmp_path / "p.json")
        serialize.save_protocol(pr.Protocol(3, 2, p.dim_b, p.tau, encoders), path)
        out = tmp_path / "dec.json"
        assert main(["protocol", "canonicalize", path, "--tol", "1e-8", "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: canonicalization failed: ")
        assert "'verify'" in captured.err

    @pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
    def test_werner3_non_finite_angle_is_usage_error(self, angle, tmp_path, capsys):
        out = tmp_path / "b.json"
        assert main(["basis", "build", "--kind", "werner3", f"--beta-angle={angle}",
                     "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert f"error: argument --beta-angle: angle must be finite, got '{angle}'" in captured.err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("command", [["basis", "check"], ["basis", "certify"],
                                         ["protocol", "verify"], ["protocol", "canonicalize"]],
                             ids=" ".join)
    def test_tol_must_be_finite_and_positive(self, command, tol, tmp_path, capsys):
        path = tmp_path / "in.json"
        if command[0] == "basis":
            serialize.save_basis(bases.clock_shift_basis(3), str(path))
        else:
            serialize.save_protocol(pr.random_scrambled_bw(np.random.default_rng(2), 2, 2, 1)[0],
                                    str(path))
        out = tmp_path / "out.json"
        assert main([*command, str(path), "--tol", tol, "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "error: argument --tol: tolerance must be finite and positive" in captured.err

    @pytest.mark.parametrize("r", ["0", "-1"])
    def test_mp_nonpositive_ratio_is_usage_error(self, r, capsys):
        assert main(["random", "mp", "--r", r]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite and positive" in err

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_mp_nonpositive_points_is_usage_error(self, points, tmp_path, capsys):
        out = tmp_path / "mp.csv"
        assert main(["random", "mp", f"--points={points}", "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert f"error: argument --points: must be a positive integer, got '{points}'" in captured.err

    def test_random_run_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert main(["random", "run", "--d", "2", "--trials", "1", "--seed", "-1",
                     "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error:") and "seed" in captured.err

    @pytest.mark.parametrize("command", [["basis", "certify"], ["protocol", "verify"]])
    def test_deeply_nested_json_is_usage_error(self, command, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        assert main([*command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: field '<document>': JSON nested too deeply to read\n"

    @pytest.mark.parametrize("command", [["basis", "check"], ["protocol", "canonicalize"],
                                         ["random", "mp", "--esd-csv"]])
    def test_non_utf8_input_is_usage_error(self, command, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes("eigenvalue\n0.5\n# \u00e9\n".encode("latin-1"))
        assert main([*command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: field '<document>': not UTF-8 text: ")

    @pytest.mark.parametrize("row", ["nan", "inf", "-inf"])
    def test_non_finite_esd_csv_is_usage_error(self, row, tmp_path, capsys):
        csv = tmp_path / "esd.csv"
        csv.write_text(f"eigenvalue\n0.5\n{row}\n1.5\n")
        assert main(["random", "mp", "--esd-csv", str(csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "'rows'" in captured.err

    @pytest.mark.parametrize("text, field", [("value\n0.5\n", "header"),
                                             ("eigenvalue\n0.5\nabc\n", "rows")])
    def test_malformed_esd_csv_is_usage_error(self, text, field, tmp_path, capsys):
        csv = tmp_path / "esd.csv"
        csv.write_text(text)
        assert main(["random", "mp", "--esd-csv", str(csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and f"'{field}'" in captured.err

    @pytest.mark.parametrize("command", ["check", "certify"])
    def test_basis_element_count_is_usage_error(self, command, tmp_path, capsys):
        path = tmp_path / "b.json"
        serialize.save_basis(bases.clock_shift_basis(2), str(path))
        doc = json.loads(path.read_text())
        del doc["elements"][-1]
        path.write_text(json.dumps(doc))
        assert main(["basis", command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "'elements'" in captured.err
        assert "need 4 elements for dimension 2, got 3" in captured.err

    @pytest.mark.parametrize("entry", [[float("nan"), 0.0], [0.0, float("inf")],
                                       [float("-inf"), 0.0], [True, False], ["1", "0"]])
    def test_non_number_basis_entry_is_usage_error(self, entry, tmp_path, capsys):
        path = tmp_path / "b.json"
        serialize.save_basis(bases.clock_shift_basis(3), str(path))
        doc = json.loads(read(path))
        doc["elements"][2][1][1] = entry
        path.write_text(json.dumps(doc))  # writes NaN and Infinity, as Python's json allows
        assert main(["basis", "check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "'elements[2]'" in captured.err

    @pytest.mark.parametrize("entry", [[float("nan"), 0.0], [False, False]])
    def test_non_number_tau_entry_is_usage_error(self, entry, tmp_path, capsys):
        path = tmp_path / "p.json"
        serialize.save_protocol(pr.bennett_wiesner(), str(path))
        doc = json.loads(read(path))
        doc["tau"][0][1] = entry  # a zero entry: read as 0, [False, False] would pass
        path.write_text(json.dumps(doc))
        assert main(["protocol", "verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'tau'" in err

    def test_boolean_block_sign_is_rejected(self, tmp_path):
        _, dec = pr.random_scrambled_bw(np.random.default_rng(2), 2, 2, 1)
        path = tmp_path / "dec.json"
        serialize.save_decomposition(dec, str(path))
        doc = json.loads(read(path))
        doc["blocks"][0]["sign"] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(serialize.SerializationError, match=r"'blocks\[0\]\.sign'"):
            serialize.load_decomposition(str(path))

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 14.6 TiB for an array"), "Unable to allocate 14.6 TiB"),
        (MemoryError(), "out of memory"),
    ])
    def test_allocation_failure_is_usage_error(self, exc, message, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(randlab, "distinguishability_experiment", fail)
        out = tmp_path / "stats.json"
        assert main(["random", "run", "--d", "1000", "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith(f"error: {message}") and "Traceback" not in captured.err

    @pytest.mark.parametrize("pgm_limit", ["16", "2"])  # eigh, then the two-stage solver
    def test_wrong_spectrum_is_usage_error(self, pgm_limit, tmp_path, capsys, monkeypatch):
        def perturbed(solver):
            def solve(*args, **kwargs):
                out = solver(*args, **kwargs)
                w = out[0] if isinstance(out, tuple) else out
                w[-1] += 1e-9
                return out
            return solve

        monkeypatch.setattr(np.linalg, "eigh", perturbed(np.linalg.eigh))
        # the two-stage solver as `esd` calls it, in place on the Gram matrix
        monkeypatch.setattr(nk, "_eigvalsh_overwrite", perturbed(nk._eigvalsh_overwrite))
        out = tmp_path / "stats.json"
        assert main(["random", "run", "--d", "3", "--trials", "2", "--pgm-limit", pgm_limit,
                     "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: eigenvalue sum differs from the Gram trace")


def _set_entry(value):
    def edit(element):
        element[1][1] = value
    return edit


def _drop_last_entry(element):
    del element[1][2]


def _crop_to_2x2(element):
    element[:] = [row[:2] for row in element[:2]]


class TestBasisLoaderErrors:
    """`load_basis` reads all elements in one pass and falls back to the
    per-element reader on a bad one; the message is the per-element one."""

    # the detail each message carried before the one-pass reader
    CASES = {
        "bool": (_set_entry([True, False]),
                 "not a valid complex matrix: entries must be JSON numbers"),
        "string": (_set_entry(["1", "0"]),
                   "not a valid complex matrix: entries must be JSON numbers"),
        "nan": (_set_entry([float("nan"), 0.0]),
                "not a valid complex matrix: entries must be finite, not NaN or Infinity"),
        "inf": (_set_entry([0.0, float("inf")]),
                "not a valid complex matrix: entries must be finite, not NaN or Infinity"),
        "-inf": (_set_entry([float("-inf"), 0.0]),
                 "not a valid complex matrix: entries must be finite, not NaN or Infinity"),
        "ragged": (_drop_last_entry, "not a valid complex matrix: ragged rows"),
        "triple": (_set_entry([1.0, 0.0, 0.0]),
                   "not a valid complex matrix: entries must be [re, im] pairs"),
        "single": (_set_entry([1.0]), "not a valid complex matrix: entries must be [re, im] pairs"),
        "shape": (_crop_to_2x2, "shape (2, 2) is not 3x3"),
    }

    @staticmethod
    def write(tmp_path, edits):
        path = tmp_path / "b.json"
        serialize.save_basis(bases.clock_shift_basis(3), str(path))
        doc = json.loads(read(path))
        for k, edit in edits:
            edit(doc["elements"][k])
        path.write_text(json.dumps(doc))  # writes NaN and Infinity, as Python's json allows
        return path

    @pytest.mark.parametrize("command", ["check", "certify"])
    @pytest.mark.parametrize("k", [0, 4, 8])
    @pytest.mark.parametrize("case", list(CASES))
    def test_message_names_the_element(self, case, k, command, tmp_path, capsys):
        edit, detail = self.CASES[case]
        path = self.write(tmp_path, [(k, edit)])
        assert main(["basis", command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: field 'elements[{k}]': {detail}\n"

    def test_matrix_error_is_reported_before_an_earlier_shape_error(self, tmp_path, capsys):
        path = self.write(tmp_path, [(2, _crop_to_2x2), (6, _set_entry([float("nan"), 0.0]))])
        assert main(["basis", "certify", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: field 'elements[6]': "
            "not a valid complex matrix: entries must be finite, not NaN or Infinity\n"
        )

    def test_one_pass_matches_the_per_element_reader(self, tmp_path):
        # integer entries and negative zeros come through as the per-element reader reads them
        path = tmp_path / "b.json"
        b = bases.matching_basis(5)
        serialize.save_basis(b, str(path))
        doc = json.loads(read(path))
        doc["elements"][3][0][0] = [1, 0]
        doc["elements"][7][2][4] = [-0.0, -0.0]
        path.write_text(json.dumps(doc))
        loaded = serialize.load_basis(str(path))
        assert loaded.labels == b.labels
        for k, e in enumerate(doc["elements"]):
            ref = serialize.matrix_from_json(e, str(path), f"elements[{k}]")
            assert ref.tobytes() == loaded.elements[k].tobytes()


class TestMatrixListErrors:
    """`encoders` and `c` are read as `elements` is: in one pass, and one by
    one only to name the first bad matrix, in the per-element message."""

    CASES = {case: TestBasisLoaderErrors.CASES[case]
             for case in ("bool", "string", "nan", "inf", "-inf", "ragged", "triple", "single")}

    @staticmethod
    def write(tmp_path, key, edits):
        # dim A' = 3: each encoder is 6x6 and each correction 3x3
        proto, dec = pr.random_scrambled_bw(np.random.default_rng(5), 3, 2, 2)
        path = tmp_path / f"{key}.json"
        if key == "encoders":
            serialize.save_protocol(proto, str(path))
        else:
            serialize.save_decomposition(dec, str(path))
        doc = json.loads(read(path))
        for k, edit in edits:
            edit(doc[key][k])
        path.write_text(json.dumps(doc))  # writes NaN and Infinity, as Python's json allows
        return path

    @pytest.mark.parametrize("command", ["verify", "canonicalize"])
    @pytest.mark.parametrize("k", [0, 3])
    @pytest.mark.parametrize("case", list(CASES))
    def test_message_names_the_encoder(self, case, k, command, tmp_path, capsys):
        edit, detail = self.CASES[case]
        path = self.write(tmp_path, "encoders", [(k, edit)])
        assert main(["protocol", command, str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: field 'encoders[{k}]': {detail}\n")

    @pytest.mark.parametrize("k", [0, 3])
    @pytest.mark.parametrize("case", list(CASES))
    def test_message_names_the_correction(self, case, k, tmp_path):
        edit, detail = self.CASES[case]
        path = self.write(tmp_path, "c", [(k, edit)])
        with pytest.raises(serialize.SerializationError) as info:
            serialize.load_decomposition(str(path))
        assert str(info.value) == f"{path}: field 'c[{k}]': {detail}"

    def test_row_counts_that_fill_a_stack_are_read_one_by_one(self, tmp_path, capsys):
        # encoders of 6, 5, 7 and 6 rows hold as many rows as four 6x6 matrices
        path = tmp_path / "p.json"
        serialize.save_protocol(pr.random_scrambled_bw(np.random.default_rng(5), 3, 2, 2)[0],
                                str(path))
        doc = json.loads(read(path))
        doc["encoders"][2].append(doc["encoders"][1].pop())
        path.write_text(json.dumps(doc))
        assert main(["protocol", "verify", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {path}: field 'encoders[1]': shape (5, 6) is not 6x6\n"
        )

    def test_entry_error_is_reported_before_an_earlier_shape_error(self, tmp_path, capsys):
        path = self.write(tmp_path, "encoders",
                          [(1, _crop_to_2x2), (3, _set_entry([float("nan"), 0.0]))])
        assert main(["protocol", "verify", str(path)]) == 2
        assert capsys.readouterr() == ("", (
            f"error: {path}: field 'encoders[3]': "
            "not a valid complex matrix: entries must be finite, not NaN or Infinity\n"
        ))


class TestParserReuse:
    def test_calls_in_one_process_share_no_state(self, tmp_path, capsys):
        proto, out = str(tmp_path / "p.json"), tmp_path / "dec.json"
        serialize.save_protocol(pr.random_scrambled_bw(np.random.default_rng(4), 2, 2, 1)[0], proto)
        assert cli._parser() is cli._parser() is not cli.build_parser()
        assert main(["protocol", "canonicalize"]) == 2
        assert main(["--help"]) == 0
        assert main(["protocol", "canonicalize", proto, "-o", str(out)]) == 0
        out.unlink()
        capsys.readouterr()
        assert main(["protocol", "canonicalize", proto]) == 0
        assert not out.exists()
        src = str(Path(randlab.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        fresh = subprocess.run([sys.executable, "-m", "superdense.cli", "protocol", "canonicalize",
                                proto], env=env, capture_output=True, text=True, timeout=120)
        assert fresh.returncode == 0
        assert capsys.readouterr().out == fresh.stdout


class TestReportKeys:
    def test_exact_key_lists(self, tmp_path, capsys):
        basis, proto = str(tmp_path / "b.json"), str(tmp_path / "p.json")
        assert main(["basis", "build", "--kind", "clock-shift", "--d", "2", "-o", basis]) == 0
        assert main(["protocol", "scramble", "-o", proto]) == 0
        expected = [
            (["basis", "check", basis],
             ["passed", "element_count_ok", "max_unitarity_violation",
              "max_orthogonality_violation", "tol"]),
            (["protocol", "verify", proto],
             ["passed", "max_state_overlap", "worst_pair", "max_operator_violation", "tol"]),
            (["protocol", "canonicalize", proto],
             ["passed", "state_residual", "encoder_residuals", "tol"]),
            (["random", "run", "--d", "2", "--trials", "1"],
             ["d", "trials", "seed", "hc", "pgm", "max_eig", "hc_mean", "hc_std",
              "max_eig_mean", "ks_distance", "limit_8_over_3pi"]),
        ]
        capsys.readouterr()
        for argv, keys in expected:
            assert main(argv) == 0
            assert list(json.loads(capsys.readouterr().out)) == keys, argv


class TestDeterminism:
    def test_basis_build_bytes(self, tmp_path):
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for path in (p1, p2):
            assert main(["basis", "build", "--kind", "matching", "--d", "5", "-o", path]) == 0
        assert read(p1) == read(p2)

    def test_scramble_bytes(self, tmp_path):
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for path in (p1, p2):
            assert (
                main(
                    ["protocol", "scramble", "--seed", "9", "--dim-a-prime", "2",
                     "--dim-b-prime", "2", "--blocks", "2", "-o", path]
                )
                == 0
            )
        assert read(p1) == read(p2)

    def test_random_run_bytes(self, tmp_path):
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for path in (p1, p2):
            assert (
                main(["random", "run", "--d", "3", "--trials", "2", "--seed", "4", "-o", path])
                == 0
            )
        assert read(p1) == read(p2)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    def test_random_run_bytes_with_and_without_pool(self, tmp_path):
        # one BLAS thread: trials run concurrently on every CPU this process may
        # use, and serially when pinned to one
        src = str(Path(randlab.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        one_cpu = min(os.sched_getaffinity(0))
        outputs = []
        for pin in (None, lambda: os.sched_setaffinity(0, {one_cpu})):
            csv = tmp_path / f"esd-{len(outputs)}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "superdense.cli", "random", "run", "--d", "8",
                 "--trials", "6", "--seed", "3", "--esd-csv", str(csv)],
                env=env, preexec_fn=pin, capture_output=True, timeout=120, check=True,
            )
            outputs.append((proc.stdout, read(csv)))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("tol,code", [("1e-9", 1), ("1e-8", 0)])
    def test_check_report_bytes_near_unitary(self, tol, code, tmp_path, capsys):
        # one Pauli-tensor element scaled by 1 + 2^-30: every product is exact,
        # so the violations are 2^-29 (unitarity) and 2^-27 (orthogonality)
        b = bases.pauli_tensor_basis(4)
        elements = list(b.elements)
        elements[5] = elements[5] * (1 + 2.0**-30)
        path = str(tmp_path / "b.json")
        serialize.save_basis(bases.UnitaryBasis(d=4, elements=tuple(elements)), path)
        assert main(["basis", "check", path, "--tol", tol]) == code
        assert capsys.readouterr().out == (
            "{\n"
            f' "passed": {"true" if code == 0 else "false"},\n'
            ' "element_count_ok": true,\n'
            ' "max_unitarity_violation": 1.862645149230957e-09,\n'
            ' "max_orthogonality_violation": 7.450580596923828e-09,\n'
            f' "tol": {float(tol)!r}\n'
            "}\n"
        )

    def test_canonicalize_bytes(self, tmp_path, capsys):
        proto = str(tmp_path / "p.json")
        serialize.save_protocol(
            pr.random_scrambled_bw(np.random.default_rng(13), 3, 2, 2)[0], proto
        )
        outputs = []
        for name in ("a.json", "b.json"):
            path = str(tmp_path / name)
            assert main(["protocol", "canonicalize", proto, "-o", path]) == 0
            outputs.append((capsys.readouterr().out, read(path)))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][0])["passed"]


class TestImportPath:
    def test_cli_flows_load_no_scipy(self, tmp_path):
        # every BLAS and LAPACK routine comes from numpy's OpenBLAS, so the
        # three CLI flows run without any scipy module in the process
        if nk._zherk() is None or nk._zgees() is None:
            pytest.skip("this numpy build vendors no scipy-openblas64")
        script = """
import sys
from superdense.cli import main
assert main(["basis", "build", "--kind", "matching", "--d", "5", "-o", "m5.json"]) == 0
assert main(["basis", "certify", "m5.json"]) == 0
assert main(["random", "run", "--d", "4", "--trials", "2"]) == 0
assert main(["protocol", "scramble", "--seed", "7", "--dim-a-prime", "3", "--dim-b-prime", "2",
             "--blocks", "2", "-o", "p.json", "--planted", "plant.json"]) == 0
assert main(["protocol", "canonicalize", "p.json", "-o", "dec.json"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")), file=sys.stderr)
"""
        src = str(Path(randlab.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "[]"


class TestFlows:
    def test_basis_kinds(self, tmp_path, capsys):
        for kind, d in (("clock-shift", 4), ("pauli-tensor", 4), ("matching", 6), ("werner3", 3)):
            path = str(tmp_path / f"{kind}.json")
            assert main(["basis", "build", "--kind", kind, "--d", str(d), "-o", path]) == 0
            assert main(["basis", "check", path]) == 0

    def test_certify_output(self, tmp_path, capsys):
        path = str(tmp_path / "m5.json")
        main(["basis", "build", "--kind", "matching", "--d", "5", "-o", path])
        assert main(["basis", "certify", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        kinds = {c["kind"] for c in doc["certificates"]}
        assert "eigenvalue-ratio" in kinds

    def test_scramble_verify_canonicalize(self, tmp_path, capsys):
        proto = str(tmp_path / "p.json")
        planted = str(tmp_path / "plant.json")
        dec = str(tmp_path / "dec.json")
        assert (
            main(
                ["protocol", "scramble", "--seed", "11", "--dim-a-prime", "3",
                 "--dim-b-prime", "2", "--blocks", "2", "-o", proto, "--planted", planted]
            )
            == 0
        )
        assert main(["protocol", "verify", proto]) == 0
        capsys.readouterr()
        assert main(["protocol", "canonicalize", proto, "-o", dec]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] and out["state_residual"] < 1e-8
        # the written decomposition verifies against the written protocol
        p = serialize.load_protocol(proto)
        d = serialize.load_decomposition(dec)
        assert rg.verify_decomposition(p, d, 1e-7).passed

    def test_random_run_with_csv(self, tmp_path, capsys):
        csv = str(tmp_path / "esd.csv")
        out = str(tmp_path / "stats.json")
        assert (
            main(
                ["random", "run", "--d", "2", "--trials", "2", "--seed", "0",
                 "--esd-csv", csv, "-o", out]
            )
            == 0
        )
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["trials"] == 2 and len(stats["hc"]) == 2
        rows = (tmp_path / "esd.csv").read_text().splitlines()
        assert rows[0] == "eigenvalue" and len(rows) == 5  # d=2 -> 4 eigenvalues

    def test_random_run_csv_is_trial_zero(self, tmp_path, capsys):
        csv, ref = str(tmp_path / "esd.csv"), str(tmp_path / "ref.csv")
        assert main(["random", "run", "--d", "8", "--trials", "3", "--seed", "11",
                     "--esd-csv", csv]) == 0
        ens = randlab.random_protocol_ensemble(8, np.random.default_rng([11, 0]))
        spectrum, _ = randlab.spectrum_and_pgm(ens.kets())  # d=8 <= pgm limit
        serialize.save_eigenvalues_csv(spectrum, ref)
        assert read(csv) == read(ref)

    def test_random_mp_table_and_ks(self, tmp_path, capsys):
        table = str(tmp_path / "mp.csv")
        assert main(["random", "mp", "--points", "11", "-o", table]) == 0
        rows = (tmp_path / "mp.csv").read_text().splitlines()
        assert rows[0] == "x,density,cdf" and len(rows) == 12
        csv = str(tmp_path / "esd.csv")
        serialize.save_eigenvalues_csv([0.5, 1.0, 1.5, 2.5], csv)
        assert main(["random", "mp", "--esd-csv", csv]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0 <= doc["ks_distance"] <= 1
