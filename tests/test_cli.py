import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from obsmask import __version__, algebra, bloch, fileio, masking, samplers
from obsmask.cli import main
from obsmask.errors import ParseError
from obsmask.invariants import REGISTRY

S3 = np.array([[1, 0], [0, -1]], dtype=complex)

SZ_COEFFS = "coeffs 2 0 0 0 1\n"
SZ_MATRIX = "matrix 2 2\n1,0 0,0\n0,0 -1,0\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestParsing:
    def test_matrix_document(self):
        kind, value = fileio.parse_document(SZ_MATRIX)
        assert kind == "matrix"
        assert np.allclose(value, S3)

    def test_coeffs_document(self):
        value = fileio.parse_as(SZ_COEFFS, "matrix", "coeffs")
        assert isinstance(value, bloch.ObservableCoeffs)
        assert value.dimension == 2
        assert value.a0 == 0.0
        assert np.allclose(value.a, [0, 0, 1])

    def test_row_with_wrong_entry_count(self):
        with pytest.raises(ParseError):
            fileio.parse_as("matrix 2 2\n1,0 0,0 0,0\n0,0 -1,0\n", "matrix", "coeffs")

    def test_parse_error_reports_position(self):
        with pytest.raises(ParseError) as exc:
            fileio.parse_as("matrix 2 2\n1,0 oops\n0,0 -1,0\n", "matrix", "coeffs")
        assert exc.value.line == 2
        assert exc.value.column == 5

    def test_unknown_header(self):
        with pytest.raises(ParseError):
            fileio.parse_document("weird 2 2\n")

    def test_bloch_document(self):
        kind, b = fileio.parse_document("bloch 2 0.0 0.0 0.5\n")
        assert kind == "bloch" and np.allclose(b.b, [0, 0, 0.5])

    def test_render_matches_per_entry_formatter(self):
        """render_matrix formats from one tolist(); the per-entry formatter
        it replaced, kept here as the reference, gives the same text on
        signed zeros, subnormals, huge values, integers and random
        entries."""
        def entry(z):
            return f"{repr(float(z.real))},{repr(float(z.imag))}"

        def reference(arr):
            rows, cols = arr.shape
            lines = [f"matrix {rows} {cols}"]
            lines.extend(" ".join(entry(arr[i, j]) for j in range(cols)) for i in range(rows))
            return "\n".join(lines) + "\n"

        rng = np.random.default_rng(6)
        special = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0, -7.0, 0.1 + 0.2, 1 / 3])
        tricky = np.empty((2, 5), dtype=complex)
        tricky.real, tricky.imag = special.reshape(2, 5), special[::-1].reshape(2, 5)
        cases = [
            tricky,
            np.arange(-6, 6).reshape(3, 4).astype(complex),
            rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)),
            (rng.normal(size=(4, 4)) * 10.0 ** rng.integers(-300, 300, size=(4, 4))).astype(complex),
        ]
        for arr in cases:
            assert fileio.render_matrix(arr) == reference(arr)

    @pytest.mark.parametrize("kind", ["matrix", "coeffs", "bloch"])
    def test_render_parse_round_trip(self, kind):
        # a matrix renders and parses back; no command writes the other
        # documents, so they are written here by hand, with values whose
        # text needs repr precision, a negative zero and a subnormal, and
        # must parse to those values bit for bit
        rng = np.random.default_rng(1)
        m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        fine = [0.1 + 0.2, 1 / 3, -0.0, 2.0**-1074, -1e300, 1.23456789e-2, np.pi, 7.0]
        text, fields, want = {
            "matrix": (fileio.render_matrix(m), lambda v: v, m),
            "coeffs": (
                "coeffs 2 0.3333333333333333 0.1 -0.7 2.0\n",
                lambda v: (v.dimension, v.a0, *v.a),
                (2, 1 / 3, 0.1, -0.7, 2.0),
            ),
            "bloch": (
                "bloch 3 0.30000000000000004 0.3333333333333333 -0.0 5e-324 "
                "-1e+300 0.0123456789 3.141592653589793 7.0\n",
                lambda v: (v.dimension, *v.b),
                (3, *fine),
            ),
        }[kind]
        got_kind, back = fileio.parse_document(text)
        assert got_kind == kind
        got, want = np.asarray(fields(back)), np.asarray(want)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        if kind == "matrix":
            assert fileio.render_matrix(back) == text

    @pytest.mark.parametrize(
        "text, message, line, column",
        [
            ("matrix 2 2\n1,0 0,0\n0,0\n", "matrix needs 4 entries, found 3", 3, 1),
            ("coeffs 2\n  0.5\n", "coeffs for d=2 needs 4 values, found 1", 2, 3),
            ("bloch 2\n", "bloch for d=2 needs 3 values, found 0", 1, 1),
        ],
        ids=["matrix", "coeffs", "bloch"],
    )
    def test_truncated_document(self, text, message, line, column):
        with pytest.raises(ParseError) as exc:
            fileio.parse_document(text)
        assert str(exc.value) == f"line {line}, column {column}: {message}"
        assert (exc.value.line, exc.value.column) == (line, column)

    @pytest.mark.parametrize(
        "text, message, line, column",
        [
            ("coeffs 2 0\n  nan 0 1\n", "non-finite coefficient 'nan'", 2, 3),
            ("bloch 2 0 inf 0.5\n", "non-finite component 'inf'", 1, 11),
            ("matrix 1 2\n1,0 0,1e400\n", "non-finite entry '0,1e400'", 2, 5),
        ],
        ids=["coeffs-nan", "bloch-inf", "matrix-overflow"],
    )
    def test_non_finite_refused(self, text, message, line, column):
        with pytest.raises(ParseError) as exc:
            fileio.parse_document(text)
        assert str(exc.value) == f"line {line}, column {column}: {message}"

    def test_non_finite_bloch_line_refused(self):
        with pytest.raises(ParseError) as exc:
            fileio.parse_bloch_lines("0 0 0.5\n0.1 NaN 0.2\n", 2)
        assert (exc.value.line, exc.value.column) == (2, 5)

    def test_bloch_lines(self):
        vectors = fileio.parse_bloch_lines("0 0 0.5\n# comment\n0.1 0.2 0.3\n", 2)
        assert len(vectors) == 2
        assert np.allclose(vectors[1], [0.1, 0.2, 0.3])


class TestMaskableCommand:
    def test_golden_sigma3_both(self, tmp_path, capsys):
        obs = tmp_path / "sz.obs"
        obs.write_text(SZ_COEFFS)
        code, out = run_cli(capsys, "maskable", "--observable", str(obs), "--method", "both")
        assert code == 0
        assert "maskable: true" in out
        assert "plane_distance: 0.5" in out
        assert "eig_range: -1 1" in out

    def test_matrix_input_oracle(self, tmp_path, capsys):
        obs = tmp_path / "sz.mat"
        obs.write_text(SZ_MATRIX)
        code, out = run_cli(capsys, "maskable", "--observable", str(obs), "--method", "oracle")
        assert code == 0
        assert "maskable: true" in out

    def test_unmaskable(self, tmp_path, capsys):
        obs = tmp_path / "weak.obs"
        obs.write_text("coeffs 2 0 0.4 0 0\n")
        code, out = run_cli(capsys, "maskable", "--observable", str(obs), "--method", "both")
        assert code == 0
        assert "maskable: false" in out

    def test_parse_error_exit_2(self, tmp_path, capsys):
        obs = tmp_path / "broken.obs"
        obs.write_text("matrix 2 2\n1,0\n")
        code, _ = run_cli(capsys, "maskable", "--observable", str(obs))
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code, _ = run_cli(capsys, "maskable", "--observable", "/nonexistent.obs")
        assert code == 2

    def test_dim_mismatch_exit_2(self, tmp_path, capsys):
        obs = tmp_path / "sz.obs"
        obs.write_text(SZ_COEFFS)
        code, _ = run_cli(capsys, "maskable", "--observable", str(obs), "--dim", "3")
        assert code == 2


class TestMaskCommand:
    def test_golden_sigma3_kraus(self, tmp_path, capsys):
        obs = tmp_path / "sz.obs"
        obs.write_text(SZ_COEFFS)
        out_path = tmp_path / "sz.kraus"
        code, out = run_cli(capsys, "mask", "--observable", str(obs), "--out", str(out_path))
        assert code == 0
        assert "kraus_count: 2" in out
        assert "adjoint_residual: 0" in out
        blocks = out_path.read_text().strip().split("\n\n")
        mats = [fileio.parse_document(b)[1] for b in blocks]
        assert np.allclose(mats[0], [[1, 0], [0, 0]])
        assert np.allclose(mats[1], [[0, 1], [0, 0]])

    def test_unmaskable_writes_nothing(self, tmp_path, capsys):
        obs = tmp_path / "half.obs"
        obs.write_text("coeffs 2 0.5 0 0 0\n")
        out_path = tmp_path / "half.kraus"
        code, out = run_cli(capsys, "mask", "--observable", str(obs), "--out", str(out_path))
        assert code == 0
        assert "maskable: false" in out
        assert not out_path.exists()


    def test_one_eigendecomposition(self, tmp_path, capsys, spy):
        counts = spy(masking, ["eig_hermitian"])
        obs = tmp_path / "sz.obs"
        obs.write_text(SZ_COEFFS)
        out_path = tmp_path / "sz.kraus"
        code, _ = run_cli(capsys, "mask", "--observable", str(obs), "--out", str(out_path))
        assert code == 0
        assert counts == {"eig_hermitian": 1}

    def test_one_eigh(self, tmp_path, capsys, spy):
        counts = spy(algebra, ["_eigh"])
        obs = tmp_path / "d3.mat"
        obs.write_text("matrix 3 3\n3,0 0,0 0,0\n0,0 0.5,0 0,0\n0,0 0,0 -1,0\n")
        out_path = tmp_path / "d3.kraus"
        code, out = run_cli(capsys, "mask", "--observable", str(obs), "--out", str(out_path))
        assert code == 0
        assert "kraus_count: 6" in out
        assert counts == {"_eigh": 1}

    def test_maskable_within_band_is_masked(self, tmp_path, capsys):
        # 1 lies just below the spectrum, inside the decision band
        obs = tmp_path / "band.mat"
        obs.write_text("matrix 2 2\n1.000000001,0 0,0\n0,0 1.0000000025,0\n")
        out_path = tmp_path / "band.kraus"
        code, out = run_cli(capsys, "mask", "--observable", str(obs), "--out", str(out_path))
        assert code == 0
        assert "maskable: true" in out
        assert "kraus_count: 2" in out
        assert out_path.exists()


# mask reports and Kraus-file digests pinned byte for byte; the d = 4
# observable 0.5 I + 1.5 sigma_y (x) sigma_x has the two levels 2 and -1
PINNED_MASKS = {
    "two-level-d4": (
        "matrix 4 4\n0.5,0 0,0 0,0 0,-1.5\n0,0 0.5,0 0,-1.5 0,0\n"
        "0,0 0,1.5 0.5,0 0,0\n0,1.5 0,0 0,0 0.5,0\n",
        "dim: 4\nmaskable: true\neig_range: -1 2\nkraus_count: 16\nadjoint_residual: 0\n",
        "97f0e4b9fd3c8dde9d36b4d301085bae091c20e46edd9ce7a5fbc287b2c6829a",
    ),
    "band": (
        "matrix 2 2\n1.000000001,0 0,0\n0,0 1.0000000025,0\n",
        "dim: 2\nmaskable: true\neig_range: 1.000000001 1.0000000025\n"
        "kraus_count: 2\nadjoint_residual: 1.00000008274e-09\n",
        "10dc91961c1316f3e926a6b6474a21565cbcec7741603795df9c0fc322d0d847",
    ),
}


@pytest.mark.parametrize("name", list(PINNED_MASKS))
def test_pinned_mask(name, tmp_path, capsys):
    text, body, digest = PINNED_MASKS[name]
    obs, out_path = tmp_path / "obs.mat", tmp_path / "obs.kraus"
    obs.write_text(text)
    code, out = run_cli(capsys, "mask", "--observable", str(obs), "--out", str(out_path))
    assert code == 0
    assert out == f"version: {__version__}\ncommand: mask\n{body}out: {out_path}\n"
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


class TestNohideCommand:
    def test_z_axis(self, capsys):
        code, out = run_cli(capsys, "nohide", "--theta", "0", "--phi", "0")
        assert code == 0
        assert "swap_residual: 0" in out
        assert "verified: true" in out

    def test_with_custom_unitaries(self, tmp_path, capsys):
        u_file = tmp_path / "u.mat"
        u_file.write_text("matrix 2 2\n0,0 1,0\n1,0 0,0\n")  # sigma1
        code, out = run_cli(
            capsys, "nohide", "--theta", "0.7", "--phi", "1.1",
            "--u0", str(u_file), "--u1", str(u_file),
        )
        assert code == 0
        assert "verified: true" in out


class TestNonFiniteInput:
    """Non-finite numbers are input errors (exit 2), not reports of nan."""

    def test_nohide_nan_unitary(self, tmp_path, capsys):
        u_file = tmp_path / "u.mat"
        u_file.write_text("matrix 2 2\nnan,0 0,0\n0,0 1,0\n")
        code, out = run_cli(
            capsys, "nohide", "--theta", "0", "--phi", "0", "--u0", str(u_file)
        )
        assert (code, out) == (2, "")

    def test_nohide_nan_angle(self, capsys):
        code, out = run_cli(capsys, "nohide", "--theta", "nan", "--phi", "0")
        assert (code, out) == (2, "")

    def test_maskable_nan_coeffs(self, tmp_path, capsys):
        obs = tmp_path / "nan.obs"
        obs.write_text("coeffs 2 nan 0 0 1\n")
        code, out = run_cli(
            capsys, "maskable", "--observable", str(obs), "--method", "bloch"
        )
        assert (code, out) == (2, "")

    def test_counterexample_nan_bloch(self, tmp_path, capsys):
        b = tmp_path / "b.bl"
        b.write_text("bloch 2 nan 0.0 0.5\n")
        bp = tmp_path / "bp.bl"
        bp.write_text("bloch 2 0.0 0.0 0.25\n")
        code, out = run_cli(
            capsys, "counterexample", "--b", str(b), "--bprime", str(bp), "--dim", "2"
        )
        assert (code, out) == (2, "")


@pytest.mark.parametrize(
    "argv, wrong, message",
    [
        (["maskable", "--observable", "{f}"], "bloch 2 0 0 0.5\n",
         "expected a matrix or coeffs document, got 'bloch'"),
        (["nohide", "--theta", "0", "--phi", "0", "--u0", "{f}"], SZ_COEFFS,
         "expected a matrix document, got 'coeffs'"),
        (["counterexample", "--b", "{f}", "--bprime", "{f}", "--dim", "2"], SZ_MATRIX,
         "expected a bloch document, got 'matrix'"),
    ],
    ids=["maskable", "nohide", "counterexample"],
)
def test_document_of_another_kind_is_an_input_error(argv, wrong, message, tmp_path, capsys):
    path = tmp_path / "wrong.txt"
    path.write_text(wrong)
    code = main([arg.format(f=path) for arg in argv])
    assert capsys.readouterr() == ("", f"error: line 1, column 1: {message}\n")
    assert code == 2


class TestComaskCommand:
    def test_single_point(self, tmp_path, capsys):
        states = tmp_path / "states.txt"
        states.write_text("0 0 0.5\n")
        code, out = run_cli(capsys, "comask", "--states", str(states), "--dim", "2")
        assert code == 0
        assert "input_affine_dim: 0" in out
        assert "comask_affine_dim: 3" in out

    def test_invalid_state_exit_2(self, tmp_path, capsys):
        states = tmp_path / "states.txt"
        states.write_text("0 0 0.9\n")
        code, _ = run_cli(capsys, "comask", "--states", str(states), "--dim", "2")
        assert code == 2


class TestCommonStateCommand:
    def test_sigma3_alone(self, tmp_path, capsys):
        obs = tmp_path / "sz.obs"
        obs.write_text(SZ_COEFFS)
        code, out = run_cli(capsys, "common-state", "--observables", str(obs))
        assert code == 0
        assert "feasible: true" in out
        assert "state_bloch: 0 0 0.5" in out

    def test_incompatible_pair_infeasible(self, tmp_path, capsys):
        sz = tmp_path / "sz.obs"
        sz.write_text(SZ_COEFFS)
        sx = tmp_path / "sx.obs"
        sx.write_text("coeffs 2 0 1 0 0\n")
        code, out = run_cli(capsys, "common-state", "--observables", str(sz), str(sx))
        assert code == 0
        assert "feasible: false" in out


class TestCounterexampleCommand:
    def test_derived_pair(self, tmp_path, capsys):
        b = tmp_path / "b.bl"
        b.write_text("bloch 2 0.0 0.0 0.5\n")
        bp = tmp_path / "bp.bl"
        bp.write_text("bloch 2 0.0 0.0 0.25\n")
        code, out = run_cli(
            capsys, "counterexample", "--b", str(b), "--bprime", str(bp), "--dim", "2"
        )
        assert code == 0
        assert "a0: 0.5" in out
        assert "value_at_bprime: 0.5" in out
        assert "value_at_b: 0.75" in out

    def test_dimension_one_is_refused(self, tmp_path, capsys):
        for name in ("b.bl", "bp.bl"):
            (tmp_path / name).write_text("bloch 1\n")
        code = main(["counterexample", "--b", str(tmp_path / "b.bl"),
                     "--bprime", str(tmp_path / "bp.bl"), "--dim", "1"])
        assert code == 2
        assert capsys.readouterr().err == "error: dimension must be >= 2, got 1\n"


def demo_stdout(d, seed):
    """The pinned bitcommit-demo report: every residual vanishes and every
    count is full."""
    return f"""version: {__version__}
command: bitcommit-demo
demo: bitcommit
dim: {d}
seed: {seed}
concealment_gap: 0
marginal_gap_max: 0
cheat_feasible: true
cheat_fidelity: 1
hiding_residual_max: 0
proportionality_checks: 20/20
masking_matches_unit_expectation: 20/20
rescaled_observables_masked: 20/20
note: adjoint outputs are proportional to the identity for every observable; \
equality with the identity (masking) holds exactly for observables with unit \
expectation on the commitment marginal
conclusion: a perfectly concealing, binding protocol would make this channel \
a universal masker, which does not exist; unconditional bit commitment is \
therefore impossible
"""


class TestBitcommitDemoCommand:
    def test_golden_seed7(self, capsys):
        code, out = run_cli(capsys, "bitcommit-demo", "--dim", "2", "--seed", "7")
        assert code == 0
        assert "concealment_gap: 0" in out
        assert "cheat_fidelity: 1" in out
        assert "cheat_feasible: true" in out

    def test_pinned_stdout(self, capsys):
        _, out = run_cli(capsys, "bitcommit-demo", "--dim", "3", "--seed", "11")
        assert out == demo_stdout(3, 11)

    @pytest.mark.parametrize("d", [2, 4])
    def test_pinned_stdout_other_dims(self, capsys, d):
        _, out = run_cli(capsys, "bitcommit-demo", "--dim", str(d), "--seed", "11")
        assert out == demo_stdout(d, 11)

    def test_pinned_stdout_d16(self, capsys):
        # 256 Kraus operators: the demo's largest channel
        _, out = run_cli(capsys, "bitcommit-demo", "--dim", "16", "--seed", "7")
        assert out == demo_stdout(16, 7)

    def test_byte_determinism(self, capsys):
        _, first = run_cli(capsys, "bitcommit-demo", "--dim", "3", "--seed", "11")
        _, second = run_cli(capsys, "bitcommit-demo", "--dim", "3", "--seed", "11")
        assert first == second


class TestSelftestCommand:
    def test_all_pass(self, capsys):
        code, out = run_cli(capsys, "selftest")
        assert code == 0
        assert "all_passed: true" in out
        assert "total_failed: 0" in out

    def test_pinned_stdout(self, capsys):
        _, out = run_cli(capsys, "selftest")
        assert out == f"""version: {__version__}
command: selftest
algebra_eig_reconstruction: 150 passed, 0 failed
bloch_codecs_and_positivity: 150 passed, 0 failed
qubit_oracle_agreement: 500 passed, 0 failed
constant_maskers_verify: 50 passed, 0 failed
nohiding_swap_identity: 50 passed, 0 failed
comask_dimension_formula: 60 passed, 0 failed
bitcommit_mechanics: 10 passed, 0 failed
total_passed: 970
total_failed: 0
all_passed: true
"""

    def test_lines_follow_registry(self, capsys):
        _, out = run_cli(capsys, "selftest")
        names = [line.split(":")[0] for line in out.splitlines()[2:-3]]
        assert names == list(REGISTRY)


D2_STATES = ["-0.096 0.042 -0.01", "-0.039 -0.044 0.087", "0.122 -0.097 0.046", "-0.061 0.14 0.126"]
D3_STATES = [
    "0.041 0.076 0.005 0.098 -0.015 -0.048 -0.067 -0.082",
    "0.008 -0.021 0.049 -0.146 -0.016 -0.04 -0.091 0.028",
    "-0.019 -0.06 -0.087 0.112 0.089 0.032 -0.046 0.134",
    "0.019 -0.02 0.12 -0.054 0.059 -0.056 -0.072 0.06",
]
D4_STATES = [
    "0.031 -0.044 0.012 0.058 -0.027 0.019 -0.063 0.008 0.041 -0.015 0.036 -0.052 0.024 0.011 -0.029",
    "-0.047 0.022 0.053 -0.018 0.034 -0.061 0.009 0.045 -0.026 0.038 -0.013 0.027 -0.056 0.042 0.016",
    "0.014 0.057 -0.039 -0.033 0.049 0.006 0.028 -0.051 0.017 -0.044 0.062 -0.021 0.035 -0.008 0.046",
]


def _d16_states():
    """Four seeded d = 16 Bloch vectors, written exactly: three full-rank
    states and, last, a pure one (15 eigenvalues at 0)."""
    rng = np.random.default_rng(16)
    rhos = [samplers.density(rng, 16) for _ in range(3)]
    psi = samplers.unit_vector(rng, 32).view(complex)
    rhos.append(np.outer(psi, psi.conj()))
    return [" ".join(map(repr, bloch.state_to_bloch(r).b.tolist())) for r in rhos]


COMASK_STATES = {2: D2_STATES, 3: D3_STATES, 4: D4_STATES, 16: _d16_states()}
COMMON_STATE_INPUTS = {
    "generic": ["coeffs 2 0.2 0.5 -0.3 0.8"],
    "pair": ["coeffs 2 0 0 0 1", "coeffs 2 0 1 0 1"],
    "infeasible": ["coeffs 2 0 0 0 1", "coeffs 2 0 1 0 0"],
    "inconsistent": ["coeffs 2 0 0 0 1", "coeffs 2 0 0 0 2"],
}
MASKABLE_INPUTS = {
    "d2-maskable": "coeffs 2 0.3 0.4 -0.5 0.6",
    "d2-unmaskable": "coeffs 2 -0.5 0.3 0.2 0.1",
    "d2-scalar": "coeffs 2 1 0 0 0",
    "d4-maskable": "coeffs 4 0.25 0.1 -0.2 0.3 0.05 0.4 -0.15 0.2 0.1 -0.3 0.25 0.05 -0.1 0.35 0.2 -0.05",
    "d4-unmaskable": "coeffs 4 2.5 0.1 -0.2 0.03 0.05 0.04 -0.15 0.02 0.1 -0.03 0.05 0.05 -0.1 0.05 0.02 -0.05",
}
# report bodies after the version line, pinned byte for byte; their inputs
# pass through the comask directions, the Bloch codecs and the qubit criterion
PINNED_REPORTS = {
    "comask-d2-k0": """\
command: comask
dim: 2
n_states: 1
input_affine_dim: 0
kind: general
comask_affine_dim: 3
base_point: 1 0 0 0
""",
    "comask-d2-k1": """\
command: comask
dim: 2
n_states: 2
input_affine_dim: 1
kind: general
comask_affine_dim: 2
base_point: 1 0 0 0
""",
    "comask-d2-k2": """\
command: comask
dim: 2
n_states: 3
input_affine_dim: 2
kind: general
comask_affine_dim: 1
base_point: 1 0 0 0
""",
    "comask-d2-k3": """\
command: comask
dim: 2
n_states: 4
input_affine_dim: 3
kind: general
comask_affine_dim: 0
base_point: 1 0 0 0
""",
    "comask-d3-k0": """\
command: comask
dim: 3
n_states: 1
input_affine_dim: 0
kind: general
comask_affine_dim: 8
base_point: 1 0 0 0 0 0 0 0 0
""",
    "comask-d3-k1": """\
command: comask
dim: 3
n_states: 2
input_affine_dim: 1
kind: general
comask_affine_dim: 7
base_point: 1 0 0 0 0 0 0 0 0
""",
    "comask-d3-k2": """\
command: comask
dim: 3
n_states: 3
input_affine_dim: 2
kind: general
comask_affine_dim: 6
base_point: 1 0 0 0 0 0 0 0 0
""",
    "comask-d3-k3": """\
command: comask
dim: 3
n_states: 4
input_affine_dim: 3
kind: general
comask_affine_dim: 5
base_point: 1 0 0 0 0 0 0 0 0
""",
    "comask-d4-k2": """\
command: comask
dim: 4
n_states: 3
input_affine_dim: 2
kind: general
comask_affine_dim: 13
base_point: 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0
""",
    "comask-d16-k3": """\
command: comask
dim: 16
n_states: 4
input_affine_dim: 3
kind: general
comask_affine_dim: 252
base_point: 1"""
    + " 0" * 255
    + "\n",
    "common-state-generic": """\
command: common-state
dim: 2
n_observables: 1
feasible: true
state_bloch: 0.204081632653 -0.122448979592 0.326530612245
constraint_residual: 0
""",
    "common-state-pair": """\
command: common-state
dim: 2
n_observables: 2
feasible: true
state_bloch: 0 0 0.5
constraint_residual: 0
""",
    "common-state-infeasible": """\
command: common-state
dim: 2
n_observables: 2
feasible: false
residual: 0.207106781187
""",
    "common-state-inconsistent": """\
command: common-state
dim: 2
n_observables: 2
feasible: false
reason: masking equations are mutually inconsistent
""",
    "maskable-d2-maskable": """\
command: maskable
dim: 2
method: both
maskable: true
methods_agree: true
plane_distance: 0.398862017609
eig_range: -0.577496438739 1.17749643874
""",
    "maskable-d2-unmaskable": """\
command: maskable
dim: 2
method: both
maskable: false
methods_agree: true
plane_distance: 2.00445931434
eig_range: -0.874165738677 -0.125834261323
""",
    "maskable-d2-scalar": """\
command: maskable
dim: 2
method: both
maskable: true
methods_agree: true
eig_range: 1 1
""",
    "maskable-d4-maskable": """\
command: maskable
dim: 4
method: both
maskable: true
eig_range: -0.459385973935 1.11018760071
necessary_condition: true
""",
    "maskable-d4-unmaskable": """\
command: maskable
dim: 4
method: both
maskable: false
eig_range: 2.17459031962 2.82581512958
necessary_condition: false
""",
}


def pinned_report_argv(name, tmp_path):
    """The CLI arguments of the pinned report ``name``, with its input files
    written under ``tmp_path``."""
    if name.startswith("comask-"):
        d, k = map(int, name[len("comask-d"):].split("-k"))
        states = tmp_path / "states.txt"
        states.write_text("\n".join(COMASK_STATES[d][: k + 1]) + "\n")
        return ["comask", "--states", str(states), "--dim", str(d)]
    if name.startswith("common-state-"):
        paths = []
        for i, doc in enumerate(COMMON_STATE_INPUTS[name[len("common-state-"):]]):
            paths.append(tmp_path / f"obs{i}.obs")
            paths[-1].write_text(doc + "\n")
        return ["common-state", "--observables", *map(str, paths)]
    obs = tmp_path / "obs.obs"
    obs.write_text(MASKABLE_INPUTS[name[len("maskable-"):]] + "\n")
    return ["maskable", "--observable", str(obs)]


@pytest.mark.parametrize("name", list(PINNED_REPORTS))
def test_pinned_report(name, tmp_path, capsys):
    code, out = run_cli(capsys, *pinned_report_argv(name, tmp_path))
    assert code == 0
    assert out == f"version: {__version__}\n" + PINNED_REPORTS[name]


def _loaded_submodules(cwd, *args):
    """The obsmask submodules that a fresh ``python -v`` interpreter imports
    for ``args``, with PYTHONPATH set to the checkout's src."""
    src = str(Path(algebra.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-v", *args], cwd=cwd, env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=60,
    )
    return set(re.findall(r"^import 'obsmask\.(\w+)'", proc.stderr, re.MULTILINE))


def test_bare_import_loads_no_submodule(tmp_path):
    assert _loaded_submodules(tmp_path, "-c", "import obsmask") == set()


@pytest.mark.parametrize("argv, modules", [
    (["maskable", "--observable", "sz.obs"],
     {"algebra", "bloch", "channels", "errors", "fileio", "masking", "report"}),
    (["comask", "--states", "states.txt", "--dim", "2"],
     {"algebra", "bloch", "channels", "comask", "errors", "fileio", "report"}),
    (["bitcommit-demo", "--dim", "2", "--seed", "0"],
     {"algebra", "bitcommit", "channels", "errors", "report", "samplers"}),
])
def test_subcommand_loads_only_its_modules(argv, modules, tmp_path):
    (tmp_path / "sz.obs").write_text(SZ_MATRIX)
    (tmp_path / "states.txt").write_text("0 0 0.5\n")
    assert _loaded_submodules(tmp_path, "-m", "obsmask.cli", *argv) == modules
