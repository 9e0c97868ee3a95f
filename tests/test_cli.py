import numpy as np
import pytest

from obsmask import __version__, algebra, bloch, fileio, masking
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
        value = fileio.parse_matrix(SZ_COEFFS)
        assert isinstance(value, bloch.ObservableCoeffs)
        assert value.dimension == 2
        assert value.a0 == 0.0
        assert np.allclose(value.a, [0, 0, 1])

    def test_row_with_wrong_entry_count(self):
        with pytest.raises(ParseError):
            fileio.parse_matrix("matrix 2 2\n1,0 0,0 0,0\n0,0 -1,0\n")

    def test_parse_error_reports_position(self):
        with pytest.raises(ParseError) as exc:
            fileio.parse_matrix("matrix 2 2\n1,0 oops\n0,0 -1,0\n")
        assert exc.value.line == 2
        assert exc.value.column == 5

    def test_unknown_header(self):
        with pytest.raises(ParseError):
            fileio.parse_document("weird 2 2\n")

    def test_vector_and_bloch_documents(self):
        kind, vec = fileio.parse_document("vector 2\n0.5,0 0.5,-0.1\n")
        assert kind == "vector" and vec.shape == (2,)
        kind, b = fileio.parse_document("bloch 2 0.0 0.0 0.5\n")
        assert kind == "bloch" and np.allclose(b.b, [0, 0, 0.5])

    @pytest.mark.parametrize("kind", ["matrix", "coeffs", "bloch", "vector"])
    def test_render_parse_round_trip(self, kind):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        # values whose text needs repr precision, and a negative zero
        fine = np.array([0.1 + 0.2, 1 / 3, -0.0, 2.0**-1074, -1e300, 1.23456789e-2, np.pi, 7.0])
        render, value, fields = {
            "matrix": (fileio.render_matrix, m, lambda v: v),
            "coeffs": (
                fileio.render_coeffs,
                bloch.ObservableCoeffs(2, a0=1 / 3, a=np.array([0.1, -0.7, 2.0])),
                lambda v: (v.dimension, v.a0, *v.a),
            ),
            "bloch": (
                fileio.render_bloch,
                bloch.BlochVector(3, b=fine),
                lambda v: (v.dimension, *v.b),
            ),
            "vector": (
                fileio.render_vector,
                np.array(list(map(complex, fine, fine[::-1]))),
                lambda v: v,
            ),
        }[kind]
        text = render(value)
        got_kind, back = fileio.parse_document(text)
        assert got_kind == kind
        assert np.array_equal(fields(back), fields(value))
        assert render(back) == text

    @pytest.mark.parametrize(
        "text, message, line, column",
        [
            ("matrix 2 2\n1,0 0,0\n0,0\n", "matrix needs 4 entries, found 3", 3, 1),
            ("coeffs 2\n  0.5\n", "coeffs for d=2 needs 4 values, found 1", 2, 3),
            ("vector 3\n0.5,0 0.5,-0.1\n", "vector needs 3 entries, found 2", 2, 7),
            ("bloch 2\n", "bloch for d=2 needs 3 values, found 0", 1, 1),
        ],
        ids=["matrix", "coeffs", "vector", "bloch"],
    )
    def test_truncated_document(self, text, message, line, column):
        with pytest.raises(ParseError) as exc:
            fileio.parse_document(text)
        assert str(exc.value) == f"line {line}, column {column}: {message}"
        assert (exc.value.line, exc.value.column) == (line, column)

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


    def test_one_eigendecomposition(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counting(m, *args):
            calls.append(m)
            return algebra.eig_hermitian(m, *args)

        monkeypatch.setattr(masking, "eig_hermitian", counting)
        obs = tmp_path / "sz.obs"
        obs.write_text(SZ_COEFFS)
        out_path = tmp_path / "sz.kraus"
        code, _ = run_cli(capsys, "mask", "--observable", str(obs), "--out", str(out_path))
        assert code == 0
        assert len(calls) == 1


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


class TestBitcommitDemoCommand:
    def test_golden_seed7(self, capsys):
        code, out = run_cli(capsys, "bitcommit-demo", "--dim", "2", "--seed", "7")
        assert code == 0
        assert "concealment_gap: 0" in out
        assert "cheat_fidelity: 1" in out
        assert "cheat_feasible: true" in out

    def test_pinned_stdout(self, capsys):
        _, out = run_cli(capsys, "bitcommit-demo", "--dim", "3", "--seed", "11")
        assert out == f"""version: {__version__}
command: bitcommit-demo
demo: bitcommit
dim: 3
seed: 11
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
