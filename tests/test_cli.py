import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scalekit import ScaleSignal, ScaleTimeSignal, make_group, make_scale_shift
from scalekit import io as skio
from scalekit.cli import COMMANDS, build_parser, main
from helpers import random_time_signal


# parts of normal magnitude, and t_0 with an imaginary part from none to
# well above the 1e-12 the realness check allows, relative to its real part
NORMAL_PARTS = st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3) | st.just(0.0)


@st.composite
def short_moments(draw):
    re = draw(st.floats(1e-3, 1e3))
    ratio = draw(st.sampled_from([0.0, 1e-14, 1e-13, -1e-12, 1e-11, 1e-6]))
    rest = draw(st.lists(st.tuples(NORMAL_PARTS, NORMAL_PARTS), max_size=4))
    return [[re, re * ratio], *map(list, rest)]


def write_system(path, slices, arity=1):
    sig = ScaleTimeSignal([ScaleSignal(e, arity=arity) for e in slices], arity=arity)
    skio.write_time_signal(sig, str(path))
    return sig


@pytest.fixture
def geometric_json(tmp_path):
    path = tmp_path / "geometric.json"
    write_system(path, [{(0,): 0.9}])
    return str(path)


class TestAnalyze:
    def test_dissipative_pass(self, geometric_json, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["analyze", "--property", "dissipative",
                     "--system", geometric_json, "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "pass"
        assert doc["sup_bracket"]["lower"] == pytest.approx(0.9)

    def test_dissipative_fail_exit_code(self, tmp_path):
        path = tmp_path / "sum.json"
        write_system(path, [{(0,): 1.0}, {(0,): 1.0}])
        out = tmp_path / "report.json"
        code = main(["analyze", "--property", "dissipative",
                     "--system", str(path), "--out", str(out)])
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "fail"
        assert "argmax_angles" in doc["witnesses"]

    def test_bibo_and_l1l2(self, tmp_path):
        path = tmp_path / "geo.json"
        write_system(path, [{(0,): 0.5 ** n} for n in range(54)])
        out = tmp_path / "r.json"
        assert main(["analyze", "--property", "bibo", "--system", str(path),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["sufficient_upper"] == pytest.approx(2.0, abs=1e-10)
        assert main(["analyze", "--property", "l1l2", "--system", str(path),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["gain"] == pytest.approx((1 / (1 - 0.25)) ** 0.5, abs=1e-10)

    @pytest.mark.parametrize("k, prop, code", [
        (-600, "bibo", 0), (-600, "dissipative", 0), (-600, "l1l2", 0),
        (900, "bibo", 0), (900, "dissipative", 1), (900, "l1l2", 2)])
    def test_extreme_scales_print_finite_reports(self, tmp_path, capsys, k, prop, code):
        # 2^k (1 + z^3 / 2 - i z^5 / 4): every printed number is a finite
        # double; at 2^900 the coefficient energy is not one, and the run
        # exits 2 naming it before any output, and the dissipative fail
        # keeps its report though its Gram kernel overflows
        s = math.ldexp(1.0, k)
        path = tmp_path / "probe.json"
        write_system(path, [{(0,): s, (3,): s / 2, (5,): -0.25j * s}])
        assert main(["analyze", "--property", prop, "--system", str(path)]) == code
        captured = capsys.readouterr()
        if code == 2:
            assert captured.out == ""
            assert captured.err.startswith("error: coefficient_energy ")
            assert captured.err.rstrip().endswith("is not a finite double")
            return
        doc = json.loads(captured.out)
        assert not any(w in captured.out for w in ("inf", "nan", "Infinity", "NaN"))
        if prop == "l1l2":
            assert doc["gain"] == math.ldexp(math.sqrt(1.3125), k)
            return
        # a 400,001-point grid max of the unscaled symbol, below its sup
        grid_max = math.ldexp(1.736331639270814, k)
        if prop == "bibo":
            assert 0.0 < doc["necessary_lower"] <= grid_max <= doc["sufficient_upper"]
        else:
            assert doc["sup_bracket"]["lower"] <= grid_max <= doc["sup_bracket"]["upper"]

    def test_no_cone_flag(self, geometric_json, capsys):
        # scale-causality is read from the system, so there is no --cone
        assert main(["analyze", "--property", "bibo", "--system", geometric_json,
                     "--cone"]) == 2
        assert "--cone" in capsys.readouterr().err

    def test_no_seed_flag(self, geometric_json, capsys):
        # the Gram sample is fixed, so analyze has no --seed
        assert main(["analyze", "--property", "dissipative", "--system", geometric_json,
                     "--seed", "0"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_gram_bug_warns_on_stderr(self, tmp_path, capsys, monkeypatch):
        # a false pass for sup 2: the report keeps its layout on stdout, and
        # one stderr line names the Gram kernel's minimum eigenvalue
        from scalekit import stability
        from scalekit.stability import OperatorNormBracket
        path = tmp_path / "two.json"
        write_system(path, [{(0,): 2.0}])
        argv = ["analyze", "--property", "dissipative", "--system", str(path)]
        monkeypatch.setattr(stability, "_certify_sup",
                            lambda array, tol, threshold=None: OperatorNormBracket(0.5, 0.5, True))
        assert main(argv) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["verdict"] == "pass" and doc["details"]["gram_bug"] is True
        gram_min = doc["details"]["gram_min_eigenvalue"]
        assert gram_min < -1.0
        assert captured.err.splitlines() == [
            f"warning: the Gram kernel contradicts the pass: minimum eigenvalue "
            f"{gram_min!r} < -tol"]
        monkeypatch.undo()
        assert main(argv) == 1
        assert capsys.readouterr().err == ""

    def test_determinism_byte_identical(self, tmp_path):
        path = tmp_path / "sys.json"
        rng = np.random.default_rng(3)
        sig = random_time_signal(rng, 1, time_len=3)
        skio.write_time_signal(sig, str(path))
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(["analyze", "--property", "bibo", "--system", str(path),
                         "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @staticmethod
    def reports_at_one_and_two_threads(path, prop, tol):
        """The exit codes and report bytes of one analyze request run at one
        and at two BLAS threads, the two processes side by side."""
        procs = []
        for threads in ("1", "2"):
            out = path.with_name(f"{prop}-{threads}.json")
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            procs.append((out, subprocess.Popen(
                [sys.executable, "-m", "scalekit.cli", "analyze", "--property", prop,
                 "--system", str(path), "--tol", tol, "--out", str(out)],
                stderr=subprocess.PIPE, text=True, env=env)))
        results = []
        for out, proc in procs:
            err = proc.communicate(timeout=120)[1]
            results.append((proc.returncode, err, out.read_bytes()))
        return results

    def test_bibo_report_independent_of_blas_threads(self, tmp_path):
        # the p=2 witness has 2^16 cells, enough for OpenBLAS to split a dot
        # product or a norm over its threads; the report must not depend on
        # how many there are
        path = tmp_path / "sys.csv"
        rng = np.random.default_rng(5)
        write_system(path, [{(k1, k2): complex(*(0.2 * rng.standard_normal(2)))
                             for k1 in range(3) for k2 in range(3)} for _ in range(2)],
                     arity=2)
        one, two = self.reports_at_one_and_two_threads(path, "bibo", "1e-3")
        assert one[0] == 0, one[1]
        assert one == two

    @pytest.mark.parametrize("prop, code", [("l1l2", 0), ("dissipative", 1), ("bibo", 0)])
    def test_long_slice_report_independent_of_blas_threads(self, tmp_path, prop, code):
        # one p=1 slice of 12,000 terms: the coefficient energy, the slice
        # norms and the witness value each sum 12,000 products, which a BLAS
        # dot splits over its threads; exponents -6000 .. 5999 leave the
        # system outside the cone, so dissipative skips its Gram sample, and
        # at exponents 0 .. 11,999 dissipative runs it too
        rng = np.random.default_rng(1)
        terms = rng.standard_normal((1, 12000)) + 1j * rng.standard_normal((1, 12000))
        for origin in (-6000, 0) if prop == "dissipative" else (-6000,):
            path = tmp_path / f"sys{origin}.csv"
            skio.write_time_signal(ScaleTimeSignal.from_dense(terms, (origin,)), str(path))
            one, two = self.reports_at_one_and_two_threads(path, prop, "1e-3")
            assert one[0] == code, one[1]
            assert one == two
            assert (b"gram_min_eigenvalue" in one[2]) == (origin == 0)


class TestFilterOracle:
    def test_agreement_on_fixture(self, tmp_path):
        rng = np.random.default_rng(5)
        h = random_time_signal(rng, 1, time_len=3)
        u = random_time_signal(rng, 1, time_len=4)
        hp, up = tmp_path / "h.csv", tmp_path / "u.csv"
        skio.write_time_signal(h, str(hp))
        skio.write_time_signal(u, str(up))
        got_filter = tmp_path / "yf.csv"
        got_oracle = tmp_path / "yo.csv"
        assert main(["filter", "--h", str(hp), "--u", str(up),
                     "--out", str(got_filter)]) == 0
        assert main(["oracle", "--h", str(hp), "--u", str(up),
                     "--out", str(got_oracle)]) == 0
        yf = skio.read_time_signal(str(got_filter))
        yo = skio.read_time_signal(str(got_oracle))
        assert yf.distance(yo) < 1e-12

    def test_same_rows_within_1e_12(self, tmp_path):
        # the README's claim: the same entries (rows), values within 1e-12
        rng = np.random.default_rng(6)
        for p in (1, 2):
            paths = []
            for name, t in (("h", 3), ("u", 4)):
                paths.append(tmp_path / f"{name}{p}.csv")
                skio.write_time_signal(random_time_signal(rng, p, time_len=t), str(paths[-1]))
            rows = []
            for cmd in ("filter", "oracle"):
                out = tmp_path / f"{cmd}{p}.csv"
                assert main([cmd, "--h", str(paths[0]), "--u", str(paths[1]),
                             "--out", str(out)]) == 0
                rows.append([r.split(",") for r in out.read_text().splitlines()])
            assert [r[:-2] for r in rows[0]] == [r[:-2] for r in rows[1]]
            for a, b in zip(rows[0][1:], rows[1][1:]):
                assert abs(complex(float(a[-2]), float(a[-1]))
                           - complex(float(b[-2]), float(b[-1]))) <= 1e-12

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = main(["filter", "--h", str(tmp_path / "no.csv"),
                     "--u", str(tmp_path / "no.csv")])
        assert code == 2

    @pytest.mark.parametrize("command", ["filter", "oracle"])
    def test_products_beyond_the_double_range_exit_2(self, command, tmp_path, capsys):
        # every product overflows: exit 2 naming the first output entry,
        # before the output file is opened, and no numpy warning
        hp, up, out = tmp_path / "h.csv", tmp_path / "u.csv", tmp_path / "y.csv"
        write_system(hp, [{(0,): 1e308, (1,): 5e307}])
        write_system(up, [{(0,): 1e300}, {(2,): 3e300}])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--h", str(hp), "--u", str(up), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: output entry (n, k) = (0, (0,)) is not a finite double\n")
        assert not out.exists()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestMomentsCommands:
    def test_moments_check_fail_inline(self, capsys):
        code = main(["moments-check", "--moments",
                     '{"t":[[1,0],[0.8,0],[0,0]]}'])
        captured = capsys.readouterr()
        assert code == 1
        doc = json.loads(captured.out)
        assert doc["is_psd"] is False
        assert doc["min_eigenvalue"] == pytest.approx(-0.13137, abs=1e-4)

    def test_moments_check_pass(self, capsys):
        code = main(["moments-check", "--moments", '{"t":[[1,0],[0.5,0]]}'])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["min_eigenvalue"] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_tol_exits_2_before_any_report(self, tmp_path, capsys, tol):
        # symbol sup 0.5; t = (1, 0.5) has eigenvalues 0.5 and 1.5
        path = tmp_path / "sys.csv"
        path.write_text("n,k1,re,im\n0,0,0.25,0\n0,1,0.25,0\n")
        for argv in (["analyze", "--property", "bibo", "--system", str(path)],
                     ["analyze", "--property", "dissipative", "--system", str(path)],
                     ["analyze", "--property", "l1l2", "--system", str(path)],
                     ["moments-check", "--moments", '{"t":[[1,0],[0.5,0]]}']):
            assert main(argv + ["--tol", tol]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: tol must be finite and >= 0, got {float(tol)!r}\n"

    def test_zero_tol_allowed(self, capsys):
        assert main(["moments-check", "--moments", '{"t":[[1,0],[0.5,0]]}', "--tol", "0"]) == 0

    def test_moments_arrays_capped(self, capsys):
        big = json.dumps({"t": [[1, 0]] + [[0, 0]] * 4096})
        assert main(["moments-check", "--moments", big]) == 2
        assert "MAX_BOX_CELLS" in capsys.readouterr().err
        assert main(["stieltjes", "--moments", '{"t":[[1,0]]}', "--a", "0", "--b", "1",
                     "--r", "0.5", "--quad-points", "4096"]) == 2
        assert "--quad-points" in capsys.readouterr().err

    def test_stieltjes_lebesgue(self, capsys):
        code = main(["stieltjes", "--moments", '{"t":[[1,0],[0,0]]}',
                     "--a", "1.0", "--b", "2.0", "--r", "0.9"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mass"] == pytest.approx(1.0 / (2 * np.pi), abs=1e-12)

    def test_stieltjes_report_fields(self, capsys):
        assert main(["stieltjes", "--moments", '{"t":[[1,0]]}',
                     "--a", "-1.5", "--b", "0.5", "--r", "0.5"]) == 0
        assert list(json.loads(capsys.readouterr().out)) == ["a", "b", "r", "mass"]

    @given(short_moments(), st.integers(-500, 500))
    def test_scaling_by_a_power_of_two(self, t, k):
        # t and t 2^k are the same question: the same exit code and
        # verdict, the eigenvalue and the mass exactly 2^k times
        scaled = [[math.ldexp(re, k), math.ldexp(im, k)] for re, im in t]
        reports = {}
        for command, extra in (("moments-check", []),
                               ("stieltjes", ["--a", "-1", "--b", "2", "--r", "0.7"])):
            for moments in (t, scaled):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = main([command, "--moments", json.dumps({"t": moments}), *extra])
                reports.setdefault(command, []).append(
                    (code, json.loads(out.getvalue()) if code != 2 else None))
        (code, check), (code_k, check_k) = reports["moments-check"]
        assert code_k == code
        if check is not None:
            assert check_k["is_psd"] == check["is_psd"]
            assert check_k["min_eigenvalue"] == math.ldexp(check["min_eigenvalue"], k)
        (code, mass), (code_k, mass_k) = reports["stieltjes"]
        assert code_k == code
        if mass is not None:
            assert mass_k["mass"] == math.ldexp(mass["mass"], k)


class TestTransformCommands:
    def test_scale_transform_runs(self, tmp_path, capsys):
        g = make_group([make_scale_shift(0.25, 0.0)])
        gp = tmp_path / "group.json"
        gp.write_text(json.dumps(skio.group_to_dict(g)))
        sp = tmp_path / "sig.json"
        sp.write_text(json.dumps({"coeffs": [[1.0, 0.0]], "tail_bound": 0.0}))
        out = tmp_path / "out.json"
        code = main(["scale-transform", "--signal", str(sp), "--group", str(gp),
                     "--window", "[[0],[1]]", "--time-len", "4",
                     "--tol", "1e-9", "--out", str(out)])
        assert code == 0
        sig = skio.signal_from_dict(json.loads(out.read_text()))
        assert sig.slice(0).get((1,)) == pytest.approx(0.8)
        assert sig.slice(1).get((1,)) == pytest.approx(-0.48)

    def test_one_signal_writer(self, tmp_path, capsys):
        # --out goes through io.write_time_signal for filter and scale-transform;
        # stdout stays CSV for filter and JSON for scale-transform
        g = make_group([make_scale_shift(0.25, 0.0)])
        gp = tmp_path / "group.json"
        gp.write_text(json.dumps(skio.group_to_dict(g)))
        sp = tmp_path / "sig.json"
        sp.write_text(json.dumps({"coeffs": [[1.0, 0.0], [0.0, -0.5]], "tail_bound": 0.0}))
        transform = ["scale-transform", "--signal", str(sp), "--group", str(gp),
                     "--window", "[[0],[2]]", "--time-len", "5", "--tol", "1e-9"]
        hp, up = tmp_path / "h.csv", tmp_path / "u.csv"
        rng = np.random.default_rng(7)
        skio.write_time_signal(random_time_signal(rng, 2, time_len=2), str(hp))
        skio.write_time_signal(random_time_signal(rng, 2, time_len=3), str(up))
        filt = ["filter", "--h", str(hp), "--u", str(up)]
        for argv, stdout_ext in ((transform, ".json"), (filt, ".csv")):
            capsys.readouterr()
            assert main(argv) == 0
            printed = capsys.readouterr().out
            for ext in (".json", ".csv"):
                out, ref = tmp_path / f"out{ext}", tmp_path / f"ref{ext}"
                assert main(argv + ["--out", str(out)]) == 0
                skio.write_time_signal(skio.read_time_signal(str(out)), str(ref))
                assert out.read_bytes() == ref.read_bytes()
                if ext == stdout_ext:
                    assert out.read_text() == printed

    def test_scale_transform_bound_overflow_exits_uncertified(self, tmp_path, capsys):
        f = np.random.default_rng(255).standard_normal(256)
        sp = tmp_path / "sig.json"
        sp.write_text(json.dumps({"coeffs": [[x, 0.0] for x in f / np.linalg.norm(f)],
                                  "tail_bound": 0.0}))
        # the bound beyond double range, then the old input's finite bound
        for mult, window, last, bound in [(0.3, "[[3],[32]]", "(32,)", "inf"),
                                          (0.6, "[[7],[12]]", "(12,)", "7.191e+07")]:
            gp = tmp_path / "group.json"
            gp.write_text(json.dumps(skio.group_to_dict(make_group([make_scale_shift(mult, 0.2)]))))
            code = main(["scale-transform", "--signal", str(sp), "--group", str(gp),
                         "--window", window, "--time-len", "8", "--tol", "1e-10",
                         "--out", str(tmp_path / "out.json")])
            assert code == 3
            err = capsys.readouterr().err
            assert f"scale index {last}" in err and f"certified bound {bound} " in err

    def _transform_on_group(self, tmp_path, gens, window):
        sp = tmp_path / "sig.json"
        sp.write_text(json.dumps({"coeffs": [[1.0, 0.0], [0.5, 0.0]], "tail_bound": 0.0}))
        gp = tmp_path / "group.json"
        group = make_group([make_scale_shift(*gen) for gen in gens])
        gp.write_text(json.dumps(skio.group_to_dict(group)))
        return main(["scale-transform", "--signal", str(sp), "--group", str(gp),
                     "--window", window, "--time-len", "4", "--tol", "1e-10",
                     "--out", str(tmp_path / "out.json")])

    def test_scale_transform_refuses_pole_inside_the_circle(self, tmp_path, capsys):
        # multiplier 0.5 at scale 64: |a| and |b| round equal, so the
        # element's pole is not strictly outside the circle
        assert self._transform_on_group(tmp_path, [(0.5, 0.0)], "[[0],[64]]") == 2
        assert capsys.readouterr().err.startswith(
            "error: scale index (64,): not an SU(1,1) pair")

    def test_scale_transform_accepts_two_generator_identity(self, tmp_path, capsys):
        # (16, -8) is the identity, which repeated squaring refused
        gens = [(0.5, 0.2), (0.25, 0.2)]
        assert self._transform_on_group(tmp_path, gens, "[[0,0],[16,-8]]") == 0
        assert capsys.readouterr().err == ""

    def test_spectrum(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        write_system(path, [{(1,): 1.0}])
        code = main(["spectrum", "--signal", str(path), "--grid", "8"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["grid_sizes"] == [8]
        vals = [complex(re, im) for re, im in doc["values"]]
        theta = 2 * np.pi * np.arange(8) / 8
        assert np.abs(np.array(vals) - np.exp(-1j * theta)).max() < 1e-12

    def test_spectrum_negative_slice_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        write_system(path, [{(1,): 1.0}])
        assert main(["spectrum", "--signal", str(path), "--n", "-1", "--grid", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --n must be a time index >= 0, got -1\n"

    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    def test_spectrum_beyond_the_double_range_exits_2(self, suffix, tmp_path, capsys):
        # 1e308 + 1e308 overflows at theta = 0: exit 2 naming the grid index,
        # no output file, and no numpy warning from the FFT
        path, out = tmp_path / "s.json", tmp_path / f"g{suffix}"
        write_system(path, [{(0,): 1e308, (1,): 1e308}])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["spectrum", "--signal", str(path), "--grid", "4", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: spectrum value at grid index j = (0,) is not a finite double\n")
        assert not out.exists()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_spectrum_csv_output(self, tmp_path):
        path = tmp_path / "s.json"
        write_system(path, [{(0,): 1.0}])
        out = tmp_path / "g.csv"
        assert main(["spectrum", "--signal", str(path), "--grid", "4",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "j1,re,im"
        assert len(lines) == 5

    def test_gtf_eval(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        write_system(path, [{(1,): 1.0}, {(0,): 1.0}])
        code = main(["gtf-eval", "--system", str(path), "--z", "[0.25, 0.0]",
                     "--zs", "[[0.5, 0.0]]"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert complex(*doc["value"]) == pytest.approx(0.75)

    @pytest.mark.parametrize("z, zs, message", [
        ("[NaN, 0]", "[[0.5, 0]]", "error: z is not finite: (nan+0j)\n"),
        ("[0.25, 0]", "[[0, Infinity]]", "error: zs[0] is not finite: infj\n"),
        ("[0.25, 0]", "[[1e200, 0]]", "error: the transfer value overflows at "
                                      "z=(0.25+0j), zs=[(1e+200+0j)]\n"),
    ])
    def test_gtf_eval_non_finite_is_usage_error(self, tmp_path, capsys, z, zs, message):
        path = tmp_path / "s.json"
        write_system(path, [{(2,): 1.0}, {(0,): 1.0}])
        assert main(["gtf-eval", "--system", str(path), "--z", z, "--zs", zs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message


class TestVerify:
    def test_verify_ok(self, geometric_json, capsys):
        code = main(["verify", "--property", "dissipative",
                     "--system", geometric_json, "--trials", "10",
                     "--seed", "5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["max_ratio"] <= 1 + 1e-9

    def test_verify_deterministic(self, geometric_json, tmp_path):
        outs = []
        for name in ("v1.json", "v2.json"):
            out = tmp_path / name
            assert main(["verify", "--property", "bibo",
                         "--system", geometric_json, "--trials", "5",
                         "--seed", "9", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_dissipative_bound_beyond_double_range_exits_2(self, tmp_path, capsys):
        # at 2^900 the certified sup is finite, but its square, the energy
        # bound, is not a double: exit 2 before any output, not a traceback
        s = math.ldexp(1.0, 900)
        path = tmp_path / "probe.json"
        write_system(path, [{(0,): s, (3,): s / 2, (5,): -0.25j * s}])
        assert main(["verify", "--property", "dissipative", "--system", str(path),
                     "--trials", "1", "--seed", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: bound ")

    @pytest.mark.parametrize("prop", ["bibo", "dissipative"])
    def test_extreme_scales_keep_the_ratio(self, tmp_path, capsys, prop):
        # the draws are convolved with h 2^-E and the bound is scaled back:
        # the output norms underflowed to a ratio of 0 at 2^-600 and
        # overflowed at 2^900.  The dissipative bound, a squared sup, rounds
        # up to the least subnormal at 2^-600 (2^900 exits 2, above).  2^-1
        # is the reference, a pass for both properties
        power = 2 if prop == "dissipative" else 1
        docs = {}
        for k in (-1, -600) if power == 2 else (-1, -600, 900):
            s = math.ldexp(1.0, k)
            path = tmp_path / f"probe{k}.json"
            write_system(path, [{(0,): s, (3,): s / 2, (5,): -0.25j * s}])
            assert main(["verify", "--property", prop, "--system", str(path),
                         "--trials", "3", "--seed", "0"]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            docs[k] = json.loads(captured.out)
        for k, doc in docs.items():
            assert doc["max_ratio"] == docs[-1]["max_ratio"] > 0.0
            assert doc["bound"] == max(math.ldexp(docs[-1]["bound"], power * (k + 1)),
                                       math.ldexp(1.0, -1074))


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_malformed_json_system(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["analyze", "--property", "bibo",
                     "--system", str(path)]) == 2

    def test_console_entrypoint(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "scalekit.cli", "moments-check",
             "--moments", '{"t":[[1,0]]}'],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["is_psd"] is True

    def test_imports_without_scipy(self):
        code = "import sys; sys.modules['scipy'] = None; import scalekit.cli"
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


# one valid argument list per command; the files need not exist to parse
COMMAND_ARGS = {
    "scale-transform": ["--signal", "f.json", "--group", "g.json", "--window", "[[0],[1]]",
                        "--time-len", "4", "--tol", "1e-6"],
    "filter": ["--h", "h.csv", "--u", "u.csv"],
    "oracle": ["--h", "h.csv", "--u", "u.json", "--out", "y.csv"],
    "spectrum": ["--signal", "y.csv", "--n", "2", "--grid", "8,4"],
    "gtf-eval": ["--system", "h.json", "--z", "[0.5, 0]", "--zs", "[[0.9, 0]]"],
    "moments-check": ["--moments", "m.json", "--tol", "0"],
    "stieltjes": ["--moments", "m.json", "--a", "0", "--b", "1", "--r", "0.9"],
    "analyze": ["--property", "bibo", "--system", "h.csv"],
    "verify": ["--property", "l1l2", "--system", "h.csv", "--trials", "3", "--seed", "2"],
}


def parse(parser, argv):
    """(namespace without func, exit code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    namespace, code = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = {k: v for k, v in vars(parser.parse_args(argv)).items() if k != "func"}
        except SystemExit as exc:
            code = exc.code
    return namespace, code, out.getvalue(), err.getvalue()


class TestDispatch:
    """main parses every command on the one parser build_parser makes, once
    per process."""

    def test_every_command_has_arguments(self):
        assert list(COMMAND_ARGS) == list(COMMANDS)

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_every_command_parses_on_the_one_parser(self, name):
        parser = build_parser()
        args = COMMAND_ARGS[name]
        for argv, code in (([name, "-h"], 0),
                           ([name, *args], None),
                           ([name, *args, "--out"], 2),
                           ([name, *args, "--bogus", "1"], 2),
                           ([name, "--tol", "x"], 2),
                           ([name], 2)):
            assert parse(parser, argv)[1] == code
        namespace = parse(parser, [name, *args])[0]
        assert namespace["command"] == name
        assert parser.parse_args([name, *args]).func is COMMANDS[name][1]

    def test_cached_parsers_keep_no_state(self, geometric_json, capsys):
        # one process: a valid request, a usage error and help on the same
        # cached parser leave the next valid request's report unchanged
        request = ["analyze", "--property", "dissipative", "--system", geometric_json]
        assert main(request) == 0
        first = capsys.readouterr().out
        assert main(["analyze", "--tol", "x"]) == 2
        assert main(["analyze", "-h"]) == 0 and main(["-h"]) == 0
        assert "--property" in capsys.readouterr().out
        assert main(request) == 0
        assert capsys.readouterr().out == first

    def test_one_parser_per_command(self, monkeypatch, capsys):
        # every command, -h and an unknown word are parsed by one object
        from scalekit import cli
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(build_parser()) or built[-1])
        assert main(["moments-check", "--moments", '{"t":[[1,0]]}']) == 0
        assert main(["analyze", "-h"]) == 0 and main(["-h"]) == 0
        assert main(["frobnicate"]) == 2 and main([]) == 2
        assert len(built) == 5 and all(p is build_parser() for p in built)

    @pytest.mark.parametrize("argv, code", [(["-h"], 0), ([], 2), (["frobnicate"], 2)])
    def test_no_command_lists_all_nine(self, argv, code, capsys):
        assert main(argv) == code
        captured = capsys.readouterr()
        words = " ".join((captured.out if code == 0 else captured.err).split())
        assert "{" + ",".join(COMMANDS) + "}" in words
        if code == 0:
            for name, (help_text, _, _) in COMMANDS.items():
                assert f"{name} {help_text}" in words
