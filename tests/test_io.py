import io
import json
import re
import warnings

import numpy as np
import pytest

from scalekit import (
    CoeffSeq, MomentSequence, ScaleSignal, ScaleTimeSignal, SuMatrix, bibo_analysis,
    dissipativity_check, empirical_verify, l1l2_gain, make_group, make_scale_shift,
    mult_operator_norm, scale_fourier,
)
from scalekit import io as skio
from scalekit._jsonfmt import dumps
from scalekit.stability import OperatorNormBracket, StabilityReport
from helpers import random_time_signal


class TestJsonFmt:
    def test_float_17_digits(self):
        assert dumps(0.1) == "0.10000000000000001"
        assert dumps({"x": [1, 2.5]}) == '{"x":[1,2.5]}'

    def test_preserves_field_order(self):
        assert dumps({"b": 1, "a": 2}) == '{"b":1,"a":2}'

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            dumps(float("nan"))

    def test_string_escapes(self):
        assert dumps({"s": 'a"b\n'}) == '{"s":"a\\"b\\n"}'

    def test_roundtrips_through_stdlib(self):
        doc = {"v": [0.1, -2.0, 3], "w": {"t": True, "n": None}}
        assert json.loads(dumps(doc)) == doc


class TestMatrixGroupJson:
    def test_matrix_roundtrip(self):
        m = make_scale_shift(0.37, -0.8)
        back = skio.sumatrix_from_dict(skio.sumatrix_to_dict(m))
        assert back.entry_distance(m) == 0.0

    def test_matrix_revalidates(self):
        with pytest.raises(ValueError):
            skio.sumatrix_from_dict({"a": [1.5, 0.0], "b": [0.5, 0.0]})

    def test_group_roundtrip(self):
        g = make_group([make_scale_shift(0.5, 0.3), make_scale_shift(0.25, 0.3)])
        back = skio.group_from_dict(skio.group_to_dict(g))
        assert back.p == 2
        for a, b in zip(back.generators, g.generators):
            assert a.entry_distance(b) == 0.0

    def test_group_declared_p_mismatch(self):
        g = make_group([make_scale_shift(0.5, 0.3)])
        doc = skio.group_to_dict(g)
        doc["p"] = 2
        with pytest.raises(ValueError, match="declared p"):
            skio.group_from_dict(doc)


class TestSignalFormats:
    def test_dense_json_roundtrip(self):
        rng = np.random.default_rng(5)
        sig = random_time_signal(rng, 2, time_len=3)
        back = skio.signal_from_dict(skio.signal_to_dict(sig))
        assert back.distance(sig) < 1e-16

    def test_csv_roundtrip(self):
        rng = np.random.default_rng(7)
        sig = random_time_signal(rng, 1, time_len=4)
        buf = io.StringIO()
        skio.write_signal_csv(sig, buf)
        back = skio.read_signal_csv(io.StringIO(buf.getvalue()))
        assert back.distance(sig) < 1e-16

    def test_csv_header_checked(self):
        with pytest.raises(ValueError, match="header"):
            skio.read_signal_csv(io.StringIO("a,b,c\n"))

    def test_csv_field_count_checked(self):
        bad = "n,k1,re,im\n0,0,1.0\n"
        with pytest.raises(ValueError, match="line 2"):
            skio.read_signal_csv(io.StringIO(bad))

    def test_csv_sorted_lexicographically(self):
        rng = np.random.default_rng(11)
        sig = random_time_signal(rng, 2, time_len=2)
        buf = io.StringIO()
        skio.write_signal_csv(sig, buf)
        rows = buf.getvalue().strip().splitlines()[1:]
        keys = [tuple(int(x) for x in r.split(",")[:3]) for r in rows]
        assert keys == sorted(keys)

    def test_coeffseq_roundtrip(self):
        f = CoeffSeq(np.array([1.0, 2j, -0.5]), tail_bound=0.125)
        back = skio.coeffseq_from_dict(skio.coeffseq_to_dict(f))
        assert np.array_equal(back.coeffs, f.coeffs)
        assert back.tail_bound == 0.125

    def test_moments_roundtrip(self):
        ms = MomentSequence((1.0, 0.5 + 0.25j))
        back = skio.moments_from_dict(skio.moments_to_dict(ms))
        assert back.t == ms.t

    def test_spectrum_csv(self):
        rng = np.random.default_rng(13)
        sig = random_time_signal(rng, 1, time_len=1)
        grid = scale_fourier(sig.slice(0), [8])
        buf = io.StringIO()
        skio.write_spectrum_csv(grid, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "j1,re,im"
        assert len(lines) == 9


def masked(doc) -> str:
    """The JSON text of doc with every number replaced by #."""
    return re.sub(r"(?<![\w\"])-?[0-9][0-9.e+-]*", "#", dumps(doc))


H_TWO_STEPS = ScaleTimeSignal([ScaleSignal({(0,): 0.5, (1,): 0.25}, arity=1),
                               ScaleSignal.delta((0,), 1, 0.25)])
H_PASS = ScaleTimeSignal([ScaleSignal.delta((0,), 1, 0.25), ScaleSignal.delta((1,), 1, 0.25)])
H_FAIL = ScaleTimeSignal([ScaleSignal({(0,): 1.0, (1,): 0.5}, arity=1)])


class TestJsonLayouts:
    """Key order and nesting of every JSON value the writers produce."""

    def test_bibo_report(self):
        doc = skio.report_to_dict(bibo_analysis(H_TWO_STEPS, tol=1e-3))
        maximizer = doc["witnesses"].pop("maximizer")
        assert {masked(entry) for entry in maximizer} == {'{"k":[#],"value":[#,#]}'}
        assert masked(doc) == (
            '{"property":"bibo","verdict":"pass","sufficient_upper":#,"necessary_lower":#,'
            '"witnesses":{"character_angles":[#]},"details":{"slice_brackets":['
            '{"lower":#,"upper":#,"certified":true,"grid_sizes":[#],"witness_angles":[#]},'
            '{"lower":#,"upper":#,"certified":true,"grid_sizes":[],"witness_angles":[]}],'
            '"certified":true,"window_spans":[[#,#]],"cone":false,"seed":#}}')

    def test_dissipative_pass(self):
        report = dissipativity_check(H_PASS, tol=1e-3, sample_count=1, points_per_set=2)
        assert masked(skio.report_to_dict(report)) == (
            '{"property":"dissipative","verdict":"pass","sup_bracket":{"lower":#,"upper":#,'
            '"certified":true,"grid_sizes":[#,#],"witness_angles":[#,#]},"witnesses":{},'
            '"details":{"seed":#,"tol":#,"sample_count":#,"points_per_set":#,'
            '"gram_min_eigenvalue":#}}')

    def test_dissipative_fail(self):
        report = dissipativity_check(H_FAIL, tol=1e-3, sample_count=0)
        assert masked(skio.report_to_dict(report)) == (
            '{"property":"dissipative","verdict":"fail","sup_bracket":{"lower":#,"upper":#,'
            '"certified":false,"grid_sizes":[#,#],"witness_angles":[#,#]},'
            '"witnesses":{"argmax_angles":[#,#],"argmax_value":#},"details":{"seed":#,'
            '"tol":#,"sample_count":#,"points_per_set":#,'
            '"gram":"skipped (no samples requested)"}}')

    def test_l1l2_report(self):
        assert dumps(skio.report_to_dict(l1l2_gain(H_PASS))) == (
            '{"property":"l1_l2","verdict":"pass","gain":0.35355339059327379,'
            '"witnesses":{},"details":{"coefficient_energy":0.125}}')

    def test_empirical_report(self):
        report = empirical_verify(H_PASS, "l1l2", 1, 0)
        assert masked(skio.empirical_to_dict(report)) == (
            '{"property":"l1_l2","trials":#,"seed":#,"bound":#,"max_ratio":#,"ok":true,'
            '"analyzer_verdict":"pass"}')

    def test_exact_bracket(self):
        bracket = mult_operator_norm(ScaleSignal.delta((2,), 1, 0.5))
        assert dumps(skio.bracket_to_dict(bracket)) == (
            '{"lower":0.5,"upper":0.5,"certified":true,"grid_sizes":[],"witness_angles":[]}')

    def test_hand_built_report(self):
        # None fields left out, numpy scalars, signed zeros, non-string keys
        report = StabilityReport(
            "bibo", "inconclusive", sufficient_upper=2, necessary_lower=np.float64(0.5),
            witnesses={"maximizer": ScaleSignal({(-1,): 0.5, (2,): -0.25j}, arity=1),
                       "character_angles": (0.0, np.float64(-0.0))},
            details={"slice_brackets": [OperatorNormBracket(0.5, 0.75, False, (8,), (0.25,))],
                     "window_spans": [(-3, 4)], 7: np.int64(3), "z": 1 - 2j, "cone": False,
                     "gram": "skipped"})
        assert dumps(skio.report_to_dict(report)) == (
            '{"property":"bibo","verdict":"inconclusive","sufficient_upper":2,'
            '"necessary_lower":0.5,"witnesses":{"maximizer":[{"k":[-1],"value":[0.5,0]},'
            '{"k":[2],"value":[-0,-0.25]}],"character_angles":[0,-0]},"details":{'
            '"slice_brackets":[{"lower":0.5,"upper":0.75,"certified":false,"grid_sizes":[8],'
            '"witness_angles":[0.25]}],"window_spans":[[-3,4]],"7":3,"z":[1,-2],"cone":false,'
            '"gram":"skipped"}}')

    def test_spectrum(self):
        grid = scale_fourier(ScaleSignal({(0,): 0.5, (1,): -0.25j}, arity=1), [2])
        assert dumps(skio.spectrum_to_dict(grid)) == (
            '{"grid_sizes":[2],"values":[[0.5,-0.25],[0.5,0.25]]}')

    def test_coeffseq(self):
        f = CoeffSeq(np.array([1.0, 0.5j]), tail_bound=0.25)
        assert dumps(skio.coeffseq_to_dict(f)) == '{"coeffs":[[1,0],[0,0.5]],"tail_bound":0.25}'

    def test_moments(self):
        ms = MomentSequence((1.0, 0.5 - 0.25j))
        assert dumps(skio.moments_to_dict(ms)) == '{"t":[[1,0],[0.5,-0.25]]}'

    def test_matrix_and_group(self):
        m = SuMatrix(1.25, 0.75)
        assert dumps(skio.sumatrix_to_dict(m)) == '{"a":[1.25,0],"b":[0.75,0]}'
        g = make_group([m, SuMatrix(2.125, 1.875)])
        assert dumps(skio.group_to_dict(g)) == (
            '{"p":2,"generators":[{"a":[1.25,0],"b":[0.75,0]},{"a":[2.125,0],"b":[1.875,0]}]}')


def read_csv(text):
    return skio.read_signal_csv(io.StringIO(text, newline=""))


def csv_text(sig) -> str:
    buf = io.StringIO()
    skio.write_signal_csv(sig, buf)
    return buf.getvalue()


class TestCsvReader:
    def test_blank_lines_crlf_spaces_and_quotes(self):
        sig = read_csv('n,k1,re,im\r\n\r\n0, 1 ,"0.5", -0.25\r\n\r\n2,-2,1e-3,0\r\n')
        assert sig.time_len == 3
        assert list(sig.items()) == [(0, (1,), 0.5 - 0.25j), (2, (-2,), 0.001 + 0j)]

    def test_bad_row_after_blank_line_names_its_line(self):
        with pytest.raises(ValueError, match="line 4"):
            read_csv("n,k1,re,im\n0,0,1,0\n\n0,x,1,0\n")

    def test_float_key_refused(self):
        with pytest.raises(ValueError, match="line 2"):
            read_csv("n,k1,re,im\n0,1.0,1,0\n")

    @pytest.mark.parametrize("key", ["1.5", "1e3", "nan"])
    def test_float_key_refused_with_warnings_ignored(self, key):
        # numpy releases that cast a float-like integer field only warn
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match="line 2"):
                read_csv(f"n,k1,re,im\n0,{key},1,0\n")

    def test_float_cast_warning_becomes_value_error(self, monkeypatch):
        def loadtxt(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match="line 2: loadtxt"):
                read_csv("n,k1,re,im\n0,1.5,1,0\n")

    def test_non_seekable_handle(self):
        class Pipe(io.BytesIO):
            def seekable(self):
                return False

        def pipe(text):
            return io.TextIOWrapper(Pipe(text.encode()), newline="")

        sig = skio.read_signal_csv(pipe("n,k1,re,im\n0,1,0.5,0\n\n2,-2,1,0\n"))
        assert list(sig.items()) == [(0, (1,), 0.5 + 0j), (2, (-2,), 1 + 0j)]
        with pytest.raises(ValueError, match="'x'"):
            skio.read_signal_csv(pipe("n,k1,re,im\n0,x,1,0\n"))
        with pytest.raises(ValueError, match="negative time index"):
            skio.read_signal_csv(pipe("n,k1,re,im\n-1,0,1,0\n"))

    @pytest.mark.parametrize("value", ["nan,0", "0,inf", "-inf,1"])
    def test_non_finite_values_refused(self, value):
        with pytest.raises(ValueError, match="finite"):
            read_csv(f"n,k1,re,im\n0,0,{value}\n")

    def test_negative_time_refused_with_line(self):
        with pytest.raises(ValueError, match="line 3: negative time index"):
            read_csv("n,k1,re,im\n0,0,1,0\n-1,0,1,0\n")

    def test_header_only_is_one_zero_step(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sig = read_csv("n,k1,k2,re,im\n")
        assert sig.time_len == 1 and sig.arity == 2 and sig.is_zero

    def test_duplicates_sum_in_row_order_and_signed_zeros_survive(self):
        # in row order (1 + 1e16) - 1e16 rounds to 0, so (0, 0) has no entry
        sig = read_csv("n,k1,re,im\n0,0,1,0\n0,0,1e16,0\n0,0,-1e16,0\n"
                       "0,1,2,-0.0\n0,1,0.5,-0.0\n1,0,-0.0,3\n")
        assert csv_text(sig) == "n,k1,re,im\n0,1,2.5,-0\n1,0,-0,3\n"


class TestSpectrumCsv:
    def test_bytes_match_format_loop(self):
        grid = scale_fourier(ScaleSignal({(0, 0): 1.0, (1, -1): 0.3 - 0.7j}, arity=2), [3, 4])
        buf = io.StringIO()
        skio.write_spectrum_csv(grid, buf)
        rows = "".join(f"{j1},{j2},{format(z.real, '.17g')},{format(z.imag, '.17g')}\n"
                       for (j1, j2), z in np.ndenumerate(grid.values))
        assert buf.getvalue() == "j1,j2,re,im\n" + rows

    def test_chunks_join_seamlessly(self, monkeypatch):
        grid = scale_fourier(ScaleSignal({(0, 0): 1.0, (1, -1): 0.3 - 0.7j}, arity=2), [3, 4])
        whole = io.StringIO()
        skio.write_spectrum_csv(grid, whole)
        sig = random_time_signal(np.random.default_rng(3), arity=2, time_len=4)
        whole_sig = csv_text(sig)
        monkeypatch.setattr(skio, "_CHUNK_ROWS", 5)
        chunked = io.StringIO()
        skio.write_spectrum_csv(grid, chunked)
        assert chunked.getvalue() == whole.getvalue()
        assert csv_text(sig) == whole_sig
