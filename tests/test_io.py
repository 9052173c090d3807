import contextlib
import io
import json
import math
import os
import re
import struct
import sys
import tempfile
import unittest.mock
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalekit import (
    CoeffSeq, MomentSequence, ScaleSignal, ScaleTimeSignal, SuMatrix, bibo_analysis,
    dissipativity_check, empirical_verify, l1l2_gain, make_group, make_scale_shift,
    mult_operator_norm, scale_fourier,
)
from scalekit import io as skio
from scalekit import _jsonfmt as jsonfmt
from scalekit._jsonfmt import dumps
from scalekit.spectral import SpectrumGrid
from scalekit.stability import OperatorNormBracket, StabilityReport
from helpers import fifo_bytes, random_time_signal


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

    def test_float_rows_match_per_float_path(self):
        edge = np.array([[-0.0, 0.0], [5e-324, -2.2250738585072014e-308], [1e300, -1e-300]])
        rows = np.random.default_rng(4).standard_normal(((1 << 14) + 3, 2)) * 1e5
        for array in (edge, rows, rows[:, :1], rows.T.copy(), np.zeros((0, 2))):
            assert dumps({"data": array}) == dumps({"data": array.tolist()})

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_entry_list_matches_the_generic_walk(self, p, monkeypatch):
        # signed zero parts, negative keys, a far origin, and more than one
        # chunk of rows (the chunk is cut to 7 rows), and a sparse box whose
        # keys lie far apart
        rng = np.random.default_rng(p)
        shape = (5, 4, 3)[:p]
        array = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        array[rng.random(shape) < 0.3] = 0.0
        array.flat[1] = complex(-0.0, 0.5)
        array.flat[2] = complex(0.25, -0.0)
        sparse = np.zeros(shape[:-1] + (100,), complex)
        sparse.flat[rng.choice(sparse.size, 9, replace=False)] = 1.5 - 2j
        for array, origin in [(a, o) for a in (array, sparse)
                              for o in ((-3,) * p, (2 ** 70,) + (-7,) * (p - 1))]:
            sig = ScaleSignal._from_box(array.copy(), origin)
            walk = [{"k": list(idx), "value": skio.pair(v)} for idx, v in sig.items()]
            assert dumps(skio.to_dict(sig)) == dumps(walk)
            monkeypatch.setattr(jsonfmt, "_CHUNK_ROWS", 7)
            assert dumps(skio.to_dict(sig)) == dumps(walk)
            monkeypatch.undo()
        assert dumps(skio.to_dict(ScaleSignal.zero(p))) == "[]"

    def test_float_rows_reject_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            array = np.zeros((3, 2))
            array[2, 1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                dumps(array)


def percent_cells(values) -> str:
    return ",".join("%.17g" % v for v in values)


def kernel_cells(values) -> str:
    return jsonfmt._table([np.asarray(values, float)], len(values), ",").decode()


# every finite double by its bit pattern, subnormals and -0.0 included
FINITE_BITS = st.integers(0, 2 ** 64 - 1).map(
    lambda b: struct.unpack("<d", b.to_bytes(8, "little"))[0]).filter(math.isfinite)


class TestTableKernel:
    """The _jsonfmt table kernel against the '%.17g' it replaces."""

    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), FINITE_BITS),
                    min_size=1, max_size=64))
    def test_float_cells_match_percent_format(self, values):
        assert kernel_cells(values) == percent_cells(values)

    def test_edge_values(self):
        powers = np.array([float(f"1e{k}") for k in range(-324, 309)])
        ulps = np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0)])
        notation = [1e-5, 9.9999999999999991e-06, 1.0000000000000001e-05, 1e-4,
                    9.9999999999999991e-05, 1e16, 9999999999999998.0, 1e17,
                    99999999999999984.0, 1.0000000000000002e17]
        integers = [2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, sys.float_info.max,
                    sys.float_info.min, 5e-324, 0.0, -0.0]
        # exact 17-digit ties (half to even) and decimal near-ties with
        # their neighbours
        ties = [2.0 ** 50 + 0.25, 2.0 ** 50 + 0.75, 2.0 ** 49 + 0.125, 2.0 ** 49 + 0.375]
        rng = np.random.default_rng(17)
        near = np.array([float(f"{d}5e{e}") for d, e in zip(
            rng.integers(10 ** 16, 10 ** 17, 300).tolist(),
            rng.integers(-330, 290, 300).tolist())])
        near = np.concatenate([near, np.nextafter(near, np.inf), np.nextafter(near, 0)])
        values = np.concatenate([ulps, notation, integers, ties, near])
        values = np.concatenate([values, -values])
        assert kernel_cells(values) == percent_cells(values)

    def test_double_double_path_decides_ordinary_values(self):
        # the '%' fallback is for near-ties and the table's edges only
        rng = np.random.default_rng(5)
        values = rng.standard_normal(4096) * 10.0 ** rng.integers(-30, 30, 4096)
        decided = jsonfmt._scaled_digits(np.abs(values))[0]
        assert decided.mean() > 0.999
        assert not jsonfmt._scaled_digits(np.array([5e-324, 1e-300, 1.7e308]))[0].any()

    def test_key_columns_exact_for_any_origin(self):
        # negative keys, origins beyond int64, and index spans within and
        # beyond the row count
        index = np.array([0, 5, 5, 2, 9, 0, 3, 7, 1, 4])
        for origin in (-7, 2 ** 63, 2 ** 70, -(2 ** 64) - 3):
            for idx in (index, index * 1000):
                text = jsonfmt._table([(idx, origin), ";"], len(idx)).decode()
                assert text == "".join(f"{i + origin};" for i in idx.tolist())

    def test_non_finite_cells_as_percent_writes_them(self):
        # the CSV writers refuse such values (TestNonFiniteRefused), but the
        # kernel under them writes them as '%' does
        values = np.array([[complex(np.inf, 1.5), complex(np.nan, -np.inf)],
                           [complex(-0.0, 1e-310), complex(0.25, np.nan)]])
        text = b"".join(jsonfmt._keyed_chunks(values.shape, (0, 0), range(values.size),
                                              values.reshape(-1), "", ",", "\n")).decode()
        rows = "".join(f"{j1},{j2},{'%.17g' % z.real},{'%.17g' % z.imag}\n"
                       for (j1, j2), z in np.ndenumerate(values))
        assert text == rows

    @settings(max_examples=150)
    @given(st.data())
    def test_rows_match_per_row_format(self, data):
        # full rows through _keyed_chunks, chunks of 1-8 rows so that rows
        # cross chunk boundaries; key texts of every packed width (1, 2, 4
        # and 8 bytes) and wider, index spans shorter and longer than the
        # row count (the range and the unique path)
        n = data.draw(st.integers(1, 24))
        arity = data.draw(st.integers(1, 3))
        origin = data.draw(st.lists(st.one_of(
            st.integers(-9, 9), st.integers(-10 ** 3, 10 ** 3), st.integers(-10 ** 7, 10 ** 7),
            st.integers(-(2 ** 63), 2 ** 63 + 10), st.integers(-(2 ** 80), 2 ** 80)),
            min_size=arity, max_size=arity))
        shape = data.draw(st.lists(st.one_of(st.integers(1, n), st.integers(n + 1, 1000)),
                                   min_size=arity, max_size=arity))
        index = [np.array(data.draw(st.lists(st.integers(0, s - 1), min_size=n, max_size=n)))
                 for s in shape]
        # a column at most half nonzero is scaled at its nonzeros only
        zeros = st.sampled_from([0.0, -0.0])
        parts = data.draw(st.sampled_from([
            st.one_of(FINITE_BITS, st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308])),
            st.one_of(zeros, zeros, zeros, FINITE_BITS)]))
        values = np.array([complex(*data.draw(st.tuples(parts, parts))) for _ in range(n)])
        head, mid, tail, sep = data.draw(st.sampled_from(
            [("", ",", "\n", ""), ('{"k":[', '],"value":[', "]}", ",")]))
        flat = np.ravel_multi_index(index, shape)
        with unittest.mock.patch.object(jsonfmt, "_CHUNK_ROWS", data.draw(st.integers(1, 8))):
            text = sep.join(c.decode() for c in jsonfmt._keyed_chunks(
                shape, origin, flat, values, head, mid, tail, sep))
        rows = [head + ",".join("%d" % (i + o) for i, o in zip(key, origin)) + mid
                + "%.17g,%.17g" % (z.real, z.imag) + tail
                for *key, z in zip(*(i.tolist() for i in index), values.tolist())]
        assert text == sep.join(rows)

    def test_pow10_columns_built_on_demand_match_the_exact_table(self, monkeypatch):
        monkeypatch.setattr(jsonfmt, "_POW10", np.zeros_like(jsonfmt._POW10))
        ks = np.arange(jsonfmt._K_MIN, jsonfmt._K_MAX + 1)
        cols = jsonfmt._K_MAX - ks
        jsonfmt._pow10(cols[::7][::-1])  # some columns first, out of order
        got = jsonfmt._pow10(cols)
        # 10^(16-k) exactly; float() of a Fraction rounds correctly
        exact = [Fraction(10) ** (16 - k) for k in ks.tolist()]
        h = np.array([float(x) for x in exact])
        low = np.array([float(x - Fraction(v)) for x, v in zip(exact, h.tolist())])
        t = h * jsonfmt._SPLIT
        hh = t - (t - h)
        assert got.tobytes() == np.stack((h, hh, h - hh, low)).tobytes()

    def test_complex_array_written_as_rows_with_the_same_error(self):
        values = np.array([1 + 2j, complex(-0.0, 0.5), complex(3.0, np.nan)])
        doc = skio.to_dict(values)
        assert isinstance(doc, np.ndarray) and doc.shape == (3, 2)
        pairs = [skio.pair(z) for z in values]
        with pytest.raises(ValueError) as rows:
            dumps(doc)
        with pytest.raises(ValueError) as walk:
            dumps(pairs)
        assert str(rows.value) == str(walk.value) == "cannot serialize non-finite float nan"
        assert dumps(skio.to_dict(values[:2])) == dumps(pairs[:2]) == "[[1,2],[0,0.5]]"


class TestMatrixGroupJson:
    def test_matrix_roundtrip(self):
        m = make_scale_shift(0.37, -0.8)
        back = skio.sumatrix_from_dict(skio.to_dict(m))
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

    def test_csv_file_is_the_text_encoded(self, tmp_path):
        # write_time_signal's file takes the kernel's bytes as they are, a
        # text handle gets them decoded
        rng = np.random.default_rng(7)
        sig = random_time_signal(rng, 2, time_len=4)
        text, path = io.StringIO(), tmp_path / "s.csv"
        skio.write_signal_csv(sig, text)
        skio.write_time_signal(sig, str(path))
        assert path.read_bytes() == text.getvalue().encode("ascii")

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
        back = skio.coeffseq_from_dict(skio.to_dict(f))
        assert np.array_equal(back.coeffs, f.coeffs)
        assert back.tail_bound == 0.125

    def test_moments_roundtrip(self):
        ms = MomentSequence((1.0, 0.5 + 0.25j))
        back = skio.moments_from_dict(skio.to_dict(ms))
        assert back.t == ms.t

    def test_signed_zero_parts_roundtrip_byte_for_byte(self):
        # a -0.0 part is written as 0, since a JSON reader parses "-0" as
        # the integer 0; the written text then survives write -> read -> write
        cases = [
            (CoeffSeq(np.array([complex(-0.0, 0.5), 1.0])), skio.coeffseq_from_dict,
             '{"coeffs":[[0,0.5],[1,0]],"tail_bound":0}'),
            (MomentSequence((1.0, complex(-0.0, -0.0), complex(0.5, -0.0))),
             skio.moments_from_dict, '{"t":[[1,0],[0,0],[0.5,0]]}'),
        ]
        for value, read, text in cases:
            assert dumps(skio.to_dict(value)) == text
            assert dumps(skio.to_dict(read(json.loads(text)))) == text

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
        doc = json.loads(dumps(skio.report_to_dict(bibo_analysis(H_TWO_STEPS, tol=1e-3))))
        maximizer = doc["witnesses"].pop("maximizer")
        assert {masked(entry) for entry in maximizer} == {'{"k":[#],"value":[#,#]}'}
        assert masked(doc) == (
            '{"property":"bibo","verdict":"pass","sufficient_upper":#,"necessary_lower":#,'
            '"witnesses":{"character_angles":[#]},"details":{"slice_brackets":['
            '{"lower":#,"upper":#,"certified":true,"grid_sizes":[#],"witness_angles":[#],'
            '"evaluations":#},{"lower":#,"upper":#,"certified":true,"grid_sizes":[],'
            '"witness_angles":[#],"evaluations":#}],'
            '"certified":true,"window_spans":[[#,#]]}}')

    def test_to_dict_is_entered_once(self, monkeypatch):
        # the walk recurses privately, so a wrapped to_dict (as a tracer
        # wraps it) sees one call for a whole report
        calls = []
        walk = skio.to_dict
        monkeypatch.setattr(skio, "to_dict", lambda value: calls.append(value) or walk(value))
        report = bibo_analysis(H_TWO_STEPS, tol=1e-3)
        skio.to_dict(report)
        assert calls == [report]

    def test_dissipative_pass(self):
        # the terms at (0, 0) and (1, 1) lie on a line: a one-axis coarse grid
        report = dissipativity_check(H_PASS, tol=1e-3)
        assert masked(skio.report_to_dict(report)) == (
            '{"property":"dissipative","verdict":"pass","sup_bracket":{"lower":#,"upper":#,'
            '"certified":true,"grid_sizes":[#],"witness_angles":[#,#],"evaluations":#},'
            '"witnesses":{},"details":{"tol":#,"gram_min_eigenvalue":#}}')

    def test_dissipative_fail(self):
        report = dissipativity_check(H_FAIL, tol=1e-3)
        assert masked(skio.report_to_dict(report)) == (
            '{"property":"dissipative","verdict":"fail","sup_bracket":{"lower":#,"upper":#,'
            '"certified":false,"grid_sizes":[#],"witness_angles":[#,#],"evaluations":#},'
            '"witnesses":{"argmax_angles":[#,#],"argmax_value":#},'
            '"details":{"tol":#,"gram_min_eigenvalue":#}}')

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
        assert dumps(skio.to_dict(bracket)) == (
            '{"lower":0.5,"upper":0.5,"certified":true,"grid_sizes":[],"witness_angles":[0],'
            '"evaluations":0}')

    def test_hand_built_report(self):
        # None fields left out, numpy scalars, signed zeros, non-string keys
        report = StabilityReport(
            "bibo", "inconclusive", sufficient_upper=2, necessary_lower=np.float64(0.5),
            witnesses={"maximizer": ScaleSignal({(-1,): 0.5, (2,): -0.25j}, arity=1),
                       "character_angles": (0.0, np.float64(-0.0))},
            details={"slice_brackets": [OperatorNormBracket(0.5, 0.75, False, (8,), (0.25,))],
                     "window_spans": [(-3, 4)], 7: np.int64(3), "z": 1 - 2j, "certified": False,
                     "gram": "skipped"})
        assert dumps(skio.report_to_dict(report)) == (
            '{"property":"bibo","verdict":"inconclusive","sufficient_upper":2,'
            '"necessary_lower":0.5,"witnesses":{"maximizer":[{"k":[-1],"value":[0.5,0]},'
            '{"k":[2],"value":[0,-0.25]}],"character_angles":[0,-0]},"details":{'
            '"slice_brackets":[{"lower":0.5,"upper":0.75,"certified":false,"grid_sizes":[8],'
            '"witness_angles":[0.25],"evaluations":0}],"window_spans":[[-3,4]],"7":3,"z":[1,-2],'
            '"certified":false,'
            '"gram":"skipped"}}')

    def test_spectrum(self):
        grid = scale_fourier(ScaleSignal({(0,): 0.5, (1,): -0.25j}, arity=1), [2])
        assert dumps(skio.spectrum_to_dict(grid)) == (
            '{"grid_sizes":[2],"values":[[0.5,-0.25],[0.5,0.25]]}')

    def test_coeffseq(self):
        f = CoeffSeq(np.array([1.0, 0.5j]), tail_bound=0.25)
        assert dumps(skio.to_dict(f)) == '{"coeffs":[[1,0],[0,0.5]],"tail_bound":0.25}'

    def test_moments(self):
        ms = MomentSequence((1.0, 0.5 - 0.25j))
        assert dumps(skio.to_dict(ms)) == '{"t":[[1,0],[0.5,-0.25]]}'

    def test_matrix_and_group(self):
        m = SuMatrix(1.25, 0.75)
        assert dumps(skio.to_dict(m)) == '{"a":[1.25,0],"b":[0.75,0]}'
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


# CRLF endings, blank lines, spaces and quoted fields, as in the cases above
READER_TEXTS = [
    'n,k1,re,im\r\n\r\n0, 1 ,"0.5", -0.25\r\n\r\n2,-2,1e-3,0\r\n',
    '"n","k1","re","im"\n0,"1",0.5,"-0.25"\n\n\n2,-2,1,0',
    "n,k1,k2,re,im\r\n1,0,0,1,0\r\n0,0,-1,0.5,-0.0\r\n",
    "n,k1,re,im\n0,0,1,0\n0,0,1e16,0\n0,0,-1e16,0\n0,1,2,-0.0\n0,1,0.5,-0.0\n",
    "n,k1,k2,re,im\n",
]

BAD_READER_TEXTS = [
    ("n,k1,re,im\n0,0,1,0\n\n0,x,1,0\n", "line 4"),
    ("n,k1,re,im\r\n0,0,1,0\r\n\r\n0,x,1,0\r\n", "line 4"),
    ('n,k1,re,im\n\n"0","1.5",1,0\n', "line 3"),
    ("n,k1,re,im\r\n0,0,1,0\r\n-1,0,1,0\r\n", "line 3: negative time index"),
    ('n,k1,re,im\n0,0,"1"\n', "line 2"),
]


class TestPathAndHandleReaders:
    """read_time_signal hands numpy the path, read_signal_csv the handle;
    both must read the same signal and name the same bad line."""

    @pytest.fixture(autouse=True)
    def every_file_by_path(self, monkeypatch):
        monkeypatch.setattr(skio, "_BLOCK_READ_BYTES", 0)

    @staticmethod
    def both(tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        yield lambda: skio.read_time_signal(str(path))
        with open(path, newline="") as fh:
            yield lambda: skio.read_signal_csv(fh)

    @pytest.mark.parametrize("text", READER_TEXTS)
    def test_same_signal(self, tmp_path, text):
        by_path, by_handle = (read() for read in self.both(tmp_path, text))
        assert by_path.time_len == by_handle.time_len
        assert by_path.stack.origin == by_handle.stack.origin
        assert by_path.stack.array.shape == by_handle.stack.array.shape
        assert by_path.stack.array.tobytes() == by_handle.stack.array.tobytes()
        assert csv_text(by_path) == csv_text(read_csv(text))

    @pytest.mark.parametrize("text, line", BAD_READER_TEXTS)
    def test_bad_row_names_the_same_line(self, tmp_path, text, line):
        messages = []
        for read in self.both(tmp_path, text):
            with pytest.raises(ValueError, match=line) as err:
                read()
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_numpy_gets_the_path_of_a_large_file_only(self, tmp_path, monkeypatch):
        seen, loadtxt = [], np.loadtxt

        def spy(source, *args, **kwargs):
            seen.append(source)
            return loadtxt(source, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        path = tmp_path / "s.csv"
        path.write_text("n,k1,re,im\n0,1,0.5,0\n")
        for limit in (path.stat().st_size, path.stat().st_size + 1):
            monkeypatch.setattr(skio, "_BLOCK_READ_BYTES", limit)
            assert list(skio.read_time_signal(str(path)).items()) == [(0, (1,), 0.5 + 0j)]
        assert seen[0] == str(path.resolve()) and not isinstance(seen[1], str)


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
        monkeypatch.setattr(jsonfmt, "_CHUNK_ROWS", 5)
        chunked = io.StringIO()
        skio.write_spectrum_csv(grid, chunked)
        assert chunked.getvalue() == whole.getvalue()
        assert csv_text(sig) == whole_sig


GOOD_SIGNAL = {"arity": 1, "shape": [1, 2], "origin": [0], "data": [[1, 0], [0, 1]]}


def signal_with(**changes):
    return skio.signal_from_dict({**GOOD_SIGNAL, **changes})


def test_unpair_takes_a_scalar_as_a_real_value():
    assert skio.unpair(2) == 2 + 0j and skio.unpair(-0.5) == -0.5 + 0j


@pytest.mark.parametrize("call, exc, message", [
    pytest.param(lambda: skio.unpair("1+2j"), ValueError,
                 "expected [re, im] pair, got '1+2j'", id="unpair-string"),
    pytest.param(lambda: skio.unpair([1, 2, 3]), ValueError,
                 "expected [re, im] pair, got [1, 2, 3]", id="unpair-triple"),
    pytest.param(lambda: skio.sumatrix_from_dict({"a": [1, 0]}), ValueError,
                 "malformed matrix object: {'a': [1, 0]}", id="matrix"),
    pytest.param(lambda: skio.group_from_dict({"p": 1}), ValueError,
                 "malformed group object: {'p': 1}", id="group"),
    pytest.param(lambda: skio.coeffseq_from_dict([[1, 0]]), ValueError,
                 "malformed coefficient object: [[1, 0]]", id="coefficients"),
    pytest.param(lambda: skio.signal_from_dict([]), ValueError,
                 "malformed signal object: <class 'list'>", id="signal"),
    pytest.param(lambda: skio.moments_from_dict({"t": 1}), ValueError,
                 "malformed moments object: {'t': 1}", id="moments"),
    pytest.param(lambda: signal_with(arity=2), ValueError,
                 "inconsistent signal shape (1, 2) / origin (0,)", id="signal-shape"),
    pytest.param(lambda: signal_with(origin=[0, 0]), ValueError,
                 "inconsistent signal shape (1, 2) / origin (0, 0)", id="signal-origin"),
    pytest.param(lambda: signal_with(data=[[[1, 0]], [[0, 1]]]), ValueError,
                 "signal data must be [re, im] pairs or real numbers", id="signal-ndim"),
    pytest.param(lambda: signal_with(data=[[1, 0]]), ValueError,
                 "signal data length 1 does not match shape (1, 2)", id="signal-length"),
    pytest.param(lambda: read_csv("n,re,im\n0,1,0\n"), ValueError,
                 "CSV header must declare at least one scale axis", id="csv-no-scale-axis"),
])
def test_input_checks(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("obj, exc, message", [
    pytest.param({1: 2}, TypeError, "JSON object keys must be strings, got 1", id="int-key"),
    pytest.param({"s": {0.5}}, TypeError, "cannot serialize <class 'set'>", id="set"),
    pytest.param(1j, TypeError, "cannot serialize <class 'complex'>", id="complex"),
])
def test_jsonfmt_input_checks(obj, exc, message):
    with pytest.raises(exc) as info:
        dumps(obj)
    assert str(info.value) == message


class TestNonFiniteRefused:
    """Both CSV writers refuse a non-finite value with dumps' message,
    before they write anything."""

    def test_signal_csv(self):
        sig = ScaleTimeSignal._from_box(np.array([[1.0, complex(0.5, np.inf)]]), (0,))
        buf = io.StringIO()
        with pytest.raises(ValueError) as err:
            skio.write_signal_csv(sig, buf)
        assert str(err.value) == "cannot serialize non-finite float inf"
        assert buf.getvalue() == ""

    def test_spectrum_csv(self):
        values = np.array([[1.0, 2.0], [complex(np.nan, 1.0), 3.0]])
        buf = io.StringIO()
        with pytest.raises(ValueError) as err:
            skio.write_spectrum_csv(SpectrumGrid((2, 2), values), buf)
        assert str(err.value) == "cannot serialize non-finite float nan"
        assert buf.getvalue() == ""

    def test_time_signal_opens_no_file(self, tmp_path):
        # no file is created, and an existing file keeps its bytes
        sig = ScaleTimeSignal._from_box(np.array([[complex(-np.inf, 0.0)]]), (3,))
        for name in ("y.csv", "y.json"):
            path = tmp_path / name
            for before in (None, b"kept\n"):
                if before is not None:
                    path.write_bytes(before)
                with pytest.raises(ValueError, match="cannot serialize non-finite float -inf"):
                    skio.write_time_signal(sig, str(path))
                assert (path.read_bytes() if path.exists() else None) == before

    def test_json_opens_no_file(self, tmp_path, capsys):
        # a refused value creates no file; an empty path is stdout
        path = tmp_path / "r.json"
        with pytest.raises(ValueError, match="cannot serialize non-finite float nan"):
            skio.write_json({"x": math.nan}, str(path))
        assert not path.exists()
        for out in (None, ""):
            skio.write_json({"x": [0.1, 2]}, out)
        skio.write_json({"x": [0.1, 2]}, str(path))
        text = '{"x":[0.10000000000000001,2]}\n'
        assert capsys.readouterr().out == 2 * text and path.read_text() == text


# the parts of a written signal: signed zeros in values and in zero cells,
# subnormals and extremes among any finite double
WRITTEN_PARTS = st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, -1.7e308]) | st.floats(
    allow_nan=False, allow_infinity=False)


@st.composite
def written_signals(draw):
    """A signal as a (T, w_1..w_p) box handed over whole: zero time slices
    at either end, zero cells of either sign, negative origins, the zero
    signal when every cell is a zero."""
    arity = draw(st.integers(1, 3))
    shape = (draw(st.integers(1, 4)),) + tuple(draw(st.integers(1, 3)) for _ in range(arity))
    cells = math.prod(shape)
    parts = draw(st.lists(st.sampled_from([0.0, -0.0]) | WRITTEN_PARTS,
                          min_size=2 * cells, max_size=2 * cells))
    box = np.array(parts).view(complex).reshape(shape)
    if draw(st.booleans()):
        box[-1] = box[0] = 0  # the box then has zero slices at both ends
    origin = tuple(draw(st.integers(-9, 9)) for _ in range(arity))
    return ScaleTimeSignal._from_box(box, origin)


def same_signal(a, b) -> None:
    assert (a.arity, a.time_len, a.stack.origin) == (b.arity, b.time_len, b.stack.origin)
    assert a.stack.array.shape == b.stack.array.shape
    assert a.stack.array.tobytes() == b.stack.array.tobytes()


class TestWrittenSlot:
    """A CSV file write_time_signal wrote reads back from its slot as a
    fresh parse of the same bytes would."""

    @given(written_signals())
    def test_read_after_write_is_a_fresh_parse(self, sig):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "y.csv")
            skio.write_time_signal(sig, path)
            slot = skio._written
            hit = skio.read_time_signal(path)
            assert hit is slot[2]
            skio._written = None
            same_signal(hit, skio.read_time_signal(path))
            assert skio._written is None

    @pytest.mark.parametrize("block", [None, 0])
    def test_same_size_other_bytes_are_parsed(self, tmp_path, monkeypatch, block):
        if block is not None:  # numpy then reads the path itself
            monkeypatch.setattr(skio, "_BLOCK_READ_BYTES", block)
        one = ScaleTimeSignal([ScaleSignal({(0,): 0.5, (2,): -1.25}, arity=1),
                               ScaleSignal.delta((1,), 1, 3.0)])
        # in chunks of two rows: header, rows 0-1, rows 2-3; only row 3 holds 0.5
        many = ScaleTimeSignal([ScaleSignal.delta((1,), 1, v) for v in (3.0, -1.25, 2.0, 0.5)])
        path = tmp_path / "y.csv"
        for sig, rows, changed in ((one, jsonfmt._CHUNK_ROWS, (0, 0)), (many, 2, (3, 1))):
            monkeypatch.setattr(jsonfmt, "_CHUNK_ROWS", rows)
            skio.write_time_signal(sig, str(path))
            size, chunks, _ = skio._written
            written = path.read_bytes()
            other = written.replace(b"0.5", b"0.7")
            assert len(other) == size and other != written
            if sig is many:  # one byte differs, and it is in the last of several chunks
                assert len(chunks) == 3
                assert [i for i, (a, b) in enumerate(zip(written, other)) if a != b] == [
                    written.index(b"0.5") + 2]
                assert written.index(b"0.5") >= size - len(chunks[-1])
            path.write_bytes(other)
            got = skio.read_time_signal(str(path))
            assert got is not skio._written[2]
            same_signal(got, read_csv(other.decode()))
            assert got.stack.get(changed) == 0.7

    def test_text_that_does_not_read_back_fills_no_slot(self, tmp_path):
        # a key beyond int64 is written, and refused by the reader
        sig = ScaleTimeSignal.from_dense(np.array([[1.0, 2.0]]), (2 ** 63 - 1,))
        path = str(tmp_path / "y.csv")
        skio.write_time_signal(sig, path)
        assert skio._written is None
        with pytest.raises(ValueError, match="line 3: could not convert"):
            skio.read_time_signal(path)

    def test_failed_and_json_writes_leave_the_slot_empty(self, tmp_path):
        sig = ScaleTimeSignal([ScaleSignal.delta((0,), 1, 0.5)])
        bad = ScaleTimeSignal._from_box(np.array([[complex(1.0, np.nan)]]), (0,))
        writes = [(bad, tmp_path / "bad.csv"), (sig, tmp_path / "missing" / "y.csv"),
                  (sig, tmp_path / "y.json")]
        for value, path in writes:
            skio.write_time_signal(sig, str(tmp_path / "y.csv"))
            assert skio._written is not None
            with contextlib.suppress(ValueError, OSError):
                skio.write_time_signal(value, str(path))
            assert skio._written is None
        assert (tmp_path / "y.json").exists() and not (tmp_path / "bad.csv").exists()

    def test_csv_goes_through_write_signal_csv(self, tmp_path, monkeypatch):
        # the benchmark's tracer counts the rows written at write_signal_csv
        calls, write = [], skio.write_signal_csv
        monkeypatch.setattr(skio, "write_signal_csv", lambda s, fh: calls.append(s) or write(s, fh))
        sig = ScaleTimeSignal([ScaleSignal.delta((0,), 1, 0.5)])
        skio.write_time_signal(sig, str(tmp_path / "y.csv"))
        assert calls == [sig]

    def test_slot_compares_only_same_size_reads(self, tmp_path, monkeypatch):
        calls, holds = [], skio._holds
        monkeypatch.setattr(skio, "_holds", lambda fh, chunks: calls.append(chunks) or holds(fh, chunks))
        path = tmp_path / "s.csv"
        path.write_text("n,k1,re,im\n0,1,0.5,0\n")
        for limit in (0, 1 << 20):
            monkeypatch.setattr(skio, "_BLOCK_READ_BYTES", limit)
            assert list(skio.read_time_signal(str(path)).items()) == [(0, (1,), 0.5 + 0j)]
        assert calls == []
        # a write compares nothing, a read of another size neither, and a
        # read of the written size once
        skio.write_time_signal(skio.read_time_signal(str(path)), str(tmp_path / "t.csv"))
        (tmp_path / "u.csv").write_text("n,k1,re,im\n0,1,0.25,0\n")
        skio.read_time_signal(str(tmp_path / "u.csv"))
        assert calls == []
        assert skio.read_time_signal(str(path)) is skio._written[2]
        assert calls == [skio._written[1]]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_csv_written_to_a_fifo(self, tmp_path):
        # nothing is read back after a write, so a pipe takes a CSV signal
        sig = random_time_signal(np.random.default_rng(4), arity=2, time_len=3)
        with fifo_bytes(tmp_path / "y.csv") as got:
            skio.write_time_signal(sig, str(tmp_path / "y.csv"))
        skio.write_time_signal(sig, str(tmp_path / "ref.csv"))
        assert got == [(tmp_path / "ref.csv").read_bytes()]


def unpair_moments(obj) -> MomentSequence:
    """moments_from_dict item by item through unpair, as it was written
    before its numpy conversion."""
    try:
        return MomentSequence(tuple(skio.unpair(z) for z in obj["t"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed moments object: {obj!r}") from exc


def unpair_coeffs(obj) -> CoeffSeq:
    """coeffseq_from_dict item by item through unpair, as it was written
    before its numpy conversion."""
    try:
        coeffs = [skio.unpair(z) for z in obj["coeffs"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed coefficient object: {obj!r}") from exc
    return CoeffSeq(np.asarray(coeffs, complex), float(obj.get("tail_bound", 0.0)))


def outcome(read, obj):
    try:
        value = read(obj)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)
    if isinstance(value, CoeffSeq):
        return value.coeffs.tobytes(), value.tail_bound
    return np.array(value.t, complex).tobytes()


# JSON values: numbers of every size, numeric and other strings, null;
# and Python values unpair judges by type: tuples, numpy scalars, a range
MOMENT_SCALARS = (st.integers(-2 ** 70, 2 ** 70) | st.floats() | st.booleans() | st.none()
                  | st.sampled_from([0.0, -0.0, 1.0, "1.5", " 2", "nan", "1_0", "-0", "12",
                                     "x", "nan(1)"])
                  | st.text(max_size=2))
NUMERIC_PAIRS = st.lists(st.integers(-2 ** 64, 2 ** 64) | st.floats() | st.booleans(),
                         min_size=2, max_size=2)
OTHER_ITEMS = (st.tuples(st.floats(), st.floats()) | st.builds(np.int64, st.integers(-9, 9))
               | st.builds(np.float32, st.floats(width=32)) | st.just(range(2))
               | st.builds(np.array, st.lists(st.floats(), min_size=2, max_size=2)))
MOMENT_ITEMS = (MOMENT_SCALARS | NUMERIC_PAIRS | OTHER_ITEMS
                | st.lists(MOMENT_SCALARS, min_size=2, max_size=2)
                | st.lists(MOMENT_SCALARS, max_size=3)
                | st.lists(st.lists(MOMENT_SCALARS, max_size=2), max_size=2)
                | st.dictionaries(st.text(max_size=2), MOMENT_SCALARS, max_size=2))
MOMENT_LISTS = (st.lists(MOMENT_ITEMS, max_size=5)
                | st.lists(st.lists(st.floats(allow_nan=False), min_size=2, max_size=2),
                           max_size=6)
                | st.lists(st.floats(allow_nan=False) | st.integers() | st.booleans(), max_size=6)
                | st.lists(NUMERIC_PAIRS | st.lists(MOMENT_SCALARS, min_size=2, max_size=2),
                           min_size=1, max_size=3)
                | st.lists(OTHER_ITEMS | NUMERIC_PAIRS | st.floats(), min_size=1, max_size=4))


# (reader, its per-element unpair form, the key of its list)
READERS = [(skio.moments_from_dict, unpair_moments, "t"),
           (skio.coeffseq_from_dict, unpair_coeffs, "coeffs")]


@settings(max_examples=200)  # about 100 for each reader
@given(MOMENT_LISTS | MOMENT_SCALARS | st.dictionaries(st.text(max_size=2), MOMENT_SCALARS),
       st.sampled_from(READERS))
def test_moments_from_dict_matches_unpair(t, reader):
    read, unpaired, key = reader
    obj = t if isinstance(t, dict) else {key: t}
    assert outcome(read, obj) == outcome(unpaired, obj)
