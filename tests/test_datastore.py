from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetsel import datastore
from targetsel.datastore import (
    FeatureMatrix,
    ProbabilityMatrix,
    _parse_csv,
    load_features,
    load_probabilities,
)
from targetsel.errors import DataFormatError, EmptyInputError
from targetsel.kernel import SimilarityKernel


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadFeatures:
    def test_identity_layout(self, tmp_path):
        m = load_features(write(tmp_path, "1.0,0.0\n0.0,1.0"))
        assert m.rows == 2 and m.dims == 2
        np.testing.assert_array_equal(m.values, np.eye(2))

    def test_single_row(self, tmp_path):
        m = load_features(write(tmp_path, "1.0,2.0,3.0"))
        assert (m.rows, m.dims) == (1, 3)

    def test_ragged_row_names_line(self, tmp_path):
        with pytest.raises(DataFormatError, match="line 2"):
            load_features(write(tmp_path, "1.0,2.0\n3.0"))

    def test_non_numeric_token(self, tmp_path):
        with pytest.raises(DataFormatError, match="non-numeric"):
            load_features(write(tmp_path, "1.0,abc"))

    def test_non_finite(self, tmp_path):
        with pytest.raises(DataFormatError, match="non-finite"):
            load_features(write(tmp_path, "1.0,inf"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyInputError):
            load_features(write(tmp_path, ""))

    def test_loaded_matrix_is_immutable(self, tmp_path):
        m = load_features(write(tmp_path, "1.0,2.0"))
        with pytest.raises(ValueError):
            m.values[0, 0] = 5.0

    def test_parsed_array_is_shared_not_copied(self, tmp_path):
        parsed = datastore._read_csv(write(tmp_path, "1.0,2.0\n3.0,4.0"))
        assert not parsed.flags.writeable
        assert np.shares_memory(FeatureMatrix(parsed).values, parsed)


@pytest.mark.parametrize(
    "container",
    [
        FeatureMatrix,
        ProbabilityMatrix,
        pytest.param(lambda m: SimilarityKernel(m, symmetric=True), id="SimilarityKernel"),
    ],
)
def test_caller_array_stays_writeable(container):
    m = np.eye(2)
    c = container(m)
    m[0, 1] = 0.5
    assert m.flags.writeable
    assert c.values[0, 1] == 0.0
    assert not c.values.flags.writeable


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), d=st.integers(1, 5))
    def test_save_load_exact(self, tmp_path_factory, seed, n, d):
        rng = np.random.default_rng(seed)
        m = FeatureMatrix(rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 8))
        path = tmp_path_factory.mktemp("rt") / "m.csv"
        np.savetxt(path, m.values, fmt="%.17g", delimiter=",")
        back = load_features(path)
        np.testing.assert_array_equal(back.values, m.values)


FORMATS = {"%.17g": lambda x: "%.17g" % x, "repr": repr, "%.6e": lambda x: "%.6e" % x}
EDGE_DOUBLES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                1e300, 1.7976931348623157e308, -1.7976931348623157e308)


def _from_bits(bits):
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


doubles = st.one_of(
    st.integers(0, 2**64 - 1).map(_from_bits).filter(np.isfinite),
    st.sampled_from(EDGE_DOUBLES),
)


@st.composite
def csv_texts(draw):
    """Well-formed CSV text over random doubles, in the layouts users write."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, 5))
    fmt = FORMATS[draw(st.sampled_from(sorted(FORMATS)))]
    pad = st.sampled_from(["", " ", "  "])
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [
        ",".join(draw(pad) + fmt(draw(doubles)) + draw(pad) for _ in range(d))
        for _ in range(n)
    ]
    return eol.join(lines) + eol * draw(st.integers(0, 3))


class TestBulkParseMatchesLineParser:
    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts())
    def test_same_bytes(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("bulk") / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(datastore, "_parse_csv", wraps=_parse_csv) as line_parser:
            fast = load_features(path).values
        assert not line_parser.called  # well-formed input never needs the line parser
        slow = _parse_csv(path)
        assert fast.shape == slow.shape
        assert fast.tobytes() == slow.tobytes()  # so -0.0 must stay -0.0


class TestWhereTheParsersDisagree:
    """Inputs numpy's reader treats differently from the line parser; the
    line parser's outcome (line numbers, messages, types) is the one kept."""

    def test_whitespace_only_line_is_skipped(self, tmp_path):
        m = load_features(write(tmp_path, "1.0,2.0\n   \n\t\n3.0,4.0\n"))
        np.testing.assert_array_equal(m.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_underscore_digits_accepted_as_float_does(self, tmp_path):
        m = load_features(write(tmp_path, "1_0,2.0\n"))
        np.testing.assert_array_equal(m.values, [[10.0, 2.0]])

    @pytest.mark.parametrize("load", [load_features, load_probabilities])
    def test_trailing_comma_is_non_numeric(self, tmp_path, load):
        with pytest.raises(DataFormatError, match="non-numeric token at line 2"):
            load(write(tmp_path, "\n0.5,0.5,\n"))

    @pytest.mark.parametrize("load", [load_features, load_probabilities])
    def test_nan_names_its_line(self, tmp_path, load):
        with pytest.raises(DataFormatError, match="non-finite value at line 3"):
            load(write(tmp_path, "0.5,0.5\n0.25,0.75\nnan,0.5\n"))

    def test_comment_line_is_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="non-numeric token at line 1"):
            load_features(write(tmp_path, "# header\n1.0,2.0\n"))

    def test_trailing_comment_is_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="non-numeric token at line 2"):
            load_features(write(tmp_path, "1.0,2.0\n3.0,4.0 # note\n"))

    @pytest.mark.parametrize("text", ["\n\n\n", "\r\n\r\n", "  \n\t\n"])
    def test_blank_lines_only_is_empty(self, tmp_path, text):
        with pytest.raises(EmptyInputError):
            load_features(write(tmp_path, text))

    def test_ragged_row_after_blank_lines_names_real_line(self, tmp_path):
        with pytest.raises(DataFormatError, match="ragged row at line 4: expected 2 fields, got 1"):
            load_features(write(tmp_path, "1.0,2.0\n\n\n3.0\n"))

    def test_missing_file_error_is_the_open_error(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="No such file or directory"):
            load_features(tmp_path / "absent.csv")


class TestLoadProbabilities:
    def test_single_row(self, tmp_path):
        p = load_probabilities(write(tmp_path, "0.5,0.5"))
        np.testing.assert_array_equal(p.values, [[0.5, 0.5]])

    def test_bad_row_sum(self, tmp_path):
        with pytest.raises(DataFormatError, match="sums to"):
            load_probabilities(write(tmp_path, "0.6,0.3"))

    def test_two_rows(self, tmp_path):
        p = load_probabilities(write(tmp_path, "1.0,0.0\n0.25,0.75"))
        assert (p.rows, p.num_classes) == (2, 2)

    def test_negative_entry(self, tmp_path):
        with pytest.raises(DataFormatError, match="out of"):
            load_probabilities(write(tmp_path, "-0.5,1.5"))


def test_probability_matrix_validates_rows():
    with pytest.raises(DataFormatError):
        ProbabilityMatrix(np.array([[0.7, 0.7]]))


class TestOuterProducts:
    def test_values_are_row_wise_outer_products(self):
        rng = np.random.default_rng(0)
        r, x = rng.standard_normal((5, 3)), rng.standard_normal((5, 4))
        m = FeatureMatrix.outer(r, x)
        assert (m.rows, m.dims) == (5, 12)
        expected = np.stack([np.outer(r[i], x[i]).ravel() for i in range(5)])
        assert m.values.tobytes() == expected.tobytes()
        assert all(f.tobytes() == g.tobytes() and not f.flags.writeable
                   for f, g in zip(m.factors, (r, x)))

    def test_plain_matrix_has_no_factors(self):
        assert FeatureMatrix(np.eye(2)).factors is None

    def test_factors_cannot_be_passed_with_values(self):
        with pytest.raises(TypeError):
            FeatureMatrix(np.eye(2), factors=(np.eye(2), np.ones((2, 1))))

    @pytest.mark.parametrize("r,x", [
        (np.ones((2, 3)), np.ones((3, 2))),
        (np.ones(3), np.ones((3, 2))),
        (np.ones((2, 0)), np.ones((2, 2))),
        (np.full((1, 2), 1e200), np.full((1, 2), 1e200)),
        (np.array([[np.nan, 1.0]]), np.ones((1, 2))),
    ], ids=["unequal-rows", "1-d", "no-columns", "overflow", "nan"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_bad_factors_rejected(self, r, x):
        with pytest.raises(DataFormatError):
            FeatureMatrix.outer(r, x)
