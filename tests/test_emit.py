"""The CLI's output writers: expand's one-pass JSON table and its CSV table.

``cli._coefficient_json``, spliced into a report by ``cli._json``, must
write exactly what ``json.dumps(_py(x), sort_keys=True, indent=2)`` writes
for the list of row dicts it stands for, and so must a whole expand report;
and an expand table read back from either format must give the coefficient
array bit for bit.
"""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from schauder import cli
from schauder.cli import build_basis, main, resolve_function

PROPS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


# -- the one-pass expand table -------------------------------------------------

TABLE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 5e-324, -2.2250738585072014e-309]),
)


@st.composite
def coefficient_tables(draw):
    """Indices of 1 to 3 columns (a plain int for one) and (count, width)
    real or complex values, as ``_cmd_expand`` hands them over."""
    dim = draw(st.integers(1, 3))
    count = draw(st.integers(1, 6))
    width = draw(st.integers(1, 4))
    columns = st.integers(-(2 ** 70), 2 ** 70)
    index = columns if dim == 1 else st.tuples(*[columns] * dim)
    idxs = draw(st.lists(index, min_size=count, max_size=count))
    parts = hnp.arrays(np.float64, (count, width), elements=TABLE_FLOATS)
    values = draw(parts)
    if draw(st.booleans()):
        # set the parts: adding 0j would turn a real -0.0 into 0.0
        real, values = values, np.empty((count, width), complex)
        values.real, values.imag = real, draw(parts)
    return idxs, values


@PROPS
@given(coefficient_tables())
def test_coefficient_json_matches_the_row_dicts(table):
    idxs, values = table
    rows = [{"index": cli._index_columns(i), "value": row}
            for i, row in zip(idxs, values.tolist())]
    assert (cli._json({"coefficients": cli._coefficient_json(idxs, values)})
            == json.dumps(cli._py({"coefficients": rows}), sort_keys=True, indent=2))


# -- expand tables read back ---------------------------------------------------

FNS = {
    "haar": ("cubic", "one,x,runge"),
    "hat-dyadic": ("sin-pi", "x2,cos,gauss"),
    "ck-dyadic": ("runge", "one,cubic,sin-pi"),
    "hermite": ("xgauss", "gauss,h1,h4"),
    "fourier": ("esin", "sin,cos2,invcos"),
    "taylor": ("exp-z", "sin-z,gauss-z,inv2-z"),
}

COMPLEX = ("fourier", "taylor")
CASES = [(fam, fn) for fam, fns in FNS.items() for fn in fns]


def _expand(capsys, fam, fn, fmt, max_n=9):
    rc = main(["expand", "--basis", fam, "--fn", fn, "--max-n", str(max_n),
               "--format", fmt])
    out = capsys.readouterr()
    assert rc == 0, out.err
    return out.out


def _want(fam, fn, max_n=9):
    """Indices and coefficient rows; a complex value is its (re, im) pair."""
    basis = build_basis(fam)
    idxs = basis.indices(max_n)
    values = basis.coefficients(resolve_function(fn, basis), idxs)
    return idxs, values.reshape(len(idxs), -1).view(np.float64)


@pytest.mark.parametrize("fam, fn", CASES)
def test_expand_csv_reads_back_bit_for_bit(capsys, fam, fn):
    idxs, want = _want(fam, fn)
    rows = list(csv.reader(_expand(capsys, fam, fn, "csv").splitlines()))
    body = np.array([[float(c) for c in row[1:]] for row in rows[1:]])
    assert [int(row[0]) for row in rows[1:]] == idxs
    assert body.shape == want.shape
    assert body.tobytes() == want.tobytes()


@pytest.mark.parametrize("fam, fn", CASES)
def test_expand_json_reads_back_bit_for_bit(capsys, fam, fn):
    idxs, want = _want(fam, fn)
    doc = json.loads(_expand(capsys, fam, fn, "json"))
    assert [c["index"] for c in doc["coefficients"]] == [[n] for n in idxs]
    if fam in COMPLEX:
        got = np.array([[x for v in c["value"] for x in (v["re"], v["im"])]
                        for c in doc["coefficients"]])
    else:
        got = np.array([c["value"] for c in doc["coefficients"]])
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("fam, fn", CASES)
def test_expand_json_is_its_own_json_dumps(capsys, fam, fn):
    out = _expand(capsys, fam, fn, "json")
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
