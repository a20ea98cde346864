"""The codecs' number texts against their oracles: orjson writes repr's
texts and reads float()'s bits, and load_diagonal reads json's document.

`repr`, `float()` and `json` are the references here; the codecs use them
only where orjson's text or reading would differ.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diagsynth as ds
from diagsynth import serialize
from diagsynth.circuits import K_RZ, RZ, X, Circuit

# Any finite float64: a bit pattern (every exponent equally likely), or one
# of hypothesis's floats (small integers, powers of two, boundaries)
finite_floats = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e17, 1e17),
).filter(np.isfinite)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(finite_floats, max_size=40))
def test_angle_texts_are_repr_on_any_finite_float(values):
    angles = np.array(values, dtype=np.float64)
    assert serialize._angle_texts(angles) == list(map(repr, values))


def test_angle_texts_are_repr_at_the_edges_of_orjson_forms():
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e-300, 1.5e-310, 2.0**-1074 * 3]
    for edge in (1e-4, 1e16):
        edges += [np.nextafter(edge, 0), edge, np.nextafter(edge, np.inf)]
    angles = np.array(edges + [-x for x in edges])
    assert serialize._angle_texts(angles) == list(map(repr, angles.tolist()))
    assert serialize._angle_texts(np.zeros(0)) == []
    # and in both writers' texts
    circuit = Circuit(1, [RZ(1, angle) for angle in angles.tolist()])
    texts = [f"{angle!r}) q[0];\n" for angle in angles.tolist()]
    assert ds.to_qasm(circuit).split("rz(")[1:] == texts
    document = serialize.circuit_to_document(circuit)
    assert [gate["alpha"] for gate in document["gates"]] == angles.tolist()


# Texts over the bytes an rz angle text may hold: QASM reals, JSON numbers
# among them, and any other run of those bytes
qasm_reals = st.from_regex(
    r"\A ?[-+]?([0-9]{1,40}\.?[0-9]{0,20}|\.[0-9]{1,20})(e[-+]?[0-9]{1,3})? ?\Z"
)
angle_texts = st.one_of(
    finite_floats.map(repr), qasm_reals, st.text(serialize._ANGLE_BYTES.decode(), min_size=1)
)
PINNED_TEXTS = [
    "-0", "0", "1", "1.", ".5", "+1", "01", " 1.5", "-0e0", "1e-400", "2.4703282292062328e-324",
    "18446744073709551615", "-9223372036854775809", "123456789012345678901234567890", "-0.0",
    "1e400", "1 5", " ", "e5", "-",
]


def _float_or_none(text: str):
    try:
        number = float(text)
    except ValueError:
        return None
    return number if np.isfinite(number) else None


@settings(max_examples=400, deadline=None)
@given(st.lists(angle_texts, min_size=1, max_size=8))
@example(PINNED_TEXTS[:15])
@example([" 1.5", "-0"])
@example(["-0", "0"])
@example(["1 5"])
@example([" "])
def test_qasm_reader_reads_float_bits_of_each_angle_text(texts):
    # rz lines with these texts, around a cx and an x: parse_qasm gives
    # float()'s bits where each text reads finite, and refuses the text
    # otherwise. The byte reader gives the same bits on the texts orjson
    # reads, and raises on the others, which the general reader then takes.
    body = "".join(f"rz({text}) q[{k % 2}];\n" for k, text in enumerate(texts))
    qasm = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncx q[0],q[1];\n' + body + "x q[1];\n"
    expected = [_float_or_none(text) for text in texts]
    if None in expected:
        with pytest.raises(ds.FormatError):
            ds.parse_qasm(qasm)
        return
    circuit = ds.parse_qasm(qasm)
    rz = circuit.layout.kind == K_RZ
    assert _bits(circuit.angle0[rz]) == _bits(expected)
    try:
        serialize._numbers(",".join(texts), len(texts))
    except ValueError:
        with pytest.raises(ValueError):
            serialize._qasm_circuit(2, qasm, qasm.index("cx"))
        return
    fast = serialize._qasm_circuit(2, qasm, qasm.index("cx"))
    assert _bits(fast.angle0[rz]) == _bits(expected)


@pytest.mark.parametrize("text", PINNED_TEXTS)
def test_qasm_reader_reads_each_pinned_text_as_float_does(text):
    qasm = ds.to_qasm(Circuit(1, [X(1), RZ(1, 0.5)])).replace("rz(0.5)", f"rz({text})")
    expected = _float_or_none(text)
    if expected is None:
        with pytest.raises(ds.FormatError, match="rz angle is not a finite number"):
            ds.parse_qasm(qasm)
    else:
        assert _bits(ds.parse_qasm(qasm).angle0) == _bits([0.0, expected])


def _reading(load, path):
    # what a diagonal reader gives: (n, thetas' bits), or the error's type and text
    try:
        u = load(path)
    except Exception as exc:  # any error, compared by its type and text
        return type(exc).__name__, str(exc)
    return u.n, _bits(u.thetas)


def _json_reading(path):
    # load_diagonal as json alone reads it: the reference
    text = serialize._text(path, path.read_bytes())
    return serialize.diagonal_from_document(serialize._read_json(path, text))


BIG, HUGE = "1" + "2" * 29, "9" * 400  # a 30-digit and a 400-digit integer
PINNED_DOCUMENTS = [
    '{"n": 1, "units": "rad", "thetas": [NaN, 0]}',
    '{"n": 1, "units": "rad", "thetas": [0, Infinity]}',
    '{"n": 1, "units": "rad", "thetas": [-Infinity, 0]}',
    f'{{"n": {BIG}, "units": "rad", "thetas": [0, 0]}}',
    f'{{"n": {HUGE}, "units": "rad", "thetas": [0, 0]}}',
    f'{{"n": 1, "units": "rad", "thetas": [{BIG}, -{BIG}]}}',
    f'{{"n": 1, "units": "rad", "thetas": [0, {HUGE}]}}',
    f'{{"n": 1, "units": "pi", "thetas": [0, {BIG}]}}',
    f'{{"n": 1, "units": {BIG}, "thetas": [0, 0]}}',
    f'{{"n": 1, "units": "[", "thetas": {BIG}}}',
    '{"n": 1, "units": "rad", "thetas": [%s, 0]}' % (2**1024 - 2**970),  # rounds to 2**1024
    '{"n": 1, "units": "rad", "thetas": [%s, 0]}' % (2**1024 - 2**970 - 1),
    '{"n": 1, "units": "\\ud800", "thetas": [0, 0]}',  # a lone surrogate
    '{"n": 1, "units": "rad\\ud83d\\ude00", "thetas": [0, 0]}',
    '{"n": 1, "n": 2, "units": "rad", "thetas": [0, 0, 0, 0], "units": "pi"}',  # duplicate keys
    '{"n": 1, "units": "rad", "thetas": [0, 0], "thetas": [1, 2]}',
    '{"n": 1, "units": "rad[", "thetas": [0, 0]}',  # a "[" in a string
    '{"n": 1, "units": "{rad", "thetas": [0, 0]}',
    '{"n": 1, "units": "rad", "thetas": [0, 0], "x": "["}',
    '{"n": 1, "units": "rad", "thetas": ' + "[" * 100_000 + "]" * 100_000 + "}",  # deep nesting
    '{"n": 1, "units": "rad", "thetas": [0, 0], "x": ' + '{"a": ' * 995 + "1" + "}" * 996,
    '{"n": 1, "units": "rad", "thetas": [-0, 0.0, 1e-400]}',
    '{"n": 1, "units": "rad", "thetas": [-0, 1e5]}',
    '{"n": 1, "units": "rad", "thetas": [0, "1"]}',
    '{"n": 1, "units": "rad", "thetas": [0, true]}',
    '{"n": 1, "units": "rad", "thetas": [0, null]}',
    '{"n": true, "units": "rad", "thetas": [0, 1]}',
    '{"n": 18446744073709551615, "units": "rad", "thetas": [0, 1]}',
    '{"n": -9223372036854775809, "units": "rad", "thetas": [0, 1]}',
    '{"n": 1, "units": "ra\td", "thetas": [0, 1]}',  # a raw control character
    '﻿{"n": 1, "units": "rad", "thetas": [0, 1]}',
    '{"n": 1, "units": "rad", "thetas": [0, 1],}',
    '{"n": 1, "units": "rad", "thetas": [0, 1]} x',
    '{"n": 1, "units": "rad", "thetas": [0, 1]}\n',
    '[{"n": 1, "units": "rad", "thetas": 1}]',
    '{"n": 2, "units": "rad", "thetas": [0, 1]}',
    '{"n": 1, "units": "deg", "thetas": [0, 1]}',
    '{"n": 1, "units": "rad"}',
    "",
]


def _diagonal_readings(path, text: str):
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    return _reading(ds.load_diagonal, path), _reading(_json_reading, path)


@pytest.mark.parametrize("text", PINNED_DOCUMENTS, ids=range(len(PINNED_DOCUMENTS)))
def test_load_diagonal_gives_what_json_reads_on_pinned_documents(tmp_path, text):
    fast, reference = _diagonal_readings(tmp_path / "diag.json", text)
    assert fast == reference


def test_load_diagonal_reads_what_save_diagonal_writes_without_json(tmp_path, monkeypatch):
    u = ds.DiagonalUnitary(3, np.array([0.5, -0.0, 1e-05, 1e16, 3, 2.5e-310, -7.25, 1e300]))
    path = tmp_path / "diag.json"
    ds.save_diagonal(u, path)
    monkeypatch.setattr(serialize, "_read_json", None)  # json's reading is not called
    assert _bits(ds.load_diagonal(path).thetas) == _bits(u.thetas)


# Diagonal documents built from JSON values near the reader's edges
json_numbers = st.one_of(
    finite_floats, st.integers(-(2**70), 2**70), st.sampled_from([BIG, HUGE]).map(int)
)
json_values = st.one_of(json_numbers, st.booleans(), st.none(), st.text(max_size=3))
documents = st.fixed_dictionaries(
    {},
    optional={
        "n": st.one_of(st.integers(-2, 3), json_values),
        "units": st.one_of(st.sampled_from(["rad", "pi", "[", "{"]), json_values),
        "thetas": st.one_of(st.lists(json_numbers, max_size=8), st.lists(json_values, max_size=3),
                            json_values),
    },
)


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("documents") / "diag.json"


@settings(max_examples=300, deadline=None)
@given(documents, st.booleans())
def test_load_diagonal_gives_what_json_reads_on_any_document(document_path, doc, in_ascii):
    fast, reference = _diagonal_readings(document_path, json.dumps(doc, ensure_ascii=in_ascii))
    assert fast == reference
