"""`serialize.emit` against json.dumps(indent=1) of the list form it replaced."""

import contextlib
import dataclasses
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from superdense import bases, randlab, serialize
from superdense import protocol as pr
from superdense import rigidity as rg
from superdense.rigidity import CanonicalDecomposition


def list_form(obj):
    """The document json.dumps wrote before: each matrix as rows of [re, im]
    pairs, a stack of matrices as their list, each complex number as one pair."""
    if isinstance(obj, np.ndarray) and obj.ndim == 3:
        return [list_form(m) for m in obj]
    if isinstance(obj, np.ndarray):
        m = np.atleast_2d(np.asarray(obj, dtype=complex))
        return [[[float(z.real), float(z.imag)] for z in row] for row in m]
    if isinstance(obj, dict):
        return {key: list_form(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [list_form(val) for val in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def reference(doc) -> str:
    if dataclasses.is_dataclass(doc):
        doc = dataclasses.asdict(doc)
    return json.dumps(list_form(doc), indent=1) + "\n"


def emitted(doc) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        serialize.emit(doc)
    return buf.getvalue()


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1e-300, 1.0, -3.0,
               1e16, 2.0**53, float("nan"), float("inf"), float("-inf")]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
complexes = st.builds(complex, floats, floats)


@st.composite
def matrices(draw, elements=complexes):
    """A complex matrix, 1x1 up to 5x5, or a transposed or sliced view of one."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    m = np.array(draw(st.lists(elements, min_size=rows * cols, max_size=rows * cols)),
                 dtype=complex).reshape(rows, cols)
    view = draw(st.sampled_from(["plain", "transposed", "sliced", "real"]))
    if view == "transposed":
        return m.T
    if view == "sliced":
        return m[::-1, ::2]
    return m.real.copy() if view == "real" else m


scalars = st.one_of(st.none(), st.booleans(), st.integers(), floats, complexes, st.text(max_size=6))
documents = st.recursive(
    st.one_of(scalars, matrices()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=12,
)


class TestEmitBytes:
    @settings(max_examples=300, deadline=None)
    @given(documents)
    def test_any_document(self, doc):
        assert emitted(doc) == reference(doc)

    @settings(max_examples=100, deadline=None)
    @given(matrices(), st.integers(0, 3))
    def test_matrix_at_each_depth(self, m, depth):
        doc = m
        for _ in range(depth):
            doc = {"m": [doc]}
        assert emitted(doc) == reference(doc)

    @settings(max_examples=100, deadline=None)
    @given(st.builds(
        bases.NonEquivalenceCertificate,
        kind=st.text(max_size=8),
        witness=st.lists(st.integers(0, 63), max_size=4).map(tuple),
        witness_value=st.one_of(complexes, floats, st.integers()),
    ))
    def test_certificates(self, cert):
        doc = {"certificates": [dataclasses.asdict(cert)]}
        assert emitted(doc) == reference(doc)

    def test_empty_matrices(self):
        for m in (np.zeros((0, 3)), np.zeros((2, 0))):
            assert emitted({"m": m}) == reference({"m": m})

    def test_package_documents(self):
        proto = pr.random_scrambled_bw(np.random.default_rng(3), 2, 2, 2)[0]
        dec, report = rg.canonicalize(proto)
        certs = [c for b in (bases.matching_basis(5), bases.pauli_tensor_basis(4))
                 for c in bases.certify_not_clock_shift(b, 1e-9)]
        assert {type(c.witness_value) for c in certs} == {complex, float, int}
        stats = dataclasses.asdict(randlab.distinguishability_experiment(3, 2, 5))
        del stats["first_spectrum"]
        docs = [
            report,
            pr.verify_errorless(proto, 1e-9),
            bases.verify_orthogonal_unitary_basis(bases.matching_basis(5), 1e-9),
            {"certificates": [dataclasses.asdict(c) for c in certs]},
            {**stats, "limit_8_over_3pi": randlab.EIGHT_OVER_3PI},
            {"tau": proto.tau, "encoders": proto.encoders},
            {"v": dec.v, "w": dec.w, "c": dec.c, "blocks": [{"p": p, "s": s, "sign": sign}
                                                             for p, s, sign in dec.blocks]},
            {"isometry": dec.w[:, :1], "entry": dec.rho[:1, :1]},
        ]
        for doc in docs:
            assert emitted(doc) == reference(doc)


finite = st.one_of(st.sampled_from(EDGE_FLOATS[:-3]),
                   st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(matrices(st.builds(complex, finite, finite)), st.data())
def test_decomposition_round_trip_is_bit_exact(tmp_path_factory, v, data):
    path = str(tmp_path_factory.mktemp("dec") / "dec.json")
    more = [data.draw(matrices(st.builds(complex, finite, finite))) for _ in range(4)]
    dec = CanonicalDecomposition(v=v, w=more[0], c=(more[1], more[2]), rho=more[3],
                                 blocks=((more[1], more[0], -1),))
    serialize.save_decomposition(dec, path)
    loaded = serialize.load_decomposition(path)
    for got, want in [(loaded.v, v), (loaded.w, more[0]), (loaded.c[0], more[1]),
                      (loaded.c[1], more[2]), (loaded.rho, more[3]),
                      (loaded.blocks[0][0], more[1]), (loaded.blocks[0][1], more[0])]:
        want = np.asarray(want, dtype=complex)
        assert got.shape == want.shape
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()
    assert loaded.blocks[0][2] == -1


def test_loaders_keep_the_stack_they_read(tmp_path, monkeypatch):
    real, stacks = serialize._complex_array, []

    def spy(data, depth):
        out = real(data, depth)
        if depth == 3:
            stacks.append(out)
        return out

    monkeypatch.setattr(serialize, "_complex_array", spy)
    path = str(tmp_path / "basis.json")
    serialize.save_basis(bases.matching_basis(5), path)
    b = serialize.load_basis(path)
    assert b.elements is stacks[-1] and b.elements.shape == (25, 5, 5)
    path = str(tmp_path / "protocol.json")
    serialize.save_protocol(pr.random_scrambled_bw(np.random.default_rng(3), 2, 2, 2)[0], path)
    p = serialize.load_protocol(path)
    assert p.encoders is stacks[-1] and p.encoders.shape == (4, 4, 4)
