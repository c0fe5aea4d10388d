import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superdense import bases
from superdense import numkit as nk
from superdense.numkit import ID2, PAULI_X, PAULI_Y, PAULI_Z
from superdense.numkit import haar_unitary as haar


def kinds(certs):
    return sorted(c.kind for c in certs)


def reference_certify(b, tol=nk.DEFAULT_TOL):
    """The per-pair loop that certify_not_clock_shift replaced, kept as its reference."""
    d, n = b.d, len(b.elements)
    out = []

    def distinct_count(values, tol):
        reps = []
        for v in values:
            if all(abs(v - r) > tol for r in reps):
                reps.append(complex(v))
        return len(reps)

    ratio_witness, max_distinct, max_distinct_witness = None, 0, (0, 0)
    for i in range(n):
        ai = b.elements[i].conj().T
        for j in range(i + 1, n):
            w = np.linalg.eigvals(ai @ b.elements[j])
            count = distinct_count(w, max(tol * 10, 1e-7))
            if count > max_distinct:
                max_distinct, max_distinct_witness = count, (i, j)
            if ratio_witness is None:
                ratios = np.divide.outer(w, w)
                bad = np.abs(ratios**d - 1.0) > tol * d
                if bad.any():
                    p, q = np.argwhere(bad)[0]
                    ratio_witness = ((i, j), complex(ratios[p, q]))
    if ratio_witness is not None:
        out.append((bases.KIND_EIGENVALUE_RATIO, *ratio_witness))
    if max_distinct < d:
        out.append((bases.KIND_DISTINCT_COUNT, max_distinct_witness, max_distinct))

    comm_witness = projective_witness(b, tol)
    if comm_witness is not None:
        out.append((bases.KIND_PROJECTIVE, *comm_witness))
    return [(kind, witness, repr(value)) for kind, witness, value in out]


def commutator_defect(b, i, j):
    """The one-pair commutator defect of the anchored products G_i, G_j."""
    anchor = b.elements[0].conj().T
    gi, gj = b.elements[i] @ anchor, b.elements[j] @ anchor
    comm = gi @ gj @ gi.conj().T @ gj.conj().T
    return float(np.linalg.norm(comm - (np.trace(comm) / b.d) * np.eye(b.d)))


def projective_witness(b, tol=nk.DEFAULT_TOL):
    """The first pair (0, i, j) in row-major order whose defect exceeds tol*d, with that defect."""
    n = len(b.elements)
    for i in range(n):
        for j in range(i + 1, n):
            defect = commutator_defect(b, i, j)
            if defect > tol * b.d:
                return (0, i, j), defect
    return None


def reference_unitarity_violation(b):
    """The running max() over elements that the stacked unitarity check replaced."""
    eye, worst = np.eye(b.d), 0.0
    for e in b.elements:
        worst = max(worst, float(np.abs(e.conj().T @ e - eye).max()))
    return worst


def certificate_list(certs):
    return [(c.kind, c.witness, repr(c.witness_value)) for c in certs]


def random_equivalence(b, rng):
    """b under Haar-random left and right unitaries and uniform element phases."""
    v, w = haar(b.d, rng), haar(b.d, rng)
    phases = np.exp(2j * np.pi * rng.random(len(b.elements)))
    return bases.apply_basis_equivalence(b, phases, v, w)


def twisted_clock_shift(d):
    """Clock/shift with every X^1 Z^j right-multiplied by diag(e^{i pi/3}, 1, ..., 1).

    Still an orthogonal unitary basis, and the pair (identity, Z) settles the
    distinct-count test on row 0.  Pairs between the X^1 and X^3 classes have a
    non-scalar d-th power, so the eigenvalue-ratio test first fires at (d, 3d).
    """
    twist = np.eye(d, dtype=complex)
    twist[0, 0] = np.exp(1j * np.pi / 3)
    cs = bases.clock_shift_basis(d)
    elements = tuple(e @ twist if d <= k < 2 * d else e for k, e in enumerate(cs.elements))
    return bases.UnitaryBasis(d=d, elements=elements)


def twisted_pauli_tensor(theta):
    """Pauli-tensor-4 with every element whose permutation part is X (x) 1
    right-multiplied by diag(e^{i theta}, 1, 1, e^{i theta}).

    The twist is diagonal and covers one whole X-class, so the result is
    still an orthogonal unitary basis.  Rows 0 and 1 reach at most 2 distinct
    eigenvalues; the first pair with 4, and the first eigenvalue-ratio
    witness, is (2, 8), after the screen has started with k = 2.
    """
    twist = np.diag(np.exp(1j * theta * np.array([1, 0, 0, 1])))
    pt = bases.pauli_tensor_basis(4)
    # element 4i + j is P_i (x) P_j; the Pauli elements 2 and 3 carry X, 0 and 1 do not
    elements = tuple(e @ twist if k // 4 >= 2 and k % 4 < 2 else e for k, e in enumerate(pt.elements))
    return bases.UnitaryBasis(d=4, elements=elements)


def pair_index(n, i, j):
    """Position of the pair (i, j), i < j, in the row-major scan of n elements."""
    return i * (n - 1) - i * (i - 1) // 2 + (j - i - 1)


# Roles of the elements of hub_basis() in its eigenvalue-ratio test
HUBS, LEAVES, QUIET = (1, 3), (0, 2, 8, 9, 10, 11), (4, 5, 6, 7, 12, 13, 14, 15)


def hub_basis():
    """Clock/shift-4 with Z and Z^3 right-multiplied by diag(1, e^{i pi/3}, 1, e^{i pi/3}).

    Still an orthogonal unitary basis: the twisted rows of the clock stay
    orthogonal to the untwisted ones.  The eigenvalue-ratio test fires on
    exactly the pairs of a hub and a leaf; the quiet elements fire with none.
    """
    twist = np.diag(np.exp(1j * np.pi / 3 * np.array([0, 1, 0, 1])))
    cs = bases.clock_shift_basis(4)
    return bases.UnitaryBasis(d=4, elements=tuple(
        e @ twist if k in HUBS else e for k, e in enumerate(cs.elements)
    ))


def ratio_witness_at(i, j):
    """hub_basis() reordered so that the eigenvalue-ratio test first fires at (i, j).

    Quiet elements take slots 0 to i - 1, a leaf slot i, the hubs slots j and
    j + 1, and the rest fill the other slots in order.  Every leaf fires with
    both hubs, so no pair (i, 15) can be the first witness.
    """
    assert i <= len(QUIET) and i < j < 15
    order = [None] * 16
    order[:i] = QUIET[:i]
    order[i], order[j], order[j + 1] = LEAVES[0], *HUBS
    rest = iter(k for k in range(16) if k not in order)
    order = [next(rest) if k is None else k for k in order]
    elements = hub_basis().elements
    return bases.UnitaryBasis(d=4, elements=tuple(elements[k] for k in order))


def projective_bases():
    """The battery's bases on which the projective-noncommutativity test fires."""
    out = [(f"matching-{d}", bases.matching_basis(d)) for d in range(5, 9)]
    out.append(("werner3", bases.werner3_basis(np.exp(1j * np.pi / 3))))
    return out


def tensor_bases():
    """Clock/shift tensor products, each with the distinct count k it certifies.

    Every pair has a scalar k-th power and k divides d.
    """
    cs = bases.clock_shift_basis
    return [
        ("cs3xcs3", bases.tensor_product_basis(cs(3), cs(3)), 3),
        ("cs2xcs4", bases.tensor_product_basis(cs(2), cs(4)), 4),
    ]


def criterion2_bases():
    """Criterion 2's battery at d <= 8."""
    out = [(f"clock-shift-{d}", bases.clock_shift_basis(d)) for d in range(2, 9)]
    out += [(f"matching-{d}", bases.matching_basis(d)) for d in range(5, 9)]
    out += [(f"pauli-tensor-{d}", bases.pauli_tensor_basis(d)) for d in (4, 8)]
    out.append(("werner3", bases.werner3_basis(np.exp(1j * np.pi / 3))))
    return out


class TestClockShift:
    def test_d2_is_pauli_family(self):
        b = bases.clock_shift_basis(2)
        expected = [ID2, PAULI_Z, PAULI_X, PAULI_X @ PAULI_Z]
        for e, ref in zip(b.elements, expected):
            assert np.allclose(e, ref)

    def test_d3_contains_clock(self):
        b = bases.clock_shift_basis(3)
        w = np.exp(2j * np.pi / 3)
        z3 = np.diag([1, w, w**2])
        assert any(np.allclose(e, z3) for e in b.elements)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_valid_basis(self, d):
        report = bases.verify_orthogonal_unitary_basis(bases.clock_shift_basis(d))
        assert report.passed


class TestTensorProductBasis:
    def test_pauli_squared(self):
        b = bases.tensor_product_basis(bases.clock_shift_basis(2), bases.clock_shift_basis(2))
        assert b.d == 4 and len(b.elements) == 16
        assert bases.verify_orthogonal_unitary_basis(b).passed

    def test_element_count_mixed_dims(self):
        b = bases.tensor_product_basis(bases.clock_shift_basis(2), bases.clock_shift_basis(3))
        assert b.d == 6 and len(b.elements) == 36

    def test_orthogonality_inherited(self):
        b = bases.tensor_product_basis(bases.clock_shift_basis(3), bases.clock_shift_basis(2))
        assert bases.verify_orthogonal_unitary_basis(b).passed


class TestSmallestNondividing:
    @pytest.mark.parametrize("d,expected", [(5, 2), (6, 4), (12, 5)])
    def test_examples(self, d, expected):
        # oracle: brute-force scan of the divisor list
        brute = next(k for k in range(2, d - 1) if d % k)
        assert brute == expected
        assert bases.smallest_nondividing(d) == expected

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            bases.smallest_nondividing(4)

    @given(st.integers(min_value=5, max_value=5000))
    @settings(max_examples=200, deadline=None)
    def test_property(self, d):
        k = bases.smallest_nondividing(d)
        assert 2 <= k <= d - 2
        assert d % k != 0
        assert all(d % j == 0 for j in range(2, k))


class TestEdgeColoring:
    def test_single_matching(self):
        perm = (2, 0, 1)
        adj = np.zeros((3, 3), dtype=bool)
        adj[np.arange(3), perm] = True
        out = bases.regular_bipartite_edge_coloring(3, adj, 1)
        assert out == [perm]

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_complete_graph_partition(self, d):
        out = bases.regular_bipartite_edge_coloring(d, np.ones((d, d), dtype=bool), d)
        assert len(out) == d
        covered = set()
        for image in out:
            assert sorted(image) == list(range(d))
            edges = {(a, b) for a, b in enumerate(image)}
            assert not (edges & covered)
            covered |= edges
        assert len(covered) == d * d

    def test_k55_residual(self):
        d = 5
        p0 = tuple(range(5))
        p1 = (1, 0, 3, 4, 2)  # cycles (0,1)(2,3,4)
        adj = np.ones((d, d), dtype=bool)
        for a in range(d):
            adj[a, p0[a]] = False
            adj[a, p1[a]] = False
        out = bases.regular_bipartite_edge_coloring(d, adj, 3)
        assert len(out) == 3
        edges = set()
        for image in out:
            assert sorted(image) == list(range(d))
            for a, b in enumerate(image):
                assert adj[a, b]
                assert (a, b) not in edges
                edges.add((a, b))
        assert len(edges) == 15

    def test_rejects_irregular(self):
        adj = np.ones((3, 3), dtype=bool)
        adj[0, 0] = False
        with pytest.raises(ValueError):
            bases.regular_bipartite_edge_coloring(3, adj, 3)


class TestMatchingBasis:
    def test_d5_valid(self):
        b = bases.matching_basis(5)
        assert len(b.elements) == 25
        assert bases.verify_orthogonal_unitary_basis(b).passed

    def test_d5_p1_spectrum(self):
        # oracle: eigendecompose the two-cycle permutation directly
        b = bases.matching_basis(5)
        p1 = b.elements[5]  # P1 Z^0
        eig = np.linalg.eigvals(p1)
        expected = sorted(
            [1, -1] + [np.exp(2j * np.pi * k / 3) for k in range(3)],
            key=lambda z: (round(z.real, 9), round(z.imag, 9)),
        )
        got = sorted(eig, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        assert np.allclose(got, expected, atol=1e-10)

    def test_p1_contains_kth_root(self):
        for d in (5, 6, 9):
            k = bases.smallest_nondividing(d)
            b = bases.matching_basis(d)
            eig = np.linalg.eigvals(b.elements[d])
            target = np.exp(2j * np.pi / k)
            assert np.min(np.abs(eig - target)) < 1e-10

    def test_p1_disjoint_from_identity(self):
        for d in (5, 7, 8):
            b = bases.matching_basis(d)
            p1 = b.elements[d]
            assert np.all(np.abs(np.diag(p1)) < 1e-12)

    @pytest.mark.parametrize("d", [5, 6, 7, 8])
    def test_valid_many_d(self, d):
        assert bases.verify_orthogonal_unitary_basis(bases.matching_basis(d)).passed


class TestWerner3:
    def test_beta_one_is_clock_shift(self):
        b = bases.werner3_basis(1.0)
        cs = bases.clock_shift_basis(3)
        for e in b.elements:
            assert any(np.allclose(e, ref, atol=1e-12) for ref in cs.elements)

    def test_generic_beta_valid(self):
        b = bases.werner3_basis(np.exp(1j * np.pi / 3))
        assert bases.verify_orthogonal_unitary_basis(b).passed

    def test_orthogonality_along_circle(self):
        for angle in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            b = bases.werner3_basis(np.exp(1j * angle))
            assert bases.verify_orthogonal_unitary_basis(b).passed

    def test_noncommuting_pair(self):
        b = bases.werner3_basis(np.exp(1j * np.pi / 3))
        u01, u02 = b.elements[1], b.elements[2]
        lhs, rhs = u01 @ u02, u02 @ u01
        # not proportional: normalized overlap strictly below 1
        overlap = abs(nk.hs_inner(lhs, rhs)) / 3
        assert overlap < 1 - 1e-3

    def test_rejects_nonunit_beta(self):
        for beta in (0.5, complex("nan+nanj"), complex(1.0, float("nan"))):
            with pytest.raises(ValueError):
                bases.werner3_basis(beta)


class TestVerify:
    def test_duplicated_element_fails(self):
        cs = bases.clock_shift_basis(2)
        broken = bases.UnitaryBasis(d=2, elements=(cs.elements[0],) * 2 + cs.elements[2:])
        report = bases.verify_orthogonal_unitary_basis(broken)
        assert not report.passed
        assert report.max_orthogonality_violation == pytest.approx(2.0)

    def test_pauli_family_passes(self):
        b = bases.UnitaryBasis(d=2, elements=(ID2, PAULI_Z, PAULI_X, PAULI_Y))
        assert bases.verify_orthogonal_unitary_basis(b).passed

    def test_nonunitary_fails(self):
        b = bases.UnitaryBasis(
            d=2, elements=(2 * ID2, PAULI_Z, PAULI_X, PAULI_Y)
        )
        assert not bases.verify_orthogonal_unitary_basis(b).passed

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_unitarity_violation_matches_per_element_loop(self, d):
        # a violation near 1e-9 on two elements of a moved clock/shift basis
        rng = np.random.default_rng(d)
        b = random_equivalence(bases.clock_shift_basis(d), rng)
        elements = list(b.elements)
        for k in (1, d + 2):
            elements[k] = elements[k] + 1e-9 * rng.standard_normal((d, d))
        noisy = bases.UnitaryBasis(d=d, elements=tuple(elements))
        report = bases.verify_orthogonal_unitary_basis(noisy)
        assert repr(report.max_unitarity_violation) == repr(reference_unitarity_violation(noisy))
        assert 1e-10 < report.max_unitarity_violation < 1e-8

    def test_nan_element_reports_nan_unitarity_violation(self):
        # 1.5 Y alone would give 1.25; the all-NaN element must not hide behind it
        elements = (ID2, np.full((2, 2), np.nan + 0j), PAULI_X, 1.5 * PAULI_Y)
        b = bases.UnitaryBasis(d=2, elements=elements)
        report = bases.verify_orthogonal_unitary_basis(b)
        assert np.isnan(report.max_unitarity_violation)
        assert not report.passed


class TestCertify:
    def test_matching5_fires_ratio(self):
        certs = bases.certify_not_clock_shift(bases.matching_basis(5))
        ratio = [c for c in certs if c.kind == bases.KIND_EIGENVALUE_RATIO]
        assert ratio
        cert = ratio[0]
        assert cert.witness == (0, 5)  # the pair (identity, P1)
        assert abs(cert.witness_value**5 - 1) > 1e-3  # genuinely not a 5th root

    def test_matching5_ratio_recheck(self):
        # re-running the named test on the witnessed elements reproduces the verdict
        b = bases.matching_basis(5)
        cert = [
            c
            for c in bases.certify_not_clock_shift(b)
            if c.kind == bases.KIND_EIGENVALUE_RATIO
        ][0]
        i, j = cert.witness
        w = np.linalg.eigvals(b.elements[i].conj().T @ b.elements[j])
        ratios = np.divide.outer(w, w)
        assert np.any(np.abs(ratios**b.d - 1) > 1e-9 * b.d)

    def test_pauli_tensor_fires_distinct_count(self):
        b = bases.pauli_tensor_basis(4)
        certs = bases.certify_not_clock_shift(b)
        assert kinds(certs) == [bases.KIND_DISTINCT_COUNT]
        cert = certs[0]
        assert cert.witness_value == 2
        # recheck: the witnessed pair really attains the reported count
        i, j = cert.witness
        w = np.linalg.eigvals(b.elements[i].conj().T @ b.elements[j])
        distinct = []
        for v in w:
            if all(abs(v - r) > 1e-7 for r in distinct):
                distinct.append(v)
        assert len(distinct) == cert.witness_value

    def test_werner3_fires_projective(self):
        b = bases.werner3_basis(np.exp(1j * np.pi / 3))
        certs = bases.certify_not_clock_shift(b)
        fired = [c for c in certs if c.kind == bases.KIND_PROJECTIVE]
        assert fired
        # recheck: the witnessed anchored products have a genuine commutator defect
        _, i, j = fired[0].witness
        anchor = b.elements[0].conj().T
        gi, gj = b.elements[i] @ anchor, b.elements[j] @ anchor
        comm = gi @ gj @ gi.conj().T @ gj.conj().T
        defect = np.linalg.norm(comm - (np.trace(comm) / 3) * np.eye(3))
        assert defect == pytest.approx(fired[0].witness_value)
        assert defect > 1e-3

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_clock_shift_fires_nothing(self, d):
        assert bases.certify_not_clock_shift(bases.clock_shift_basis(d)) == []

    def test_invariance_under_equivalence(self):
        rng = np.random.default_rng(99)
        targets = [
            bases.matching_basis(5),
            bases.werner3_basis(np.exp(1j * np.pi / 3)),
            bases.pauli_tensor_basis(4),
            bases.clock_shift_basis(4),
        ]
        for b in targets:
            before = kinds(bases.certify_not_clock_shift(b))
            phases = np.exp(2j * np.pi * rng.uniform(size=len(b.elements)))
            b2 = bases.apply_basis_equivalence(b, phases, haar(b.d, rng), haar(b.d, rng))
            assert kinds(bases.certify_not_clock_shift(b2)) == before

    def test_rejects_invalid_basis(self):
        broken = bases.UnitaryBasis(d=2, elements=(2 * ID2, PAULI_Z, PAULI_X, PAULI_Y))
        with pytest.raises(ValueError):
            bases.certify_not_clock_shift(broken)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_rejects_tol_at_clock_spacing(self, d):
        # the distinct-count threshold max(10 tol, 1e-7) must stay below
        # sin(pi/d), half the spacing of the clock's eigenvalues
        b = bases.clock_shift_basis(d)
        edge = np.sin(np.pi / d) / 10
        assert bases.certify_not_clock_shift(b, 0.99 * edge) == []
        for tol in (1.01 * edge, 1.0):
            with pytest.raises(ValueError, match="tol") as err:
                bases.certify_not_clock_shift(b, tol)
            assert not isinstance(err.value, bases.InvalidBasisError)

    def test_rejects_dimension_one(self):
        # a lone 1x1 unitary is a valid basis, but it has no pairs to certify
        b = bases.UnitaryBasis(d=1, elements=(np.eye(1, dtype=complex),))
        assert bases.verify_orthogonal_unitary_basis(b).passed
        with pytest.raises(ValueError, match="d >= 2"):
            bases.certify_not_clock_shift(b)


class TestProjectiveWitness:
    """T3 reports the first pair in scan order over tol*d and stops at its span."""

    @pytest.mark.parametrize("b", [pytest.param(b, id=name) for name, b in projective_bases()])
    def test_first_pair_over_tol(self, b):
        moved = [random_equivalence(b, np.random.default_rng([s, 29])) for s in range(3)]
        for basis in [b, *moved]:
            certs = bases.certify_not_clock_shift(basis)
            fired = [c for c in certs if c.kind == bases.KIND_PROJECTIVE]
            assert len(fired) == 1
            witness, _ = projective_witness(basis)
            assert fired[0].witness == witness
            assert repr(fired[0].witness_value) == repr(commutator_defect(basis, *witness[1:]))

    @pytest.mark.parametrize("d", [5, 6, 7, 8])
    def test_matching_scan_stops_at_the_witness_span(self, monkeypatch, d):
        # T1 and T2 settle on the head, before any screen, so every defect
        # stack is T3's: one, of rows 0 and 1, which holds the first witness
        b = bases.matching_basis(d)
        n = d * d
        sizes = []
        defects = bases._scalar_defects

        def counting(a):
            sizes.append(len(a))
            return defects(a)

        monkeypatch.setattr(bases, "_scalar_defects", counting)
        certs = bases.certify_not_clock_shift(b)
        monkeypatch.undo()
        (_, i, _), _ = projective_witness(b)
        assert i == 1
        assert sizes == [2 * n - 3]
        assert certificate_list(certs) == reference_certify(b)


class TestCertifyMatchesReference:
    """The block scan returns exactly what the per-pair loop returned."""

    @pytest.mark.parametrize("b", [pytest.param(b, id=name) for name, b in criterion2_bases()])
    def test_criterion2_bases(self, b):
        got = certificate_list(bases.certify_not_clock_shift(b))
        assert got == reference_certify(b)
        assert all(type(i) is int for _, witness, _ in got for i in witness)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_under_random_equivalence(self, seed):
        for k, (name, b) in enumerate(criterion2_bases()):
            moved = random_equivalence(b, np.random.default_rng([seed, k]))
            got = certificate_list(bases.certify_not_clock_shift(moved))
            assert got == reference_certify(moved), name

    @pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-14, 1e-15])
    @pytest.mark.parametrize(
        "k,b",
        [pytest.param(k, b, id=name) for k, (name, b) in enumerate(criterion2_bases()) if b.d <= 6],
    )
    def test_tolerance_sweep(self, k, b, tol):
        # near machine precision the d-th-power screen must clear no pair that T1
        # flags; at 1e-15 a screen without its rounding allowance fails clock-shift-3
        for basis in (b, random_equivalence(b, np.random.default_rng([11, k]))):
            got = certificate_list(bases.certify_not_clock_shift(basis, tol))
            assert got == reference_certify(basis, tol)

    @pytest.mark.parametrize("d", [4, 6])
    def test_screen_keeps_a_firing_pair(self, d):
        b = twisted_clock_shift(d)
        assert bases.verify_orthogonal_unitary_basis(b).passed
        certs = bases.certify_not_clock_shift(b)
        assert certs[0].kind == bases.KIND_EIGENVALUE_RATIO
        assert certs[0].witness == (d, 3 * d)
        assert certificate_list(certs) == reference_certify(b)
        moved = random_equivalence(b, np.random.default_rng(d))
        assert certificate_list(bases.certify_not_clock_shift(moved)) == reference_certify(moved)

    @pytest.mark.parametrize("theta", [np.pi / 3, 0.3, 1e-3])
    def test_screen_keeps_a_raising_pair(self, theta):
        b = twisted_pauli_tensor(theta)
        assert bases.verify_orthogonal_unitary_basis(b).passed
        certs = bases.certify_not_clock_shift(b)
        assert certs[0].kind == bases.KIND_EIGENVALUE_RATIO
        assert certs[0].witness == (2, 8)
        assert bases.KIND_DISTINCT_COUNT not in kinds(certs)
        assert certificate_list(certs) == reference_certify(b)
        moved = random_equivalence(b, np.random.default_rng(13))
        assert certificate_list(bases.certify_not_clock_shift(moved)) == reference_certify(moved)

    @pytest.mark.parametrize(
        "b,count", [pytest.param(b, count, id=name) for name, b, count in tensor_bases()]
    )
    def test_tensor_bases(self, b, count):
        got = certificate_list(bases.certify_not_clock_shift(b))
        assert got == [(bases.KIND_DISTINCT_COUNT, (0, 1), repr(count))]
        assert got == reference_certify(b)
        moved = random_equivalence(b, np.random.default_rng(b.d))
        assert certificate_list(bases.certify_not_clock_shift(moved)) == reference_certify(moved)

    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    @pytest.mark.parametrize(
        "family,d",
        [("clock-shift", 9), ("clock-shift", 12), ("matching", 9), ("matching", 10)],
    )
    def test_many_blocks(self, family, d, tol):
        b = bases.clock_shift_basis(d) if family == "clock-shift" else bases.matching_basis(d)
        n = d * d
        assert n * (n - 1) // 2 * d * d > 8 * bases._PAIR_BLOCK
        moved = random_equivalence(b, np.random.default_rng([d, 5]))
        got = certificate_list(bases.certify_not_clock_shift(moved, tol))
        assert got == reference_certify(moved, tol)

    @pytest.mark.parametrize("block", [None, 2**9, 5 * 16])
    def test_spans_cover_every_pair_once_in_order(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(bases, "_PAIR_BLOCK", block)
        for d in range(2, 13):
            step = max(1, bases._PAIR_BLOCK // (d * d))
            for n in range(4, 145):
                total = n * (n - 1) // 2
                # the T1/T2 head of row 0's first d pairs, and T3's rows 0 and 1
                for first in (d, 2 * n - 3):
                    spans = bases._pair_spans(n, d, first)
                    assert spans[0][0] == 0 and spans[-1][1] == total
                    assert all(hi == lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
                    assert all(0 < hi - lo <= step for lo, hi in spans)
                    assert min(first, total) in {hi for _, hi in spans}

    def test_span_kinds(self):
        # clock/shift-8, 128 pairs a block: T1/T2 take a head of 8 pairs, T3 rows 0
        # and 1 (125 pairs), then full blocks and a short last one
        head = bases._pair_spans(64, 8, 8)
        assert head[:3] == [(0, 8), (8, 136), (136, 264)]
        assert head[-1] == (1928, 2016) and len(head) == 17
        rows01 = bases._pair_spans(64, 8, 2 * 64 - 3)
        assert rows01[:2] == [(0, 125), (125, 253)]
        assert rows01[-1] == (1917, 2016) and len(rows01) == 16

    @pytest.mark.parametrize(
        "pair,block",
        [
            pytest.param((0, 1), None, id="head-first"),
            pytest.param((0, 4), None, id="head-last"),
            pytest.param((0, 5), None, id="first-block-first"),
            pytest.param((0, 9), 5 * 16, id="first-block-last"),
            pytest.param((1, 6), 5 * 16, id="full-block-first"),
            pytest.param((1, 10), 5 * 16, id="full-block-last"),
        ],
    )
    def test_ratio_witness_at_a_span_edge(self, monkeypatch, pair, block):
        # T1/T2 spans of 16 elements: the head (0, 4), then one block (4, 120); with
        # 5 pairs a block, (4, 9), (9, 14), (14, 19), (19, 24), ...  Every leaf fires
        # with both hubs, so the witness cannot be (i, 15) (ratio_witness_at): the
        # full block (19, 24) = (1, 6) .. (1, 10) stands for the others.
        if block is not None:
            monkeypatch.setattr(bases, "_PAIR_BLOCK", block)
        k = pair_index(16, *pair)
        assert any(k in (lo, hi - 1) for lo, hi in bases._pair_spans(16, 4, 4))
        b = ratio_witness_at(*pair)
        assert bases.verify_orthogonal_unitary_basis(b).passed
        certs = bases.certify_not_clock_shift(b)
        assert certs[0].kind == bases.KIND_EIGENVALUE_RATIO and certs[0].witness == pair
        assert certificate_list(certs) == reference_certify(b)
        moved = random_equivalence(b, np.random.default_rng([k, 17]))
        assert certificate_list(bases.certify_not_clock_shift(moved)) == reference_certify(moved)

    @pytest.mark.parametrize("place", ["first", "last"])
    @pytest.mark.parametrize("d", [4, 6])
    def test_firing_pair_at_a_block_edge(self, monkeypatch, d, place):
        # T1/T2 blocks start after the head, at pair d; size them so that the
        # eigenvalue-ratio witness (d, 3d) opens or closes one
        n = d * d
        offset = pair_index(n, d, 3 * d) - d
        step = offset if place == "first" else offset + 1
        monkeypatch.setattr(bases, "_PAIR_BLOCK", step * d * d)
        start = d + (offset if place == "first" else 0)
        assert (start, start + step) in bases._pair_spans(n, d, d)
        b = twisted_clock_shift(d)
        certs = bases.certify_not_clock_shift(b)
        assert certs[0].witness == (d, 3 * d)
        assert certificate_list(certs) == reference_certify(b)
        moved = random_equivalence(b, np.random.default_rng([d, 17]))
        assert certificate_list(bases.certify_not_clock_shift(moved)) == reference_certify(moved)

    def test_hub_basis_roles(self):
        e = hub_basis().elements
        fires = set()
        for i in range(16):
            for j in range(i + 1, 16):
                w = np.linalg.eigvals(e[i].conj().T @ e[j])
                if np.any(np.abs(np.divide.outer(w, w) ** 4 - 1) > 4 * nk.DEFAULT_TOL):
                    fires.add((i, j))
        assert fires == {tuple(sorted((h, leaf))) for h in HUBS for leaf in LEAVES}

    @pytest.mark.parametrize("block", [None, 2**9])
    @pytest.mark.parametrize(
        "b",
        [
            pytest.param(bases.clock_shift_basis(12), id="clock-shift-12"),
            pytest.param(bases.matching_basis(10), id="matching-10"),
            pytest.param(bases.pauli_tensor_basis(8), id="pauli-tensor-8"),
            pytest.param(twisted_pauli_tensor(0.3), id="twisted-pauli-tensor-4"),
        ],
    )
    def test_no_stack_exceeds_the_block(self, monkeypatch, b, block):
        if block is not None:
            monkeypatch.setattr(bases, "_PAIR_BLOCK", block)
        limit = bases._PAIR_BLOCK
        moved = random_equivalence(b, np.random.default_rng(b.d))
        sizes = []
        eigvals, matrix_power = np.linalg.eigvals, np.linalg.matrix_power

        def counting_eigvals(a):
            sizes.append(a.size)
            return eigvals(a)

        def counting_power(a, k):
            sizes.append(a.size)
            return matrix_power(a, k)

        monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
        monkeypatch.setattr(np.linalg, "matrix_power", counting_power)
        certs = bases.certify_not_clock_shift(moved)
        monkeypatch.undo()
        assert sizes and max(sizes) <= limit
        assert certificate_list(certs) == reference_certify(moved)

    @pytest.mark.parametrize(
        "b,rows",
        [
            (bases.matching_basis(7), 1),
            (bases.clock_shift_basis(4), 1),
            (bases.clock_shift_basis(8), 1),
            (twisted_clock_shift(4), 2),
            (bases.pauli_tensor_basis(4), 1),
            (bases.pauli_tensor_basis(8), 1),
            (tensor_bases()[0][1], 1),
            (twisted_pauli_tensor(np.pi / 3), 2),
        ],
        ids=[
            "matching-7",
            "clock-shift-4",
            "clock-shift-8",
            "twisted-4",
            "pauli-tensor-4",
            "pauli-tensor-8",
            "cs3xcs3",
            "twisted-pauli-tensor-4",
        ],
    )
    def test_eigenvalue_scan_stops_once_settled(self, monkeypatch, b, rows):
        # Each call is one span of pairs.  Matching bases settle T1 and T2 on
        # row 0's head of d pairs.  Clock/shift settles T2 on the head, and the
        # d-th-power screen clears every later pair, row 0's tail included; in
        # the twisted basis only the block holding row d keeps pairs, those
        # where T1 fires.  Pauli tensors and cs3xcs3 stop at k = 2 and 3
        # distinct eigenvalues on the head, and every later pair has a scalar
        # k-th power, so the k-th-power screen clears it.  The twisted Pauli
        # tensor keeps only row 2's pairs where T1 fires and T2 settles, all
        # in one block.
        calls = []
        eigvals = np.linalg.eigvals

        def counting(a):
            calls.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        certs = bases.certify_not_clock_shift(b)
        monkeypatch.undo()
        assert len(calls) == rows and calls[0] == (b.d, b.d, b.d)  # the head: d pairs
        assert certificate_list(certs) == reference_certify(b)
