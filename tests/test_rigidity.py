import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superdense import numkit as nk
from superdense import protocol as pr
from superdense import rigidity as rg
from superdense.numkit import ID2, PAULI_X, PAULI_Y, PAULI_Z
from superdense.numkit import haar_unitary as haar


def is_projector(m, tol):
    return nk.is_hermitian(m, tol) and np.linalg.norm(m @ m - m) <= tol * max(1.0, np.linalg.norm(m))


def epr_density():
    epr = nk.max_entangled(2)
    return np.outer(epr, epr.conj())


def planted_protocol(a1, b1, blocks, seed):
    rng = np.random.default_rng(seed)
    return pr.random_scrambled_bw(rng, a1, b1, blocks)


def noisy_scramble(a1, b1, blocks, seed, eps):
    """A scramble whose encoders get eps * (G + iG') noise, made unitary again."""
    p, _ = pr.random_scrambled_bw(np.random.default_rng([5, seed]), a1, b1, blocks)
    rng = np.random.default_rng([6, seed])
    encoders = tuple(
        nk.polar_decomposition(u + eps * (rng.standard_normal(u.shape)
                                          + 1j * rng.standard_normal(u.shape)))[1]
        for u in p.encoders
    )
    return pr.Protocol(p.dim_a_prime, p.dim_a_dbl, p.dim_b, p.tau, encoders)


# every item canonicalize documents for a NiceFormError
NICE_FORM_ITEMS = {
    "errorless", "item2", "item3", "item4", "block-restriction", "block-traceless",
    "block-kernel", "block-hermitian", "block-phases", "match", "frame", "verify",
}


def block_protocol(p_projs, rotations, rho):
    """The canonical form of rho (on A' (x) B') with blocks (P_r, S_r, 1), unscrambled."""
    blocks = tuple((pp, s, 1) for pp, s in zip(p_projs, rotations))
    return pr.canonical_form(rho, p_projs[0].shape[0], blocks)


def one_block_protocol(a1, delta, seed, noise=0.0, b1=2):
    """One-block canonical protocol under random S, C_i, V and W, not scrambled.

    rho^{A'} has eigenvalues 1/a1 with the top two moved by +-delta/2; tau is
    mixed with white noise of weight ``noise``.  At noise 0 it is errorless.
    """
    rng = np.random.default_rng([31, seed])
    lam = np.full(a1, 1.0 / a1)
    lam[:2] += np.array([delta, -delta]) / 2
    rho = np.zeros((a1 * b1, a1 * b1), dtype=complex)
    for k in range(a1):
        g = rng.standard_normal((b1, b1)) + 1j * rng.standard_normal((b1, b1))
        sigma = g @ g.conj().T
        rho[k * b1:(k + 1) * b1, k * b1:(k + 1) * b1] = lam[k] * sigma / np.trace(sigma).real
    blocks = ((np.eye(a1, dtype=complex), haar(2, rng), 1),)
    v, w = haar(2 * a1, rng), haar(2 * b1, rng)
    cs = [haar(a1, rng) for _ in range(4)]
    p = pr.apply_local_equivalence(pr.canonical_form(rho, a1, blocks), v.conj().T, cs, w.conj().T)
    tau = (1 - noise) * p.tau + noise * np.eye(p.tau.shape[0]) / p.tau.shape[0]
    return pr.Protocol(a1, 2, 2 * b1, tau, p.encoders)


def transported(rho, a1, blocks, rng):
    """The canonical form of (rho, blocks) under Haar V, C_i and W."""
    v, w = haar(2 * a1, rng), haar(2 * (rho.shape[0] // a1), rng)
    cs = [haar(a1, rng) for _ in range(4)]
    return pr.apply_local_equivalence(pr.canonical_form(rho, a1, blocks), v, cs, w)


def shared_eigenspace_protocol(seed):
    """rho = (1/3) sum_r |q_r><q_r| (x) |r><r| on A' (x) B' with a1 = b1 = 3:
    three rank-one blocks in the one eigenspace of rho^{A'} = 1/3."""
    rng = np.random.default_rng([83, seed])
    q = haar(3, rng)
    projs = [np.outer(q[:, r], q[:, r].conj()) for r in range(3)]
    rho = sum(np.kron(pp, np.diag(np.eye(3)[r])) for r, pp in enumerate(projs)) / 3
    return transported(rho, 3, tuple((pp, haar(2, rng), 1) for pp in projs), rng)


def one_bob_index_protocol(seed):
    """rho = sigma (x) |0><0| on A' (x) B' with a1 = 2, b1 = 3: Bob holds
    dimensions outside the state's support."""
    rng = np.random.default_rng([89, seed])
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    sigma = g @ g.conj().T
    rho = np.kron(sigma / np.trace(sigma).real, np.diag([1.0, 0.0, 0.0]))
    return transported(rho, 2, ((np.eye(2, dtype=complex), haar(2, rng), 1),), rng)


def mixed_dimension_protocol(split, seed):
    """rho^{A'} = diag(1/2, 1/4, 1/4) in a Haar basis q of A' (a1 = 3): one
    1-dimensional and one 2-dimensional eigenspace.  The 2-dimensional one is
    one rank-two block, or with ``split`` two rank-one blocks."""
    rng = np.random.default_rng([97, seed])
    q = haar(3, rng)
    proj = [np.outer(q[:, r], q[:, r].conj()) for r in range(3)]
    groups = [[0], [1], [2]] if split else [[0], [1, 2]]
    weights = [0.5, 0.25, 0.25] if split else [0.5, 0.5]
    b1 = len(groups)  # block r is paired with B' index r
    rho = sum(w * np.kron(sum(proj[k] for k in ks), np.diag(np.eye(b1)[r])) / len(ks)
              for r, (w, ks) in enumerate(zip(weights, groups)))
    blocks = tuple((sum(proj[k] for k in ks), haar(2, rng), 1) for ks in groups)
    return transported(rho, 3, blocks, rng)


GAP_SWEEP = [
    (tol, delta)
    for tol in (1e-8, 1e-6)
    for delta in (tol, 10 * tol, tol**0.5, 2 * tol**0.5, 5 * tol**0.5, 10 * tol**0.5)
]


class TestToNiceForm:
    def test_bennett_wiesner(self):
        nf = rg.to_nice_form(pr.bennett_wiesner())
        assert np.allclose(nf.v, ID2)
        assert nf.protocol.dim_b // 2 == 1
        assert nf.rho.shape == (1, 1) and nf.rho[0, 0] == pytest.approx(1.0)
        assert nk.trace_distance(nf.protocol.tau, epr_density()) < 1e-12

    def test_first_encoder_becomes_identity(self):
        p, _ = planted_protocol(3, 2, 2, seed=42)
        nf = rg.to_nice_form(p)
        assert np.allclose(nf.protocol.encoders[0], np.eye(p.dim_a), atol=1e-10)

    def test_items_hold_on_scrambles(self):
        for seed in (0, 1, 2):
            p, _ = planted_protocol(3, 3, 2, seed=seed)
            nf = rg.to_nice_form(p)
            proto = nf.protocol
            a1, dim_b_prime = proto.dim_a_prime, proto.dim_b // 2
            # item 2: state is rho (x) EPR
            target = nk.permute_factors(
                nk.tensor(nf.rho, epr_density()),
                [a1, dim_b_prime, 2, 2],
                [0, 2, 1, 3],
            )
            assert nk.trace_distance(proto.tau, target) < 1e-8
            # item 3: encoders commute with the Alice marginal
            tau_a = nk.partial_trace(proto.tau, [2 * a1, 2 * dim_b_prime], [0])
            for u in proto.encoders:
                assert np.linalg.norm(u @ tau_a @ u.conj().T - tau_a) < 1e-8
            # item 4: per-eigenspace partial-trace orthogonality
            positive = [
                (lam, basis @ basis.conj().T)
                for lam, basis in nf.eigenspaces
                if lam > 1e-8
            ]
            for i in range(4):
                for j in range(4):
                    if i == j:
                        continue
                    prod = proto.encoders[i] @ proto.encoders[j].conj().T
                    for _, proj in positive:
                        pk = np.kron(proj, ID2)
                        delta = nk.partial_trace(pk @ prod @ pk, [a1, 2], [0])
                        assert np.linalg.norm(delta) < 1e-8

    def test_eigenspaces_are_passed_on(self):
        p, _ = planted_protocol(4, 3, 3, seed=5)
        nf = rg.to_nice_form(p)
        lams = [lam for lam, _ in nf.eigenspaces]
        assert lams == sorted(lams, reverse=True) and min(lams) > 1e-8
        for _, basis in nf.eigenspaces:
            assert np.allclose(basis.conj().T @ basis, np.eye(basis.shape[1]), atol=1e-12)
        # the bases are columns of one eigendecomposition: mutually orthogonal
        cols = np.hstack([basis for _, basis in nf.eigenspaces])
        assert np.allclose(cols.conj().T @ cols, np.eye(cols.shape[1]), atol=1e-12)
        total = sum(basis @ basis.conj().T for _, basis in nf.eigenspaces)
        assert np.array_equal(nf.support, total)
        assert rg.block_diagonalize(nf).support is nf.support

    @pytest.mark.parametrize("a1,b1,blocks", [(1, 1, 1), (3, 3, 2), (4, 3, 3)])
    def test_one_grouping_per_call(self, monkeypatch, a1, b1, blocks):
        # only the reference marginal is grouped; each encoder's marginal is
        # split at the reference group sizes
        p, _ = planted_protocol(a1, b1, blocks, seed=3)
        calls = []
        spectral = nk.spectral_decomposition

        def counting(h, *args, **kwargs):
            calls.append(h.shape)
            return spectral(h, *args, **kwargs)

        monkeypatch.setattr(nk, "spectral_decomposition", counting)
        rg.to_nice_form(p)
        monkeypatch.undo()
        assert calls == [(a1, a1)]

    @pytest.mark.parametrize("a1,b1,blocks", [(1, 1, 1), (3, 3, 2), (4, 3, 3)])
    def test_item4_checks_each_unordered_pair_once(self, monkeypatch, a1, b1, blocks):
        # 7 partial traces outside item 4, then one per unordered encoder pair
        # (6 of them) and positive eigenspace: pair (j, i) repeats pair (i, j)
        p, _ = planted_protocol(a1, b1, blocks, seed=3)
        calls = []
        partial_trace = nk.partial_trace

        def counting(*args, **kwargs):
            calls.append(None)
            return partial_trace(*args, **kwargs)

        monkeypatch.setattr(nk, "partial_trace", counting)
        nf = rg.to_nice_form(p)
        monkeypatch.undo()
        assert len(calls) == 7 + 6 * len(nf.eigenspaces)

    def test_epr_fidelity(self):
        p, _ = planted_protocol(2, 2, 2, seed=9)
        nf = rg.to_nice_form(p)
        a1 = nf.protocol.dim_a_prime
        reduced = nk.partial_trace(
            nf.protocol.tau, [a1, 2, nf.protocol.dim_b // 2, 2], [1, 3]
        )
        assert nk.trace_distance(reduced, epr_density()) < 1e-8

    def test_rejects_noisy_protocol(self):
        bw = pr.bennett_wiesner()
        bad = pr.Protocol(1, 2, 2, bw.tau, (bw.encoders[0],) * 2 + bw.encoders[2:])
        with pytest.raises(rg.NiceFormError) as err:
            rg.to_nice_form(bad)
        assert err.value.item == "errorless"

    def test_rejects_wrong_message_dimension(self):
        from superdense.bases import clock_shift_basis

        p = pr.canonical_protocol(clock_shift_basis(3))
        with pytest.raises(ValueError):
            rg.to_nice_form(p)


def block_diagonalize_reference(n, tol=rg.DEFAULT_STAGE_TOL):
    """`rg.block_diagonalize` as one loop over encoders and eigenspaces, each
    step a 2-D call: the reference its stacked calls must match bit for bit."""
    a1, group_tol, all_blocks, corrections = n.protocol.dim_a_prime, math.sqrt(tol), [], []
    for i in (1, 2, 3):
        blocks_i, s_i = [], np.eye(a1, dtype=complex) - n.support
        for _, basis in n.eigenspaces:
            basis2 = nk.tensor(basis, ID2)
            mat = basis2.conj().T @ n.protocol.encoders[i] @ basis2
            d_f, t_f = nk.polar_decomposition(mat[0::2, 0::2])
            t_g, t_h = nk.polar_decomposition(mat[0::2, 1::2])[1], nk.polar_decomposition(mat[1::2, 0::2])[1]
            k_op, w_g, w_h = t_f.conj().T @ d_f @ t_f, t_f.conj().T @ t_g, t_h.conj().T @ t_f
            kw, kv = np.linalg.eigh((k_op + k_op.conj().T) / 2)
            in_supp = kw > tol
            e_op = kv[:, in_supp] @ kv[:, in_supp].conj().T
            if (~in_supp).any():
                null = kv[:, ~in_supp]
                y = null.conj().T @ (w_h @ w_g.conj().T) @ null
                e_op = e_op + null @ rg._principal_unitary_sqrt(y) @ null.conj().T
            s_ik = e_op @ t_f.conj().T
            herm = nk.tensor(s_ik, ID2) @ mat
            herm = (herm + herm.conj().T) / 2
            k_mat, l_mat, ew_g = herm[0::2, 0::2], herm[0::2, 1::2], e_op @ w_g
            for _, c_r in nk.spectral_decomposition(k_mat, group_tol=group_tol, tol=1e-6):
                t_s, z_s = nk.schur(c_r.conj().T @ ew_g @ c_r)
                betas = np.diag(t_s)
                used = np.zeros(len(betas), dtype=bool)
                for s in range(len(betas)):
                    if used[s]:
                        continue
                    cluster = (np.abs(betas - betas[s]) <= group_tol) & ~used
                    used |= cluster
                    zc = c_r @ z_s[:, cluster]
                    alpha = float(np.einsum("sm,mt,ts->", zc.conj().T, k_mat, zc).real) / zc.shape[1]
                    lam = complex(np.einsum("sm,mt,ts->", zc.conj().T, l_mat, zc)) / zc.shape[1]
                    nrm = math.hypot(alpha, abs(lam))
                    alpha, lam = alpha / nrm, lam / nrm
                    q = basis @ (zc @ zc.conj().T) @ basis.conj().T
                    blocks_i.append((q, np.array([[alpha, lam], [np.conj(lam), -alpha]], dtype=complex)))
            s_i = s_i + basis @ s_ik @ basis.conj().T
        all_blocks.append(blocks_i)
        corrections.append(s_i)
    return all_blocks, corrections


class TestBlockDiagonalize:
    @pytest.mark.parametrize("case", ["scrambles", "shared-eigenspace", "two-block", "mixed-dimensions",
                                      "exact-entries"])
    def test_stacks_equal_the_per_item_loop_bits(self, case):
        # eigenspaces of one and of several dimensions, and stacks that mix
        # items with and without a kernel of K.  1-dimensional items take the
        # stacked closed form, the others group and cluster one by one; exact
        # +-1 and +-i entries give exact zeros, whose sign a product by 1 + 0j could flip
        if case == "mixed-dimensions":
            protos = [mixed_dimension_protocol(split, seed) for split in (False, True) for seed in range(3)]
        elif case == "exact-entries":
            phase = np.diag([1, 1j]).astype(complex)
            projs = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
            protos = [pr.bennett_wiesner()]
            protos += [block_protocol([np.eye(1, dtype=complex)], [s], np.eye(1, dtype=complex))
                       for s in (phase, PAULI_X @ phase)]
            for w0 in (0.7, 0.5):
                rho = w0 * np.kron(projs[0], projs[0]) + (1 - w0) * np.kron(projs[1], projs[1])
                protos.append(block_protocol(projs, [ID2, phase], rho))
        elif case == "scrambles":
            protos = [planted_protocol(a1, b1, k, seed=[90, a1]) for a1, b1, k in
                      ((1, 1, 1), (2, 2, 2), (3, 3, 2), (4, 3, 3), (6, 4, 2))]
            protos = [p for p, _ in protos] + [pr.bennett_wiesner()]
        elif case == "shared-eigenspace":
            protos = [shared_eigenspace_protocol(seed) for seed in range(3)]
        else:
            had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
            projs = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
            rho = 0.7 * np.kron(projs[0], projs[0]) + 0.3 * np.kron(projs[1], projs[1])
            protos = [block_protocol(projs, [ID2, had], rho), block_protocol(projs, [had, ID2], rho)]
        for p in protos:
            nf = rg.to_nice_form(p)
            bf = rg.block_diagonalize(nf)
            blocks, corrections = block_diagonalize_reference(nf)
            assert [len(b) for b in bf.blocks] == [len(b) for b in blocks]
            for got, ref in zip(bf.blocks, blocks):
                for (q, r), (q_ref, r_ref) in zip(got, ref):
                    assert q.tobytes() == q_ref.tobytes() and r.tobytes() == r_ref.tobytes()
            for c, c_ref in zip(bf.corrections, corrections):
                assert c.tobytes() == c_ref.tobytes()

    def test_single_block_x_encoder(self):
        p = block_protocol([np.eye(1, dtype=complex)], [ID2], np.eye(1, dtype=complex))
        nf = rg.to_nice_form(p)
        bf = rg.block_diagonalize(nf)
        # encoder 3 (index 2 of blocks) carries X
        (q, r), = bf.blocks[1]
        assert np.allclose(q, np.eye(1))
        assert np.allclose(r, PAULI_X, atol=1e-12)

    def test_planted_two_block_encoder(self):
        proj = np.diag([1.0, 0.0]).astype(complex)
        comp = np.diag([0.0, 1.0]).astype(complex)
        had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        rho = 0.5 * np.kron(proj, np.diag([1.0, 0.0])) + 0.5 * np.kron(
            comp, np.diag([0.0, 1.0])
        )
        p = block_protocol([proj, comp], [ID2, had], rho.astype(complex))
        nf = rg.to_nice_form(p)
        bf = rg.block_diagonalize(nf)
        z_blocks = bf.blocks[0]  # encoder 2 plants P(x)Z + P_perp(x)HZH
        mats = [np.array(r) for _, r in z_blocks]
        assert len(mats) == 2
        assert any(np.allclose(m, PAULI_Z, atol=1e-8) for m in mats)
        assert any(np.allclose(m, PAULI_X, atol=1e-8) for m in mats)

    def test_two_blocks_unequal_weights_share_one_stack(self, monkeypatch):
        # rho^{A'} = diag(0.7, 0.3): two 1-dimensional eigenspaces, so the six
        # (encoder, eigenspace) items form one stack.  With S_1 = 1 and
        # S_2 = Hadamard, F = 0 where an encoder restricts to X or Y, so the
        # stack mixes items with ker(K) != 0 and items without
        proj = np.diag([1.0, 0.0]).astype(complex)
        comp = np.diag([0.0, 1.0]).astype(complex)
        had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        rho = 0.7 * np.kron(proj, np.diag([1.0, 0.0])) + 0.3 * np.kron(comp, np.diag([0.0, 1.0]))
        p = block_protocol([proj, comp], [ID2, had], rho.astype(complex))
        nf = rg.to_nice_form(p)
        assert [basis.shape[1] for _, basis in nf.eigenspaces] == [1, 1]
        kernels = []
        sqrt = rg._principal_unitary_sqrt
        monkeypatch.setattr(rg, "_principal_unitary_sqrt", lambda y: kernels.append(y) or sqrt(y))
        dec, rep = rg.canonicalize(p)
        monkeypatch.undo()
        assert len(kernels) == 4  # HZH = X, X on the identity block, and Y and HYH = -Y
        assert rep.passed and rg.verify_decomposition(p, dec).passed
        assert sorted(np.trace(p_r).real for p_r, _, _ in dec.blocks) == pytest.approx([1.0, 1.0])

    def test_r_matrices_are_reflections(self):
        p, _ = planted_protocol(4, 2, 2, seed=2)
        bf = rg.block_diagonalize(rg.to_nice_form(p))
        for enc_blocks in bf.blocks:
            total = np.zeros_like(bf.support)
            for q, r in enc_blocks:
                assert np.allclose(np.linalg.eigvalsh(r), [-1.0, 1.0], atol=1e-9)
                assert abs(np.trace(r)) < 1e-9
                assert nk.is_hermitian(r, 1e-9) and nk.is_unitary(r, 1e-9)
                assert is_projector(q, 1e-8)
                total = total + q
            assert np.allclose(total, bf.support, atol=1e-8)

    def test_reconstruction_on_state(self):
        p, _ = planted_protocol(3, 2, 2, seed=3)
        nf = rg.to_nice_form(p)
        bf = rg.block_diagonalize(nf)
        tau = nf.protocol.tau
        dim_b = tau.shape[0] // (2 * nf.protocol.dim_a_prime)
        for idx in range(3):
            u = nf.protocol.encoders[idx + 1]
            corrected = np.kron(bf.corrections[idx], ID2) @ u
            recon = sum(np.kron(q, r) for q, r in bf.blocks[idx])
            lhs = np.kron(corrected, np.eye(dim_b))
            rhs = np.kron(recon, np.eye(dim_b))
            dist = nk.trace_distance(lhs @ tau @ lhs.conj().T, rhs @ tau @ rhs.conj().T)
            assert dist < 1e-7


class TestCommonEigenvector:
    def test_rank_one(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        v = rg.common_eigenvector(p0, p0, p0)
        assert abs(abs(v[0]) - 1) < 1e-12

    def test_identity_convention(self):
        v = rg.common_eigenvector(np.eye(2), np.eye(2), np.eye(2))
        assert np.allclose(v, [1, 0])

    def test_planted_shared_vector(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = 5
            shared = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            shared /= np.linalg.norm(shared)
            projs = []
            for _ in range(3):
                extra = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
                extra -= np.outer(shared, shared.conj() @ extra)
                basis = np.linalg.qr(np.column_stack([shared, extra]))[0][:, :3]
                projs.append(basis @ basis.conj().T)
            v = rg.common_eigenvector(*projs)
            for p in projs:
                assert np.linalg.norm(p @ v - v) < 1e-9

    def test_rejects_disjoint(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(rg.NiceFormError) as err:
            rg.common_eigenvector(p0, p1, p0)
        assert err.value.item == "match"


class TestMatchBlocks:
    def test_single_block(self):
        p = block_protocol([np.eye(1, dtype=complex)], [ID2], np.eye(1, dtype=complex))
        mb = rg.match_blocks(rg.block_diagonalize(rg.to_nice_form(p)))
        assert len(mb.k_projectors) == 1
        assert np.allclose(mb.k_projectors[0], np.eye(1))
        r2, r3, r4 = mb.triples[0]
        assert np.allclose(r2, PAULI_Z, atol=1e-10)
        assert np.allclose(r3, PAULI_X, atol=1e-10)

    def test_planted_blocks_partition(self):
        p, planted = planted_protocol(4, 3, 3, seed=5)
        nf = rg.to_nice_form(p)
        mb = rg.match_blocks(rg.block_diagonalize(nf))
        total = sum(mb.k_projectors) + np.eye(4) - nf.support
        assert np.allclose(total, np.eye(4), atol=1e-8)
        # the coarsest refinement: one projector per planted block, of its rank
        ranks = sorted(np.trace(k).real for k in mb.k_projectors)
        planted_ranks = sorted(np.trace(q).real for q, _, _ in planted.blocks)
        assert np.allclose(ranks, planted_ranks, atol=1e-8)

    def test_triples_orthogonal(self):
        p, _ = planted_protocol(4, 2, 2, seed=6)
        mb = rg.match_blocks(rg.block_diagonalize(rg.to_nice_form(p)))
        for r2, r3, r4 in mb.triples:
            assert abs(nk.hs_inner(r2, r3)) < 1e-8
            assert abs(nk.hs_inner(r2, r4)) < 1e-8
            assert abs(nk.hs_inner(r3, r4)) < 1e-8

    def test_blocks_keep_their_rank(self):
        # a rank-two block in one eigenspace stays one projector of rank two
        rng = np.random.default_rng(31)
        proj = np.diag([1.0, 1.0, 0.0]).astype(complex)
        comp = np.diag([0.0, 0.0, 1.0]).astype(complex)
        rho = (
            2 / 3 * np.kron(proj / 2, np.diag([1.0, 0.0]))
            + 1 / 3 * np.kron(comp, np.diag([0.0, 1.0]))
        ).astype(complex)
        p = block_protocol([proj, comp], [haar(2, rng), haar(2, rng)], rho)
        mb = rg.match_blocks(rg.block_diagonalize(rg.to_nice_form(p)))
        assert sorted(round(np.trace(k).real) for k in mb.k_projectors) == [1, 2]
        for k in mb.k_projectors:
            assert is_projector(k, 1e-8)

    def test_noncommuting_encoders_raise(self):
        # encoder 3's projectors rotated off encoder 2's: their products are not projectors
        proj = np.diag([1.0, 0.0]).astype(complex)
        rot = haar(2, np.random.default_rng(47))
        turned = rot @ proj @ rot.conj().T
        layout = ((proj, PAULI_Z, PAULI_X), (turned, PAULI_X, PAULI_Y), (proj, PAULI_Y, PAULI_Z))
        bf = rg.BlockForm(
            blocks=tuple(((q, r), (ID2 - q, r_perp)) for q, r, r_perp in layout),
            corrections=(np.eye(2, dtype=complex),) * 3,
            support=np.eye(2, dtype=complex),
        )
        with pytest.raises(rg.NiceFormError) as err:
            rg.match_blocks(bf)
        assert err.value.item == "match"


class TestPauliFrame:
    def test_canonical_triple(self):
        s, sign = rg.pauli_frame(PAULI_Z, PAULI_X, PAULI_Y)
        assert sign == 1
        assert np.allclose(s @ PAULI_Z @ s.conj().T, PAULI_Z, atol=1e-12)
        assert np.allclose(s @ PAULI_X @ s.conj().T, PAULI_X, atol=1e-12)

    def test_hadamard_triple(self):
        s, sign = rg.pauli_frame(PAULI_X, PAULI_Z, -PAULI_Y)
        assert sign == 1
        had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        # oracle: H Z H = X, H X H = Z, H Y H = -Y
        assert np.allclose(had @ PAULI_Z @ had, PAULI_X)
        assert np.allclose(had @ PAULI_Y @ had, -PAULI_Y)
        assert np.allclose(s @ PAULI_Z @ s.conj().T, PAULI_X, atol=1e-12)
        assert np.allclose(s @ PAULI_Y @ s.conj().T, -PAULI_Y, atol=1e-12)

    def test_reversed_orientation(self):
        s, sign = rg.pauli_frame(PAULI_X, PAULI_Z, PAULI_Y)
        assert sign == -1
        assert np.allclose(s @ (sign * PAULI_Y) @ s.conj().T, PAULI_Y, atol=1e-12)

    def test_random_conjugated_triples(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            u = haar(2, rng)
            triple = [u @ m @ u.conj().T for m in (PAULI_Z, PAULI_X, PAULI_Y)]
            s, sign = rg.pauli_frame(*triple)
            assert sign == 1
            assert np.allclose(s @ PAULI_Z @ s.conj().T, triple[0], atol=1e-9)
            assert np.allclose(s @ PAULI_X @ s.conj().T, triple[1], atol=1e-9)
            assert np.allclose(s @ PAULI_Y @ s.conj().T, triple[2], atol=1e-9)

    def test_rejects_bad_input(self):
        with pytest.raises(rg.NiceFormError) as err:
            rg.pauli_frame(PAULI_Z, PAULI_Z, PAULI_Y)
        assert err.value.item == "frame"
        with pytest.raises(rg.NiceFormError) as err:
            rg.pauli_frame(ID2, PAULI_X, PAULI_Y)
        assert err.value.item == "frame"


class TestCanonicalize:
    def test_bennett_wiesner_trivial_block(self):
        dec, _ = rg.canonicalize(pr.bennett_wiesner())
        assert len(dec.blocks) == 1
        p_r, s_r, sign = dec.blocks[0]
        assert np.allclose(p_r, np.eye(1)) and sign == 1
        # S is the identity up to phase: it fixes Z and X under conjugation
        assert np.allclose(s_r @ PAULI_Z @ s_r.conj().T, PAULI_Z, atol=1e-10)
        assert np.allclose(s_r @ PAULI_X @ s_r.conj().T, PAULI_X, atol=1e-10)
        rep = rg.verify_decomposition(pr.bennett_wiesner(), dec)
        assert rep.passed and rep.state_residual < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_scrambles_round_trip(self, seed):
        rng = np.random.default_rng([77, seed])
        a1 = int(rng.integers(1, 7))
        blocks = int(rng.integers(1, min(3, a1) + 1))
        b1 = int(rng.integers(blocks, 5))
        p, _ = pr.random_scrambled_bw(rng, a1, b1, blocks)
        dec, _ = rg.canonicalize(p)
        rep = rg.verify_decomposition(p, dec, tol=1e-7)
        assert rep.passed, (rep.state_residual, rep.encoder_residuals)

    def test_negative_orientation_protocol(self):
        encs = tuple(
            m.reshape(2, 2).astype(complex) for m in (ID2, PAULI_Z, PAULI_X, -PAULI_Y)
        )
        p = pr.Protocol(1, 2, 2, epr_density(), encs)
        dec, _ = rg.canonicalize(p)
        assert dec.blocks[0][2] == -1
        assert rg.verify_decomposition(p, dec).passed

    def test_dead_space_gets_vacuous_block(self):
        rng = np.random.default_rng(41)
        rho = np.diag([1.0, 0.0]).astype(complex)
        tau = nk.permute_factors(
            nk.tensor(rho, epr_density()), [2, 1, 2, 2], [0, 2, 1, 3]
        )
        live = np.diag([1.0, 0.0]).astype(complex)
        dead = np.diag([0.0, 1.0]).astype(complex)
        encoders = tuple(
            np.kron(live, sig) + np.kron(dead, haar(2, rng)) for sig in nk.PAULIS
        )
        p = pr.Protocol(2, 2, 2, tau, encoders)
        dec, _ = rg.canonicalize(p)
        ranks = [int(round(np.trace(b[0]).real)) for b in dec.blocks]
        assert ranks == [1, 1]
        assert np.allclose(dec.blocks[-1][1], ID2)  # vacuous block carries S = 1
        assert rg.verify_decomposition(p, dec).passed

    @pytest.mark.parametrize("seed", range(8))
    def test_blocks_sharing_one_marginal_eigenspace(self, seed):
        # match_blocks skips the triangles whose rank-one projectors miss each other
        p = shared_eigenspace_protocol(seed)
        assert len(rg.to_nice_form(p).eigenspaces) == 1
        dec, rep = rg.canonicalize(p)
        assert rep.passed and len(dec.blocks) == 3
        assert all(round(np.trace(p_r).real) == 1 for p_r, _, _ in dec.blocks)

    @pytest.mark.parametrize("seed", range(4))
    def test_bob_dimensions_outside_the_support(self, seed):
        # to_nice_form completes W past the span of Bob's vectors (rank 4 of 6)
        p = one_bob_index_protocol(seed)
        nf = rg.to_nice_form(p)
        assert nf.w.shape == (6, 6) and np.linalg.matrix_rank(nf.rho) == 2
        assert np.allclose(nf.w.conj().T @ nf.w, np.eye(6), atol=1e-10)
        dec, rep = rg.canonicalize(p)
        assert rep.passed

    def test_gauge_robustness(self):
        base_rng = np.random.default_rng(53)
        p, _ = pr.random_scrambled_bw(base_rng, 3, 2, 2)
        for seed in (0, 1):
            rng = np.random.default_rng([99, seed])
            q = pr.apply_local_equivalence(
                p, haar(p.dim_a, rng), [haar(p.dim_a_prime, rng) for _ in range(4)],
                haar(p.dim_b, rng),
            )
            dec, _ = rg.canonicalize(q)
            assert rg.verify_decomposition(q, dec, tol=1e-7).passed

    def test_noisy_scramble_within_tolerance(self):
        # 1e-6 encoder noise, made unitary again, leaves Bob's vectors
        # spanning C^b without being exactly orthonormal
        q = noisy_scramble(3, 3, 2, 0, 1e-6)
        dec, _ = rg.canonicalize(q, tol=1e-5)
        rep = rg.verify_decomposition(q, dec, tol=1e-5)
        assert rep.passed, (rep.state_residual, rep.encoder_residuals)

    def test_unverified_result_raises(self):
        # every stage passes its tol*10 or tol*100 gate, but the encoder
        # residual of the result, 4.1e-8, exceeds tol
        q = noisy_scramble(3, 3, 2, 9, 1e-9)
        with pytest.raises(rg.NiceFormError) as err:
            rg.canonicalize(q, tol=1e-8)
        assert err.value.item == "verify"

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        a1=st.integers(1, 4),
        shape=st.tuples(st.integers(0, 2), st.integers(0, 3)),
        seed=st.integers(0, 2**16),
        eps=st.just(0.0) | st.floats(-12, -5).map(lambda x: 10.0**x),
        tol=st.sampled_from([1e-8, 1e-7, 1e-6, 1e-5]),
    )
    def test_verified_or_named_failure(self, a1, shape, seed, eps, tol):
        blocks = min(shape[0], a1 - 1) + 1
        b1 = blocks + shape[1]
        q = noisy_scramble(a1, b1, blocks, seed, eps)
        try:
            dec, rep = rg.canonicalize(q, tol)
        except rg.NiceFormError as exc:
            assert exc.item in NICE_FORM_ITEMS
            return
        assert rep.passed
        assert rg.verify_decomposition(q, dec, tol).passed


class TestOneBlockProtocols:
    """Near-degenerate marginals: gaps of rho^{A'} across [tol, 10 sqrt(tol)]."""

    @pytest.mark.parametrize("tol,delta", GAP_SWEEP, ids=[f"{t:g}-{d:.1e}" for t, d in GAP_SWEEP])
    def test_errorless_inputs_verify(self, tol, delta):
        # a gap near sqrt(tol), the grouping threshold, must not be read
        # differently for an encoder's marginal and the reference one
        for a1 in (2, 3, 4):
            for seed in range(8):
                p = one_block_protocol(a1, delta, seed)
                dec, rep = rg.canonicalize(p, tol)
                assert rep.passed
                assert rg.verify_decomposition(p, dec, tol).passed

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        a1=st.integers(2, 4),
        gap=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
        noise=st.just(0.0) | st.floats(-12, -4).map(lambda x: 10.0**x),
        tol=st.sampled_from([1e-8, 1e-6]),
    )
    def test_white_noise_verified_or_named_failure(self, a1, gap, seed, noise, tol):
        delta = tol ** (1 - gap / 2) * 10.0**gap  # log-uniform over [tol, 10 sqrt(tol)]
        p = one_block_protocol(a1, delta, seed, noise)
        try:
            dec, rep = rg.canonicalize(p, tol)
        except rg.NiceFormError as exc:
            assert noise > 0, exc
            assert exc.item in NICE_FORM_ITEMS
            return
        assert rep.passed
        assert rg.verify_decomposition(p, dec, tol).passed


class TestVerifyDecomposition:
    def test_planted_verifies(self):
        p, planted = planted_protocol(3, 3, 2, seed=61)
        rep = rg.verify_decomposition(p, planted)
        assert rep.passed
        assert rep.state_residual < 1e-12
        assert max(rep.encoder_residuals) < 1e-12

    def test_trivial_bw_decomposition(self):
        dec = rg.CanonicalDecomposition(
            v=ID2.copy(),
            w=ID2.copy(),
            c=(np.eye(1, dtype=complex),) * 4,
            rho=np.eye(1, dtype=complex),
            blocks=((np.eye(1, dtype=complex), ID2.copy(), 1),),
        )
        rep = rg.verify_decomposition(pr.bennett_wiesner(), dec)
        assert rep.passed and rep.state_residual < 1e-12

    def test_sign_flip_never_matters(self):
        p, planted = planted_protocol(3, 2, 2, seed=67)
        flipped = rg.CanonicalDecomposition(
            v=planted.v, w=planted.w, c=planted.c, rho=planted.rho,
            blocks=tuple((q, s, -sg) for q, s, sg in planted.blocks),
        )
        a = rg.verify_decomposition(p, planted)
        b = rg.verify_decomposition(p, flipped)
        assert a.passed == b.passed
        assert a.encoder_residuals == b.encoder_residuals

    def test_corrupted_s_fails(self):
        rng = np.random.default_rng(71)
        p, planted = planted_protocol(2, 2, 1, seed=71)
        q, s, sg = planted.blocks[0]
        bad = rg.CanonicalDecomposition(
            v=planted.v, w=planted.w, c=planted.c, rho=planted.rho,
            blocks=((q, haar(2, rng), sg),),
        )
        assert not rg.verify_decomposition(p, bad).passed

    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_wrong_correction_count_raises(self, count):
        p, planted = planted_protocol(2, 2, 1, seed=3)
        bad = dataclasses.replace(planted, c=(planted.c * 2)[:count])
        with pytest.raises(ValueError) as err:
            rg.verify_decomposition(p, bad)
        assert str(err.value) == f"c must hold one correction per encoder: expected 4, got {count}"

    @pytest.mark.parametrize("field", ["v", "w", "c"])
    def test_wrong_shape_raises(self, field):
        p, planted = planted_protocol(2, 2, 1, seed=3)
        value = {"v": np.eye(3), "w": np.eye(3), "c": planted.c[:3] + (np.eye(3),)}[field]
        with pytest.raises(ValueError) as err:
            rg.verify_decomposition(p, dataclasses.replace(planted, **{field: value}))
        assert str(err.value).startswith("c[3] " if field == "c" else f"{field} ")

    def test_w_with_the_wrong_row_count_raises(self):
        p, planted = planted_protocol(2, 2, 1, seed=3)
        w = haar(6, np.random.default_rng(3))[:, :4]  # an isometry B -> C^6
        with pytest.raises(ValueError) as err:
            rg.verify_decomposition(p, dataclasses.replace(planted, w=w))
        assert str(err.value) == "w must map B to B' (x) B'': expected shape (4, 4), got (6, 4)"

    def test_mismatched_w_fails(self):
        rng = np.random.default_rng(73)
        p, planted = planted_protocol(2, 2, 1, seed=73)
        bad = rg.CanonicalDecomposition(
            v=planted.v, w=haar(p.dim_b, rng), c=planted.c, rho=planted.rho,
            blocks=planted.blocks,
        )
        rep = rg.verify_decomposition(p, bad)
        assert rep.state_residual > 0.01
