import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

from spinnet import spinops
from spinnet.constants import TWO_PI
from spinnet.network import NV_AXES, EnsembleSpec, Species, SpinSite
from spinnet.spinops import (
    ClusterHamiltonian,
    Frame,
    build_cluster_hamiltonian,
    effective_disorder,
    effective_rabi,
    nv_scaling,
    operator_set,
)
from test_network_reference import network_from_sites, tilt_projection

Z = np.array([0.0, 0.0, 1.0])


def site(pos, species=Species.P1, axis_idx=0, subgroup=0):
    return SpinSite(
        id=0,
        position_nm=np.asarray(pos, dtype=float),
        species=species,
        axis=NV_AXES[axis_idx].copy(),
        subgroup=subgroup,
    )


def cluster(sites):
    """The network of ``sites``, quantized along z."""
    return network_from_sites(EnsembleSpec(box_nm=1.0, densities_ppm={}, field_axis=tuple(Z)), sites)


def coupling(sites):
    """The NV-scaled dipolar coupling of a two-site cluster, MHz."""
    return spinops._coupling_map(cluster(sites))[0, 1]


def hamiltonian(sites, frame, cmap=None):
    """The cluster Hamiltonian of ``sites``: the dipolar couplings through
    the public builder, or the explicit couplings ``cmap`` through the
    builder's own :func:`spinops._hamiltonian`."""
    net = cluster(sites)
    if cmap is None:
        return build_cluster_hamiltonian(net, frame)
    return spinops._hamiltonian(net.n_sites, frame, cmap, net.group_key.tolist())


def is_heterogeneous(site_i, site_j):
    """Per-site reference classifier: True when the pair's transition
    frequencies differ (species, axis or spectral subgroup mismatch)."""
    if site_i.species != site_j.species:
        return True
    if not np.allclose(site_i.axis, site_j.axis):
        return True
    return site_i.subgroup != site_j.subgroup


def pair_sites(r_nm=10.0, species=(Species.P1, Species.P1), subgroups=(0, 0)):
    # separation perpendicular to the z quantization axis: J = J0 / r^3
    return [
        site([0, 0, 0], species[0], subgroup=subgroups[0]),
        site([r_nm, 0, 0], species[1], subgroup=subgroups[1]),
    ]


def test_operator_algebra():
    ops = operator_set(3)
    for i in range(3):
        comm = ops.sx[i] @ ops.sy[i] - ops.sy[i] @ ops.sx[i]
        assert np.allclose(comm, 1j * ops.sz[i], atol=1e-14)
        assert np.allclose(ops.sx[i], ops.sx[i].conj().T)
    # operators on different sites commute
    cross = ops.sx[0] @ ops.sy[1] - ops.sy[1] @ ops.sx[0]
    assert np.abs(cross).max() < 1e-14


def test_dipolar_coupling_closed_form():
    dipolar = lambda r: spinops._dipolar(np.array(r, dtype=float), Z)
    assert dipolar([10, 0, 0]) == pytest.approx(0.052)
    assert dipolar([0, 0, 10]) == pytest.approx(-0.104)
    magic = np.array([math.sqrt(2), 0, 1])  # cos^2(theta) = 1/3
    assert dipolar(10 * magic / np.linalg.norm(magic)) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        dipolar([0, 0, 0])


def test_nv_scaling_and_spin1_oracle():
    assert nv_scaling(1.0, 0) == 1.0
    assert nv_scaling(1.0, 1) == pytest.approx(math.sqrt(2))
    assert nv_scaling(1.0, 2) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        nv_scaling(1.0, 3)
    # spin-1 transverse matrix element between |0> and |-1> vs spin-1/2:
    # basis {+1, 0, -1}
    sx1 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / math.sqrt(2)
    elem_spin1 = abs(sx1[1, 2])
    elem_half = 0.5
    assert elem_spin1 / elem_half == pytest.approx(math.sqrt(2), rel=1e-12)

    nv_p1 = pair_sites(10.0, (Species.NV, Species.P1))
    assert coupling(nv_p1) == pytest.approx(math.sqrt(2) * 0.052)
    nv_nv = pair_sites(10.0, (Species.NV, Species.NV))
    assert coupling(nv_nv) == pytest.approx(2 * 0.052)
    p1_p1 = pair_sites(10.0)
    assert coupling(p1_p1) == pytest.approx(0.052)


def test_secular_intra_hand_matrix():
    j = 0.8
    ham = hamiltonian(pair_sites(), Frame.LAB_SECULAR, {(0, 1): j})
    # basis |uu>, |ud>, |du>, |dd>
    expected = np.array(
        [
            [j / 4, 0, 0, 0],
            [0, -j / 4, -j / 4, 0],
            [0, -j / 4, -j / 4, 0],
            [0, 0, 0, j / 4],
        ]
    )
    assert np.allclose(ham.matrix, expected, atol=1e-14)


def test_secular_single_spin_zero():
    ham = build_cluster_hamiltonian(cluster([site([0, 0, 0])]), Frame.LAB_SECULAR)
    assert np.all(ham.matrix == 0)


def test_ising_inter_nv_p1_eigenvalues():
    sites = pair_sites(10.0, (Species.NV, Species.P1))
    ham = build_cluster_hamiltonian(cluster(sites), Frame.LAB_SECULAR)
    j_scaled = math.sqrt(2) * 0.052
    assert np.allclose(ham.matrix, np.diag([j_scaled / 4, -j_scaled / 4, -j_scaled / 4, j_scaled / 4]))
    evals = np.sort(np.linalg.eigvalsh(ham.matrix))
    assert evals[0] == pytest.approx(-j_scaled / 4)
    assert evals[-1] == pytest.approx(+j_scaled / 4)


def test_ising_magic_angle_zero():
    v = np.array([math.sqrt(2), 0, 1])
    sites = [
        site([0, 0, 0], Species.NV),
        site(10 * v / np.linalg.norm(v), Species.P1),
    ]
    ham = build_cluster_hamiltonian(cluster(sites), Frame.LAB_SECULAR)
    assert np.abs(ham.matrix).max() < 1e-15


def test_dressed_intra_hand_matrix():
    j = 1.2
    ham = hamiltonian(pair_sites(), Frame.DRESSED, {(0, 1): j})
    ops = operator_set(2)
    expected = (
        j / 4 * (ops.sy[0] @ ops.sy[1] + ops.sz[0] @ ops.sz[1])
        - j / 2 * (ops.sx[0] @ ops.sx[1])
    )
    assert np.allclose(ham.matrix, expected, atol=1e-14)
    # tilted flip-flop coefficient is +j/8 on the bare ladder product
    ff = ops.tp[0] @ ops.tm[1] + ops.tm[0] @ ops.tp[1]
    ising_x = ham.matrix + j / 2 * (ops.sx[0] @ ops.sx[1])
    assert np.allclose(ising_x, j / 8 * ff, atol=1e-14)


def test_dressed_conserves_total_sx():
    rng = np.random.default_rng(0)
    sites = [site(rng.uniform(0, 30, 3)) for _ in range(4)]
    ham = build_cluster_hamiltonian(cluster(sites), Frame.DRESSED)
    ops = operator_set(4)
    comm = ham.matrix @ ops.total_sx - ops.total_sx @ ham.matrix
    assert np.abs(comm).max() < 1e-12
    het = [site(rng.uniform(0, 30, 3), sp) for sp in (Species.NV, Species.P1, Species.P1)]
    het[2].subgroup = 1
    ham2 = build_cluster_hamiltonian(cluster(het), Frame.DRESSED)
    ops3 = operator_set(3)
    comm2 = ham2.matrix @ ops3.total_sx - ops3.total_sx @ ham2.matrix
    assert np.abs(comm2).max() < 1e-12


def test_hermiticity_random_geometry():
    # ClusterHamiltonian does not check Hermiticity: the builder writes each
    # flip entry and its mirror with one real value, so the matrix equals its
    # conjugate transpose exactly, at every size, frame, grouping and coupling source
    rng = np.random.default_rng(2)
    for n in range(1, 11):
        for sites in (random_cluster(rng, n, mixed=False), random_cluster(rng, n)):
            for couplings in (None, random_couplings(rng, n)):
                for frame in Frame:
                    m = hamiltonian(sites, frame, couplings).matrix
                    assert np.array_equal(m, m.conj().T), (n, frame, couplings is None)


def test_dressed_matches_drive_time_average():
    """Zeroth-order average of the driven lab Hamiltonian over one drive
    period reproduces the dressed forms exactly."""
    omega = 1.0
    n_samples = 16
    ops = operator_set(2)

    # a degenerate pair takes the intra-group forms, a subgroup-mismatched
    # pair the inter-group (Ising / dressed exchange) forms
    for sites in (pair_sites(), pair_sites(10.0, (Species.P1, Species.P1), subgroups=(0, 1))):
        h_lab = build_cluster_hamiltonian(cluster(sites), Frame.LAB_SECULAR).matrix
        h_dressed = build_cluster_hamiltonian(cluster(sites), Frame.DRESSED).matrix
        avg = np.zeros_like(h_lab)
        for k in range(n_samples):
            u = expm(-1j * TWO_PI * omega * (k / (n_samples * omega)) * ops.total_sx)
            avg += u.conj().T @ h_lab @ u
        avg /= n_samples
        assert np.abs(avg - h_dressed).max() < 1e-10


def test_dressed_reproduces_driven_dynamics():
    """Full driven lab evolution vs dressed evolution at Omega = 50 |J|."""
    sites = pair_sites()
    j = coupling(sites)
    omega = 50 * abs(j)
    ops = operator_set(2)
    h_lab = build_cluster_hamiltonian(cluster(sites), Frame.LAB_SECULAR).matrix + omega * ops.total_sx
    h_dressed = build_cluster_hamiltonian(cluster(sites), Frame.DRESSED).matrix

    x_up = np.array([1, 1]) / math.sqrt(2)
    x_dn = np.array([1, -1]) / math.sqrt(2)
    psi0 = np.kron(x_up, x_dn)

    period = 2.0 / abs(j)
    worst = 0.0
    for frac in (0.25, 0.5, 0.75, 1.0):
        t = frac * period
        psi_lab = expm(-1j * TWO_PI * h_lab * t) @ psi0
        psi_int = expm(+1j * TWO_PI * omega * t * ops.total_sx) @ psi_lab
        psi_dr = expm(-1j * TWO_PI * h_dressed * t) @ psi0
        worst = max(worst, 1.0 - abs(np.vdot(psi_int, psi_dr)))
    assert worst <= 0.02


def test_dressed_inter_exchange_period():
    """Two matched spins at coupling J swap dressed populations at t = 1/J
    and return at 2/J; the flip-flop matrix element is J/4."""
    j = 0.4
    sites = pair_sites(10.0, (Species.P1, Species.P1), subgroups=(0, 1))
    ham = hamiltonian(sites, Frame.DRESSED, {(0, 1): j})
    x_up = np.array([1, 1]) / math.sqrt(2)
    x_dn = np.array([1, -1]) / math.sqrt(2)
    psi0 = np.kron(x_up, x_dn)
    target = np.kron(x_dn, x_up)
    assert abs(np.vdot(target, ham.matrix @ psi0)) == pytest.approx(j / 4, rel=1e-12)

    evals, evecs = np.linalg.eigh(ham.matrix)
    def transfer(t):
        phase = np.exp(-1j * TWO_PI * evals * t)
        psi_t = evecs @ (phase * (evecs.conj().T @ psi0))
        return abs(np.vdot(target, psi_t)) ** 2

    assert transfer(1.0 / j) == pytest.approx(1.0, abs=1e-6)
    assert transfer(2.0 / j) == pytest.approx(0.0, abs=1e-6)
    assert transfer(0.5 / j) == pytest.approx(0.5, abs=1e-6)


def test_dressed_inter_zero_coupling_identity():
    sites = pair_sites(10.0, (Species.NV, Species.P1))
    ham = hamiltonian(sites, Frame.DRESSED, {(0, 1): 0.0})
    assert np.all(ham.matrix == 0)


def test_effective_rabi_and_tilt():
    assert effective_rabi(3.0, 4.0) == pytest.approx(5.0)
    assert tilt_projection(3.0, 4.0) == pytest.approx(0.6)
    assert tilt_projection(2.5, 0.0) == 1.0
    assert tilt_projection(2.0, 2.0) == pytest.approx(1 / math.sqrt(2))
    with pytest.raises(ValueError):
        tilt_projection(0.0, 0.0)


def test_effective_disorder():
    assert effective_disorder(1.36, 6.40) == pytest.approx(0.1445, abs=5e-5)
    assert effective_disorder(0.0, 3.0) == 0.0
    assert effective_disorder(1.0, 4.0) == pytest.approx(effective_disorder(1.0, 2.0) / 2)
    with pytest.raises(ValueError):
        effective_disorder(1.0, 0.0)


def test_cluster_hamiltonian_validation():
    with pytest.raises(ValueError, match="2\\^n_sites"):
        ClusterHamiltonian(np.zeros((2, 2), dtype=complex), 2)


def sparse_operators(n):
    """The per-site operators of ``SpinOperatorSet(n)`` as CSR matrices,
    formed the same way (Kronecker products with identities, then the
    ladder sums), so that 10 spins fit in memory."""
    from scipy import sparse

    def embed(op, site):
        left, right = sparse.identity(2**site, dtype=complex), sparse.identity(2 ** (n - site - 1), dtype=complex)
        return sparse.kron(sparse.kron(left, sparse.csr_matrix(op)), right, format="csr")

    ops = SimpleNamespace(dim=2**n)
    ops.sx, ops.sy, ops.sz = ([embed(op, i) for i in range(n)] for op in (spinops._SX, spinops._SY, spinops._SZ))
    ops.sp = [x + 1j * y for x, y in zip(ops.sx, ops.sy)]
    ops.sm = [x - 1j * y for x, y in zip(ops.sx, ops.sy)]
    ops.tp = [y + 1j * z for y, z in zip(ops.sy, ops.sz)]
    ops.tm = [y - 1j * z for y, z in zip(ops.sy, ops.sz)]
    return ops


def dense_reference(sites, frame, cmap, degenerate, ops=None):
    """Operator-product form of the pair terms of ``cmap``, in order: the
    reference the bit-pattern builder must reproduce bit for bit.  The
    per-site operators are ``SpinOperatorSet``'s unless ``ops`` gives them
    (as :func:`sparse_operators`); each pair's product is added densely."""
    ops = ops or spinops.SpinOperatorSet(len(sites))
    dense = lambda m: m.toarray() if hasattr(m, "toarray") else m
    h = np.zeros((ops.dim, ops.dim), dtype=complex)
    for i, j in cmap:
        jij = cmap[i, j]
        deg = degenerate(i, j)
        if frame == Frame.DRESSED:
            c = jij / 8.0 if deg else jij / 4.0
            h += dense(c * (ops.tp[i] @ ops.tm[j] + ops.tm[i] @ ops.tp[j]))
            if deg:
                h += dense(-(jij / 2.0) * (ops.sx[i] @ ops.sx[j]))
        else:
            if deg:
                h += dense(-(jij / 4.0) * (ops.sp[i] @ ops.sm[j] + ops.sm[i] @ ops.sp[j]))
            h += dense(jij * (ops.sz[i] @ ops.sz[j]))
    return h


def assert_bit_equal(ham, expected):
    assert ham.matrix.dtype == np.complex128
    assert np.array_equal(ham.matrix.view(np.float64), expected.view(np.float64))


def random_cluster(rng, n, mixed=True):
    return [
        site(
            rng.uniform(0, 12, 3),
            Species.NV if mixed and rng.random() < 0.3 else Species.P1,
            axis_idx=int(rng.integers(0, 4)) if mixed else 0,
            subgroup=int(rng.integers(0, 2)) if mixed else 0,
        )
        for _ in range(n)
    ]


def heterogeneous_cluster(rng, n):
    """Sites with distinct (species, axis, subgroup): every pair is heterogeneous."""
    keys = [(sp, a, g) for sp in (Species.NV, Species.P1) for a in range(4) for g in range(2)]
    return [site(rng.uniform(0, 12, 3), *keys[k]) for k in rng.permutation(len(keys))[:n]]


def random_couplings(rng, n):
    """Explicit couplings over a shuffled subset of pairs (i, j), i < j."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = rng.permutation(len(pairs))[: max(1, len(pairs) - 2)]
    return {pairs[k]: float(rng.normal(0.0, 0.3)) for k in keep}


def test_builders_bit_equal_dense_operator_products():
    rng = np.random.default_rng(42)
    for trial in range(30):
        n = 2 + trial % 6
        explicit = trial % 2 == 1
        mixed = random_cluster(rng, n)
        uniform = random_cluster(rng, n, mixed=False)
        hetero = heterogeneous_cluster(rng, n)
        couplings = random_couplings(rng, n) if explicit else None
        # the mixed cluster is classified per pair; the other two must take
        # the intra-group (all degenerate) and inter-group forms throughout
        for sites, degenerate in (
            (mixed, lambda i, j: not is_heterogeneous(mixed[i], mixed[j])),
            (uniform, lambda i, j: True),
            (hetero, lambda i, j: False),
        ):
            cmap = spinops._coupling_map(cluster(sites)) if couplings is None else couplings
            for frame in Frame:
                assert_bit_equal(
                    hamiltonian(sites, frame, couplings),
                    dense_reference(sites, frame, cmap, degenerate),
                )


def test_ten_spin_build_forms_no_operator_set():
    sites = random_cluster(np.random.default_rng(7), 10)
    before = operator_set.cache_info()
    for frame in Frame:
        ham = build_cluster_hamiltonian(cluster(sites), frame)
        assert ham.dim == 1024
    assert operator_set.cache_info() == before


def test_every_cluster_size_bit_equal_in_shuffled_order():
    # the per-size pair tables start empty and the sizes come out of order,
    # so a table built for one size cannot stand in for another
    spinops._pair_table.cache_clear()
    rng = np.random.default_rng(2024)
    for n in rng.permutation(np.arange(1, 11)).tolist():
        ops = sparse_operators(n)
        one_group = random_cluster(rng, n, mixed=False)
        multi_group = random_cluster(rng, n)
        for sites, degenerate in (
            (one_group, lambda i, j: True),
            (multi_group, lambda i, j: not is_heterogeneous(multi_group[i], multi_group[j])),
        ):
            cmap = spinops._coupling_map(cluster(sites))
            for frame in Frame:
                expected = dense_reference(sites, frame, cmap, degenerate, ops)
                if n <= 6:
                    # the sparse operators give the dense operator products' bits
                    dense = dense_reference(sites, frame, cmap, degenerate)
                    assert np.array_equal(expected.view(np.float64), dense.view(np.float64))
                assert_bit_equal(build_cluster_hamiltonian(cluster(sites), frame), expected)
