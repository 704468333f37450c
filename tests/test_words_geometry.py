import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from fractalforms.kinds import FractalKind
from fractalforms.words import as_digits, enumerate_words, pack_word
from fractalforms.geometry import (
    cached_vertex_graph,
    cell_graph,
    sg_corner_ids,
    vertex_graph,
    vertex_scale,
)
from oracles import (
    address,
    apply_map,
    base_point,
    canonical_address,
    check_word,
    id_of,
    ids_of,
    point,
    point_of,
    unpack_word,
)

SG = FractalKind.SG
SC = FractalKind.SC

sg_digits = st.lists(st.integers(0, 2), max_size=7)
sc_digits = st.lists(st.integers(0, 7), max_size=5)


def test_word_basics():
    assert as_digits("012") == (0, 1, 2)
    assert as_digits([1, 0]) == (1, 0)


def test_check_word_rejects_bad_digits():
    with pytest.raises(ValueError):
        check_word(SG, "013")
    with pytest.raises(ValueError):
        check_word(SC, (0, 8))
    assert check_word(SG, "012") == (0, 1, 2)
    assert check_word(SC, "07") == (0, 7)


@pytest.mark.parametrize("kind,n", [(SG, 0), (SG, 1), (SG, 3), (SC, 0), (SC, 1), (SC, 2)])
def test_enumerate_words_count_and_order(kind, n):
    ws = list(enumerate_words(kind, n))
    assert len(ws) == kind.n_maps ** n
    assert ws == sorted(ws)
    assert all(len(w) == n for w in ws)


@given(sg_digits)
def test_sg_pack_unpack_roundtrip(digits):
    packed = pack_word(SG, digits)
    assert unpack_word(SG, packed, len(digits)) == tuple(digits)


@given(sc_digits)
def test_sc_pack_unpack_roundtrip(digits):
    packed = pack_word(SC, digits)
    assert unpack_word(SC, packed, len(digits)) == tuple(digits)


def test_base_points_are_unit_cell_corners():
    # gasket: equilateral triangle (0,0), (1,0), (1/2, sqrt(3)/2)
    xs = [base_point(SG, i).as_floats() for i in range(3)]
    assert xs[0] == (0.0, 0.0)
    assert xs[1] == (1.0, 0.0)
    assert xs[2] == (0.5, pytest.approx(np.sqrt(3) / 2))
    # carpet: 8 boundary points of the unit square, counterclockwise
    ys = [base_point(SC, i).as_floats() for i in range(8)]
    assert ys[0] == (0.0, 0.0)
    assert ys[2] == (1.0, 0.0)
    assert ys[4] == (1.0, 1.0)
    assert ys[6] == (0.0, 1.0)
    assert ys[1] == (0.5, 0.0)
    assert ys[5] == (0.5, 1.0)


def test_apply_map_halves_and_thirds():
    p = base_point(SG, 1)  # (1,0)
    q = apply_map(SG, 0, p)
    assert q.as_floats() == (0.5, 0.0)
    r = base_point(SC, 4)  # (1,1)
    s = apply_map(SC, 0, r)
    assert s.as_floats() == (pytest.approx(1 / 3), pytest.approx(1 / 3))


@given(sg_digits.filter(lambda d: len(d) >= 1))
@settings(max_examples=50)
def test_sg_point_of_matches_composed_maps(digits):
    # word addresses f_{w[:-1]}(q_last)
    p = point_of(SG, digits)
    q = base_point(SG, digits[-1])
    for d in reversed(digits[:-1]):
        q = apply_map(SG, d, q)
    assert p.lifted(10) == q.lifted(10)
    # repeating the final digit fixes the point: q_i is the fixed point of map i
    assert point_of(SG, list(digits) + [digits[-1]]).lifted(10) == p.lifted(10)


@given(sc_digits.filter(lambda d: len(d) >= 1))
@settings(max_examples=50)
def test_sc_point_of_matches_composed_maps(digits):
    p = point_of(SC, digits)
    q = base_point(SC, digits[-1])
    for d in reversed(digits[:-1]):
        q = apply_map(SC, d, q)
    assert p.lifted(8) == q.lifted(8)
    assert point_of(SC, list(digits) + [digits[-1]]).lifted(8) == p.lifted(8)


def test_sq_dist_is_exact_euclidean():
    a = base_point(SG, 0)
    b = base_point(SG, 2)
    assert a.sq_dist(b) == 1  # unit side length
    c = base_point(SC, 0)
    d = base_point(SC, 4)
    assert c.sq_dist(d) == 2  # diagonal of the unit square


def test_cell_corner_points_level1():
    # corners of gasket cell "0": the origin and the two adjacent midpoints
    assert point_of(SG, (0, 0)).lifted(2) == (0, 0)
    assert point_of(SG, (0, 1)).lifted(2) == (2, 0)
    assert point_of(SG, (0, 2)).lifted(2) == (1, 1)


@pytest.mark.parametrize("n,expected", [(0, 3), (1, 6), (2, 15), (3, 42)])
def test_sg_vertex_count_closed_form(n, expected):
    # (3^(n+1) + 3) / 2 vertices at level n
    assert vertex_graph(SG, n).n_vertices == expected


def test_sc_vertex_count_level1():
    # 8 cells x 8 boundary points with shared corners: 40 distinct vertices
    assert vertex_graph(SC, 1).n_vertices == 40


def test_vertex_scale():
    assert vertex_scale(SG, 0) == 1
    assert vertex_scale(SG, 3) == 4
    assert vertex_scale(SC, 2) == 2


def test_sg_cell_graph_level1_and_2():
    cg = cell_graph(SG, 1)
    assert cg.n_cells == 3
    assert sorted(map(tuple, cg.edges.tolist())) == [(0, 1), (0, 2), (1, 2)]
    assert cg.second_type.tolist() == [False, False, False]
    cg2 = cell_graph(SG, 2)
    assert cg2.n_cells == 9
    assert len(cg2.edges) == 12
    types = dict(zip(map(tuple, cg2.edges.tolist()), cg2.second_type.tolist()))
    # within-cell contacts are type I, across the removed middle are type II
    assert types[(0, 1)] is False
    assert int(cg2.second_type.sum()) == 3


def test_sc_cell_graph_level1_is_ring_with_corner_contacts():
    cg = cell_graph(SC, 1)
    assert cg.n_cells == 8
    assert cg.second_type is None
    # ring of 8 cells: 8 side contacts; corner-only contacts are excluded
    assert len(cg.edges) == 8
    degree = np.zeros(8, dtype=int)
    for i, j in cg.edges:
        degree[i] += 1
        degree[j] += 1
    assert set(degree) == {2}


def test_sg_edges_count():
    # 3^(n+1) within-cell edges at level n
    for n in range(0, 4):
        vg = vertex_graph(SG, n)
        assert len(vg.edges) == 3 ** (n + 1)
        assert (vg.edges[:, 2] == 1).all()


def test_sc_edge_multiplicity():
    vg = vertex_graph(SC, 1)
    # cell-boundary edges shared by two cells carry multiplicity 2
    assert set(vg.edges[:, 2]) == {1, 2}


def test_sg_corner_ids():
    vg = vertex_graph(SG, 2)
    ids = sg_corner_ids(vg)
    pts = [(float(vg.xn[i]) / 2 ** vg.scale, float(vg.yn[i]) * np.sqrt(3) / 2 ** vg.scale) for i in ids]
    assert pts[0] == (0.0, 0.0)
    assert pts[1] == (1.0, 0.0)


def test_boundary_selectors_name_the_kind_they_expect():
    with pytest.raises(ValueError, match="expected a sg vertex graph, got sc"):
        sg_corner_ids(vertex_graph(SC, 1))


@given(st.integers(0, 14))
def test_address_id_roundtrip(i):
    vg = cached_vertex_graph(SG, 2)
    w = address(vg, i)
    p = point_of(SG, w)
    assert id_of(vg, p) == i


@given(sg_digits.filter(lambda d: len(d) >= 1))
@settings(max_examples=40)
def test_canonical_address_is_lexicographically_minimal(digits):
    # p is a vertex of the level-n graph with address digits + repeated last
    n = len(digits)
    p = point_of(SG, digits)
    addr = canonical_address(SG, p, n)
    assert len(addr) == n + 1
    assert point_of(SG, addr).lifted(n + 2) == p.lifted(n + 2)
    assert tuple(addr) <= tuple(digits) + (digits[-1],)


def test_cached_vertex_graph_identity():
    a = cached_vertex_graph(SG, 3)
    b = cached_vertex_graph(SG, 3)
    assert a is b


def test_vertex_graph_is_a_frozen_record_of_read_only_arrays():
    vg = cached_vertex_graph(SG, 3)
    assert [f.name for f in dataclasses.fields(vg)] == [
        "kind", "level", "xn", "yn", "edges", "corners"
    ]
    with pytest.raises(dataclasses.FrozenInstanceError):
        vg.xn = vg.xn.copy()
    with pytest.raises(ValueError, match="read-only"):
        vg.xn[0] = 1
    for a in (vg.yn, vg.edges, vg.corners):
        assert not a.flags.writeable
    with pytest.raises(IndexError):
        address(vg, vg.n_vertices)


def test_vertex_graph_rejects_bad_level():
    with pytest.raises(ValueError):
        vertex_graph(SG, -1)


# ---------------------------------------------------------------------------
# golden arrays: sha256 of the int64 bytes, recorded from the per-cell
# scalar builder this module's numpy builder replaced

def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


VERTEX_GRAPH_DIGESTS = {
    (SG, 0): "045221d44ec554f36ee8ab78ac74a393895db4546a261d3d8bf9489632a3b0b8",
    (SG, 1): "ca2e99bf45cf34de94d89a9d66f02d4317cf7452be28cc9436016ac2cdd2fc24",
    (SG, 2): "b75b3a34db83023c627d3eb620830a95fc3c6adf95a9dd494a82adeb1d7d3bf6",
    (SG, 3): "975c4f390aa07ff96b3f3e02ff5b78c191e5f98aa97ebf3354eff35bcc34f397",
    (SG, 4): "63e7d5e1b2bfb0fb270b65d4d4794854d370bfcaeb3cb261a7a95737aeb50bdc",
    (SG, 5): "b0321d0ec8112430209473c200bdab18eadc86bd4a530e1027c79e575ce924e6",
    (SG, 6): "11f54277c70026e6876b5beb71c73674be1bb44277b19bb029a2fd78a391cad3",
    (SG, 7): "b6a984fb74bab8cd019f79a239526d7083d30305a8c3391993e75e35a08b8ab6",
    (SG, 8): "db2e23fef9fe4cf04090f1b0b372a31248d6b6b45389b0c7200c155dea2f78ae",
    (SC, 0): "d6daad8c4b1e56e9107dfaa9fd45db018b28e291a558e2d1c00b30baa3bad58b",
    (SC, 1): "16f189506e48801d1494ad71976a5e391afffe662f3fb1ae09e83ecc3c23583b",
    (SC, 2): "f8000cabddac765f5e582ebb511eb5e84dd446f3474531c816ef741d551fbdf3",
    (SC, 3): "4dd7582456b61818c3b83862c3a67538f9a2a4b56441b495452efa454334afe5",
    (SC, 4): "bbac1c5f61cc3625202b3d89320a1e739f6990f9a9cd01bee0b7e74e212c1366",
}

CELL_GRAPH_DIGESTS = {
    (SG, 1): "22956dd0e4bb225c4c074261327a3ec4efa647d3b0c6d6136573985803dbda05",
    (SG, 2): "bb207ea80faf51039ddb82b1cd3aed9cead2af07e8945d4efa02489bdb8a12cc",
    (SG, 3): "ec0b58e4762c8231193eec0e563072880dd938aac43cf9b331bfd18567d74e75",
    (SG, 4): "30babdc99d6c540d4b4b54ece2d7e792a25552100f99ef5210875bc719826ce2",
    (SG, 5): "40c1963824f28820e8c7ba404a0533c5e86ff14e1f474c1d61c53491d20ea3ba",
    (SG, 6): "90531741dd833e6d1df5ffe0cc310185bc76dda33356560bdf624239ba72b6c7",
    (SG, 7): "236c49cc06b3462de5c29496c743b2c75bd4277d0871e28c6154370e1b010497",
    (SG, 8): "72b73568717fcf343b5c2c039ffbe6cc4e49a357297470cf9747c40761b504ab",
    (SG, 9): "4086d5968bd2264a992181c715435688f7637816a5631078f97c0fea6afd7847",
    (SG, 10): "996a7343c7241366ce106fecf00d0fb3f171d4775d2ebe5d28399b58cc90ca67",
    (SG, 11): "f5b2413fbb9a71edd66b9f8c06cc889c5400151f4285efb9c1af209ec73db82d",
    (SG, 12): "042340bd3edf287bce6382a7c8b1c76db3df6b6a271e2cbffdb3734d884b7b18",
    (SC, 1): "7a74ed419a46733e67d22e145bb8f11707c402e1b1d2f186212dee45ceced7e8",
    (SC, 2): "611a0fb3741ef8d0df4284a7bf1994b46975993186a20f9a650b6f58eeff464b",
    (SC, 3): "1c5d6902434849d655088a93f446851143e4cc1a6167b8b3c06f1492fed48e06",
    (SC, 4): "141b06db1772a5eb60392ccd19eb1b6fa7f6fce04a666bc16946f462195e43cf",
}


@pytest.mark.parametrize("kind,n", sorted(VERTEX_GRAPH_DIGESTS))
def test_vertex_graph_arrays_match_golden(kind, n):
    # the addresses, once a stored array, are derived from the corner table
    vg = vertex_graph(kind, n)
    addr = [pack_word(kind, address(vg, i)) for i in range(vg.n_vertices)]
    got = _digest(vg.xn, vg.yn, vg.edges, addr)
    assert got == VERTEX_GRAPH_DIGESTS[(kind, n)]


@pytest.mark.parametrize("kind,n", sorted(CELL_GRAPH_DIGESTS))
def test_cell_graph_arrays_match_golden(kind, n):
    cg = cell_graph(kind, n)
    arrays = (cg.edges,) if cg.second_type is None else (cg.edges, cg.second_type)
    assert _digest(*arrays) == CELL_GRAPH_DIGESTS[(kind, n)]
    assert not cg.edges.flags.writeable


def test_gasket_cell_graph_peak_memory_is_about_its_own_arrays():
    # level 11 is built from the cached level 10 straight into its output;
    # the corner arrays and global sort of the whole level peaked at 11.4x
    cell_graph.cache_clear()
    for n in range(1, 11):
        cell_graph(SG, n)
    tracemalloc.start()
    try:
        cg = cell_graph(SG, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (cg.edges.nbytes + cg.second_type.nbytes)


@pytest.mark.parametrize("kind,top", [(SG, 4), (SC, 2)])
def test_vertex_points_match_scalar_addresses(kind, top):
    # the vectorised builder against the independent map-composition path
    for n in range(top + 1):
        vg = vertex_graph(kind, n)
        for i in range(vg.n_vertices):
            assert point(vg, i) == point_of(kind, address(vg, i))


def test_ids_of_rejects_non_vertices():
    vg = vertex_graph(SC, 1)
    assert ids_of(vg, vg.xn, vg.yn).tolist() == list(range(vg.n_vertices))
    with pytest.raises(KeyError):
        ids_of(vg, [3], [3])  # centre of the removed middle square
    full = 2 * 3 ** vg.scale
    with pytest.raises(KeyError):
        ids_of(vg, [0], [full + 1])  # would alias (1, 0) in the packed key
    with pytest.raises(KeyError):
        id_of(vertex_graph(SG, 2), point_of(SG, (0, 0, 0, 1)))


def test_vertex_graph_has_no_dict_index():
    vg = vertex_graph(SG, 2)
    assert not hasattr(vg, "index")
    assert not hasattr(vg, "cells")
