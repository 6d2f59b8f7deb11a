"""Property-based tests for zero-copy snapshot mapping.

Fuzzed counterparts of ``tests/graph/test_csr.py::TestV3Snapshots``:
on randomly generated strongly connected networks,

- a v3 snapshot mapped back via :func:`map_snapshot` reproduces every
  node and edge attribute losslessly, with every CSR array a
  ``memoryview`` over the shared mapping (zero process-private
  copies) and identical shortest-path trees;
- the copying loader materialises the same graph as the mapping;
- corrupting the mapped file's directory — truncation, misaligned
  offsets, bogus typecodes, counts past EOF — always raises the typed
  :class:`~repro.exceptions.SnapshotError`, never a struct error or a
  silent partial graph;
- flipping bytes inside the CSR arrays either leaves the original
  graph or raises :class:`~repro.exceptions.SnapshotError` — never a
  view with arcs the edge arrays do not define.
"""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.dijkstra import dijkstra
from repro.exceptions import SnapshotError
from repro.graph.builder import RoadNetworkBuilder
from repro.graph.csr import (
    _DIR_ENTRY,
    SECTION_ALIGNMENT,
    csr_dijkstra,
    ensure_csr,
    load_snapshot,
    map_snapshot,
    save_snapshot,
)

common_settings = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)


@st.composite
def road_networks(draw):
    """A strongly connected random network of 5-16 nodes."""
    n = draw(st.integers(min_value=5, max_value=16))
    rng_seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(f"mmapnet:{rng_seed}")
    builder = RoadNetworkBuilder(name=f"mmap-prop-{rng_seed}")
    for node_id in range(n):
        builder.add_node(
            node_id,
            rng.uniform(-0.05, 0.05),
            rng.uniform(-0.05, 0.05),
        )
    for node_id in range(n):  # ring guarantees strong connectivity
        builder.add_edge(
            node_id,
            (node_id + 1) % n,
            length_m=rng.uniform(50.0, 500.0),
            travel_time_s=rng.uniform(1.0, 50.0),
        )
    for _ in range(draw(st.integers(min_value=0, max_value=2 * n))):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            builder.add_edge(
                u,
                v,
                length_m=rng.uniform(50.0, 500.0),
                travel_time_s=rng.uniform(1.0, 50.0),
            )
    return builder.build()


#: The eight CSR arrays every snapshot carries.
CSR_ARRAYS = tuple(
    f"csr.{direction}_{part}"
    for direction in ("fwd", "bwd")
    for part in ("off", "tgt", "eid", "wt")
)


def _csr_bytes(csr):
    return [
        bytes(memoryview(getattr(csr, f"{direction}_{part}")).cast("B"))
        for direction in ("fwd", "bwd")
        for part in ("offsets", "targets", "edge_ids", "weights")
    ]


def _assert_zero_copy(mapped):
    """Every CSR array is a memoryview over the one shared mapping.

    Runs in its own frame so the view locals die on return and never
    block ``mapped.close()``.
    """
    for name in (
        "fwd_offsets", "fwd_targets", "fwd_edge_ids", "fwd_weights",
        "bwd_offsets", "bwd_targets", "bwd_edge_ids", "bwd_weights",
    ):
        view = getattr(mapped.csr, name)
        assert isinstance(view, memoryview), name
        assert view.obj is mapped._mmap, name


def _assert_networks_equal(actual, expected):
    assert actual.num_nodes == expected.num_nodes
    assert actual.num_edges == expected.num_edges
    for node_id in range(expected.num_nodes):
        a, b = actual.node(node_id), expected.node(node_id)
        assert (a.lat, a.lon, a.osm_id) == (b.lat, b.lon, b.osm_id)
    for edge_id in range(expected.num_edges):
        a, b = actual.edge(edge_id), expected.edge(edge_id)
        assert a.u == b.u and a.v == b.v
        assert a.length_m == b.length_m
        assert a.travel_time_s == b.travel_time_s


class TestV3RoundTrip:
    @common_settings
    @given(road_networks(), st.integers(min_value=0, max_value=10 ** 6))
    def test_mapped_network_is_lossless_and_zero_copy(
        self, tmp_path_factory, network, raw
    ):
        path = tmp_path_factory.mktemp("mmap-prop") / "net.rprn"
        save_snapshot(network, path)
        mapped = map_snapshot(path)
        _assert_networks_equal(mapped.network, network)
        _assert_zero_copy(mapped)
        # Same answers: flat kernel over the mapping equals the pure
        # kernel over the original in-memory network.
        root = raw % network.num_nodes
        pure = dijkstra(network, root)
        flat = csr_dijkstra(mapped.network, mapped.csr, root)
        assert list(flat.dist) == list(pure.dist)
        assert list(flat.parent_edge) == list(pure.parent_edge)
        # With the search result (which may cache array views) and the
        # handle's own references dropped, the mapping closes cleanly.
        del flat
        mapped.close()

    @common_settings
    @given(road_networks())
    def test_v2_snapshots_are_rejected(self, tmp_path_factory, network):
        """The retired streamed layout: same header, version 2."""
        path = tmp_path_factory.mktemp("mmap-prop-v2") / "net.rprn"
        save_snapshot(network, path)
        payload = bytearray(path.read_bytes())
        struct.pack_into("<H", payload, 4, 2)
        path.write_bytes(bytes(payload))
        for reader in (load_snapshot, map_snapshot):
            with pytest.raises(SnapshotError, match="repro snapshot build"):
                reader(path)

    @common_settings
    @given(road_networks())
    def test_v3_copying_loader_agrees_with_mapping(
        self, tmp_path_factory, network
    ):
        """``load_snapshot`` (copying) and ``map_snapshot`` (zero-copy)
        materialise the same graph from the same v3 file."""
        path = tmp_path_factory.mktemp("mmap-prop-eq") / "net.rprn"
        save_snapshot(network, path)
        mapped = map_snapshot(path)
        try:
            _assert_networks_equal(load_snapshot(path), mapped.network)
        finally:
            mapped.close()


class TestCorruption:
    """Every corruption is a typed SnapshotError, never junk."""

    @pytest.fixture()
    def snapshot_bytes(self, tmp_path):
        rng = random.Random("mmap-corrupt")
        builder = RoadNetworkBuilder(name="corrupt-target")
        for node_id in range(8):
            builder.add_node(
                node_id, rng.uniform(-1, 1), rng.uniform(-1, 1)
            )
        for node_id in range(8):
            builder.add_edge(
                node_id, (node_id + 1) % 8,
                length_m=100.0, travel_time_s=10.0,
            )
        for _ in range(12):  # chords: nodes with several arcs each way
            u, v = rng.randrange(8), rng.randrange(8)
            if u != v:
                builder.add_edge(
                    u, v, length_m=150.0, travel_time_s=rng.uniform(5, 20),
                )
        path = tmp_path / "net.rprn"
        save_snapshot(builder.build(), path)
        return bytearray(path.read_bytes())

    @common_settings
    @given(st.data())
    def test_truncation_raises_snapshot_error(self, snapshot_bytes, data):
        keep = data.draw(
            st.integers(min_value=1, max_value=len(snapshot_bytes) - 1)
        )
        with pytest.raises(SnapshotError):
            map_snapshot(bytes(snapshot_bytes[:keep]))

    @common_settings
    @given(st.data())
    def test_flipped_directory_bytes_never_load_silently(
        self, snapshot_bytes, data
    ):
        """Fuzz single-byte flips over the header + directory region:
        the file either still parses to the same graph (the flip hit
        dead padding) or raises a typed SnapshotError."""
        baseline = map_snapshot(bytes(snapshot_bytes))
        try:
            expected_nodes = baseline.num_nodes
            expected_edges = baseline.num_edges
        finally:
            baseline.close()
        # Directory + header live in the first couple of alignment
        # blocks; payloads start at the first aligned section offset.
        probe_span = min(len(snapshot_bytes), 4 * SECTION_ALIGNMENT)
        offset = data.draw(
            st.integers(min_value=0, max_value=probe_span - 1)
        )
        flip = data.draw(st.integers(min_value=1, max_value=255))
        corrupted = bytearray(snapshot_bytes)
        corrupted[offset] ^= flip
        try:
            mapped = map_snapshot(bytes(corrupted))
        except SnapshotError:
            return  # typed rejection is the expected outcome
        try:
            assert mapped.num_nodes == expected_nodes
            assert mapped.num_edges == expected_edges
        finally:
            mapped.close()

    @common_settings
    @given(st.sampled_from(CSR_ARRAYS), st.data())
    def test_flipped_csr_bytes_load_the_original_or_raise(
        self, snapshot_bytes, name, data
    ):
        """Fuzz single-byte flips inside one CSR array's payload: both
        readers either return the original view or raise a typed
        SnapshotError."""
        expected = _csr_bytes(ensure_csr(load_snapshot(bytes(snapshot_bytes))))
        at = snapshot_bytes.find(name.encode("ascii").ljust(16, b"\x00"))
        _name, _code, _count, offset, nbytes = _DIR_ENTRY.unpack_from(
            snapshot_bytes, at
        )
        index = data.draw(st.integers(min_value=0, max_value=nbytes - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        corrupted = bytearray(snapshot_bytes)
        corrupted[offset + index] ^= flip
        for reader in (load_snapshot, map_snapshot):
            try:
                loaded = reader(bytes(corrupted))
            except SnapshotError:
                continue
            network = getattr(loaded, "network", loaded)
            assert _csr_bytes(ensure_csr(network)) == expected

    def test_misaligned_offset_is_typed(self, snapshot_bytes):
        # Bump the first directory entry's offset off the 64-byte
        # grid: name[16] typecode[1] pad[7] count[8] then offset[8].
        dir_struct = struct.Struct("<16sc7xQQQ")
        for pos in range(0, len(snapshot_bytes) - dir_struct.size):
            name, typecode, count, offset, nbytes = dir_struct.unpack_from(
                snapshot_bytes, pos
            )
            if name.rstrip(b"\x00") == b"node.lat":
                struct.pack_into(
                    "<Q", snapshot_bytes, pos + 32, offset + 1
                )
                break
        else:
            pytest.fail("node.lat directory entry not found")
        with pytest.raises(SnapshotError, match="misaligned"):
            map_snapshot(bytes(snapshot_bytes))

    def test_bad_magic_is_typed(self, snapshot_bytes):
        snapshot_bytes[0:4] = b"NOPE"
        with pytest.raises(SnapshotError):
            map_snapshot(bytes(snapshot_bytes))

    def test_empty_buffer_is_typed(self):
        with pytest.raises(SnapshotError):
            map_snapshot(b"")
