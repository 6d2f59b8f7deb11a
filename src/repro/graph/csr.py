"""Compressed-sparse-row view of :class:`RoadNetwork` + binary snapshots.

Every planner ultimately bottlenecks on Dijkstra expansions over the
network's adjacency.  :class:`CsrGraph` flattens that adjacency into
``array``-module offset/target/weight arrays — forward and backward —
so the hot loop indexes contiguous C buffers instead of chasing
``Edge`` objects.  :func:`csr_dijkstra` is the kernel over that view:
relaxation-for-relaxation identical to the pure reference
:func:`repro.algorithms.dijkstra.dijkstra` (same adjacency order, same
strict comparisons, same heap discipline), so trees — distances *and*
parent edges — are byte-identical between the two kernels.  The
differential tier (``tests/core/test_csr_differential.py``) and the
fuzz tier (``tests/test_properties_csr.py``) pin that equivalence.

Every search in the library runs on this view, and :func:`ensure_csr`
is the one way to reach it: it builds the view on first call (under a
lock, so concurrent serving threads share one build), caches it on the
network, and — with a customized live-traffic epoch pinned — returns
that epoch's re-priced view instead.  The ALT landmark table and the
contraction hierarchy ride on the view (``csr.landmarks`` /
``csr.hierarchy``).

Snapshots
---------
:func:`save_snapshot`/:func:`load_snapshot` serialise a network to a
compact little-endian binary format (magic ``RPRN``, version 3, the
only version this build reads or writes).  After the header, the
network name and a shared string table for the highway/name strings,
the file carries an **array directory** — fixed-width entries naming
each array (``edge.time``, ``csr.fwd_tgt``, ``alt.from``, ``ch.wt``,
...) with its typecode, element count, absolute byte offset and byte
length — and every array payload sits at a :data:`SECTION_ALIGNMENT`
-aligned offset.  That alignment is what lets :func:`map_snapshot`
expose each array as a ``memoryview`` *cast directly over a read-only*
``mmap`` of the file: no bytes are copied, and every worker process
mapping the same snapshot shares one set of physical pages (the
kernel's page cache).  The CSR arrays always travel in the file, and
an attached ALT landmark table or contraction hierarchy (``repro
snapshot build --with-ch``) rides along, so :meth:`CsrGraph.from_mmap`
reassembles the whole accelerated view without copying any array.
Readers ignore directory names they do not know, so the array list is
forward-extensible.  :func:`load_snapshot` reads the same files on the
*copy path*, materialising ``array`` objects (the only path on
big-endian hosts).

Malformed files — bad magic, another format version (older v1/v2
files included: rebuild them with ``repro snapshot build``), truncated,
misaligned or otherwise corrupt directory entries, and CSR arrays that
are not exactly the view the edge arrays define — raise
:class:`~repro.exceptions.SnapshotError`, never a crash or silent
garbage.
"""

from __future__ import annotations

import heapq
import itertools
import math
import mmap
import struct
import sys
import threading
from array import array
from pathlib import Path as FilePath
from typing import BinaryIO, Dict, List, Optional, Sequence, Union

from repro.algorithms.sp_tree import ShortestPathTree
from repro.cancellation import DEADLINE_CHECK_MASK, active_deadline
from repro.exceptions import ConfigurationError, GraphError, SnapshotError
from repro.graph.network import Edge, Node, RoadNetwork, active_epoch
from repro.observability.search import active_search_stats

#: Snapshot file magic ("RePro road Network").
SNAPSHOT_MAGIC = b"RPRN"

#: Snapshot format version; bump on layout changes.
SNAPSHOT_VERSION = 3

#: Versions this build can read.
SUPPORTED_SNAPSHOT_VERSIONS = (SNAPSHOT_VERSION,)

#: Byte alignment of every array payload in a snapshot.  A
#: cache-line multiple keeps ``memoryview.cast`` legal for 8-byte
#: elements and page-friendly for the mmap fast path.
SECTION_ALIGNMENT = 64

#: Upper bound on directory entries a reader will accept; a corrupt
#: count field fails fast instead of looping over garbage.
_MAX_DIRECTORY_ENTRIES = 256

_HEADER = struct.Struct("<4sHHQQ")  # magic, version, reserved, nodes, edges
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

#: Array-directory entry: 16-byte NUL-padded ASCII name,
#: 1-byte typecode (``q``/``d``), 7 pad bytes, then element count,
#: absolute byte offset and byte length as little-endian u64s.
_DIR_ENTRY = struct.Struct("<16sc7xQQQ")

PathLike = Union[str, FilePath]


class CsrGraph:
    """Flat forward/backward adjacency of one :class:`RoadNetwork`.

    For node ``u`` the outgoing arcs are positions
    ``fwd_offsets[u] : fwd_offsets[u + 1]`` of ``fwd_targets`` (head
    node), ``fwd_edge_ids`` (dense edge id, the index into any weight
    vector) and ``fwd_weights`` (the default travel time, pre-gathered
    so the common no-custom-weights search never indirects through the
    edge id).  The ``bwd_*`` arrays mirror that over incoming arcs,
    with ``bwd_targets`` holding tail nodes.  Arc order within a node
    equals the network's adjacency-list order, which is what makes the
    CSR kernel tie-for-tie identical to the pure kernel.

    ``fwd_arcs``/``bwd_arcs`` are the same arcs regrouped per node as
    ``(head, edge_id, weight)`` tuples.  CPython boxes a fresh object on
    every ``array`` subscript, so the kernels iterate these tuples
    directly (one unpack per arc, no indexing at all); the flat arrays
    remain the compact canonical form.

    ``landmarks`` optionally carries the network's
    :class:`~repro.core.alt.LandmarkTable` once
    :func:`~repro.core.alt.ensure_landmarks` has built one, and
    ``hierarchy`` its :class:`~repro.core.ch.CchBackend` once
    :func:`~repro.core.ch.ensure_hierarchy` has — the two accelerator
    structures the per-query backend dispatch
    (:mod:`repro.core.backend`) selects between.
    """

    __slots__ = (
        "num_nodes",
        "num_edges",
        "fwd_offsets",
        "fwd_targets",
        "fwd_edge_ids",
        "fwd_weights",
        "bwd_offsets",
        "bwd_targets",
        "bwd_edge_ids",
        "bwd_weights",
        "fwd_arcs",
        "bwd_arcs",
        "landmarks",
        "hierarchy",
    )

    def __init__(
        self,
        num_nodes: int,
        num_edges: int,
        fwd_offsets: array,
        fwd_targets: array,
        fwd_edge_ids: array,
        fwd_weights: array,
        bwd_offsets: array,
        bwd_targets: array,
        bwd_edge_ids: array,
        bwd_weights: array,
    ) -> None:
        self.num_nodes = num_nodes
        self.num_edges = num_edges
        self.fwd_offsets = fwd_offsets
        self.fwd_targets = fwd_targets
        self.fwd_edge_ids = fwd_edge_ids
        self.fwd_weights = fwd_weights
        self.bwd_offsets = bwd_offsets
        self.bwd_targets = bwd_targets
        self.bwd_edge_ids = bwd_edge_ids
        self.bwd_weights = bwd_weights
        self.fwd_arcs = _group_arcs(
            num_nodes, fwd_offsets, fwd_targets, fwd_edge_ids, fwd_weights
        )
        self.bwd_arcs = _group_arcs(
            num_nodes, bwd_offsets, bwd_targets, bwd_edge_ids, bwd_weights
        )
        self.landmarks = None
        self.hierarchy = None

    @classmethod
    def from_network(cls, network: RoadNetwork) -> "CsrGraph":
        """Flatten the network's adjacency, preserving arc order.

        The base view carries the network's own travel times, even if
        a live-traffic epoch happens to be pinned while it builds.
        """
        n = network.num_nodes
        tails = [edge.u for edge in network._edges]
        heads = [edge.v for edge in network._edges]
        weights = network._default_weights
        return cls(
            n,
            network.num_edges,
            *_flat_arcs(n, tails, heads, weights),
            *_flat_arcs(n, heads, tails, weights),
        )

    @classmethod
    def from_mmap(
        cls,
        num_nodes: int,
        num_edges: int,
        fwd_offsets: Sequence[int],
        fwd_targets: Sequence[int],
        fwd_edge_ids: Sequence[int],
        fwd_weights: Sequence[float],
        bwd_offsets: Sequence[int],
        bwd_targets: Sequence[int],
        bwd_edge_ids: Sequence[int],
        bwd_weights: Sequence[float],
    ) -> "CsrGraph":
        """Assemble a view over buffer-backed arrays without copying.

        The eight flat arrays may be ``memoryview`` casts over an
        ``mmap`` (the zero-copy path :func:`map_snapshot` takes) or any
        other int64/float64 sequences; they are stored as-is, never
        copied, so N worker processes mapping the same snapshot file
        share one set of physical pages.  Only the derived per-node
        ``fwd_arcs``/``bwd_arcs`` tuple groups are materialised
        per-process (they are Python objects and cannot live in a
        file).  The kernels index the flat arrays and the groups
        identically either way — behaviour is byte-for-byte that of a
        :meth:`from_network` build.
        """
        return cls(
            num_nodes,
            num_edges,
            fwd_offsets,
            fwd_targets,
            fwd_edge_ids,
            fwd_weights,
            bwd_offsets,
            bwd_targets,
            bwd_edge_ids,
            bwd_weights,
        )

    def __repr__(self) -> str:
        return (
            f"CsrGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"landmarks={'yes' if self.landmarks is not None else 'no'}, "
            f"hierarchy={'yes' if self.hierarchy is not None else 'no'})"
        )


def _flat_arcs(
    num_nodes: int,
    keys: Sequence[int],
    ends: Sequence[int],
    weights: Sequence[float],
) -> tuple:
    """One direction's flat (offsets, targets, edge ids, weights) arrays.

    Arcs are grouped by ``keys[edge_id]`` — edge tails for the forward
    view, heads for the backward one — with edge ids ascending within
    each node, which is exactly :class:`RoadNetwork`'s adjacency-list
    order; ``ends`` gives each arc's other endpoint.
    """
    order = sorted(range(len(keys)), key=keys.__getitem__)
    degree = [0] * (num_nodes + 1)
    for node_id in keys:
        degree[node_id + 1] += 1
    return (
        array("q", itertools.accumulate(degree)),
        array("q", [ends[edge_id] for edge_id in order]),
        array("q", order),
        array("d", [weights[edge_id] for edge_id in order]),
    )


def _group_arcs(
    num_nodes: int,
    offsets: array,
    targets: array,
    edge_ids: array,
    arc_weights: array,
) -> List[tuple]:
    """Regroup flat CSR arrays into per-node (head, edge_id, weight) tuples."""
    arcs: List[tuple] = []
    for node_id in range(num_nodes):
        lo, hi = offsets[node_id], offsets[node_id + 1]
        arcs.append(
            tuple(zip(targets[lo:hi], edge_ids[lo:hi], arc_weights[lo:hi]))
        )
    return arcs


# -- the one accessor ------------------------------------------------------

#: Serialises first builds, so concurrent serving threads reaching a
#: network's view at the same moment share one build.
_BUILD_LOCK = threading.Lock()


def ensure_csr(network: RoadNetwork) -> CsrGraph:
    """The network's CSR view, building and caching it on first call.

    The only way to reach a network's view.  When a customized
    live-traffic epoch of this network is pinned on the context, its
    copy-on-write view (re-priced weights plus its own landmark table
    and hierarchy) is returned instead; the base epoch carries
    ``csr=None`` and shares the network's own view.
    """
    epoch = active_epoch()
    if epoch is not None and epoch.network is network:
        if epoch.csr is not None:
            return epoch.csr
    csr = network._csr
    if csr is None:
        with _BUILD_LOCK:
            csr = network._csr
            if csr is None:
                csr = CsrGraph.from_network(network)
                network._csr = csr
    return csr


# -- the kernel -------------------------------------------------------------


def csr_dijkstra(
    network: RoadNetwork,
    csr: CsrGraph,
    root: int,
    weights: Optional[Sequence[float]] = None,
    forward: bool = True,
    target: Optional[int] = None,
    max_dist: float = math.inf,
) -> ShortestPathTree:
    """Dijkstra over the CSR arrays; drop-in for the pure kernel.

    Semantics — argument validation, early target exit, ``max_dist``
    bounding, negative-weight detection, deadline checks, SearchStats
    accounting and the blanking of unsettled tentative distances — are
    exactly those of :func:`repro.algorithms.dijkstra.dijkstra`, and
    the returned tree's ``dist``/``parent_edge`` entries are identical
    value-for-value because arcs relax in the same order under the same
    strict comparisons.
    """
    network.node(root)  # raises NodeNotFoundError for bad roots
    if weights is not None and len(weights) < csr.num_edges:
        raise ConfigurationError(
            f"weight vector has {len(weights)} entries for "
            f"{csr.num_edges} edges"
        )
    n = csr.num_nodes
    dist: List[float] = [math.inf] * n
    parent_edge: List[int] = [-1] * n
    settled: List[bool] = [False] * n
    dist[root] = 0.0
    heap: List[tuple[float, int]] = [(0.0, root)]
    arcs = csr.fwd_arcs if forward else csr.bwd_arcs
    expanded = 0
    relaxed = 0
    deadline = active_deadline()

    while heap:
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        expanded += 1
        if deadline is not None and not (expanded & DEADLINE_CHECK_MASK):
            deadline.check()  # raises PlanningTimeout past the deadline
        if u == target:
            break
        if d > max_dist:
            dist[u] = math.inf
            parent_edge[u] = -1
            break
        for v, edge_id, weight in arcs[u]:
            if settled[v]:
                continue
            relaxed += 1
            if weights is not None:
                weight = weights[edge_id]
                if weight < 0:
                    raise ConfigurationError(
                        f"negative weight {weight} on edge {edge_id}"
                    )
            nd = d + weight
            if nd < dist[v]:
                dist[v] = nd
                parent_edge[v] = edge_id
                heapq.heappush(heap, (nd, v))

    stats = active_search_stats()
    if stats is not None:
        stats.nodes_expanded += expanded
        stats.edges_relaxed += relaxed

    if target is not None or max_dist != math.inf:
        for v in range(n):
            if not settled[v]:
                dist[v] = math.inf
                parent_edge[v] = -1
    return ShortestPathTree(
        network=network,
        root=root,
        forward=forward,
        dist=dist,
        parent_edge=parent_edge,
    )


# -- snapshots --------------------------------------------------------------


def _typecode(arr) -> str:
    """Array-module typecode of an ``array`` or a cast ``memoryview``."""
    code = getattr(arr, "typecode", None)
    if code is None:
        code = arr.format  # memoryview
    return code


def _to_le(arr) -> bytes:
    """Raw little-endian bytes of an array or memoryview (byteswapping
    if needed)."""
    if sys.byteorder == "big":  # pragma: no cover - no BE CI hosts
        arr = array(_typecode(arr), arr)
        arr.byteswap()
    return arr.tobytes()


def _read_exact(handle: BinaryIO, count: int, what: str) -> bytes:
    data = handle.read(count)
    if len(data) != count:
        raise SnapshotError(
            f"truncated snapshot: expected {count} bytes for {what}, "
            f"got {len(data)}"
        )
    return data


def _write_string(handle: BinaryIO, text: str) -> None:
    data = text.encode("utf-8")
    handle.write(_U32.pack(len(data)))
    handle.write(data)


def _read_string(handle: BinaryIO, what: str) -> str:
    (length,) = _U32.unpack(_read_exact(handle, _U32.size, f"{what} length"))
    try:
        return _read_exact(handle, length, what).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotError(f"snapshot {what} is not valid UTF-8") from exc


def save_snapshot(
    network: RoadNetwork, path: Union[PathLike, BinaryIO]
) -> None:
    """Write the network to the binary snapshot format.

    ``path`` may be a filesystem path or a writable binary file object
    (the fuzz tier round-trips through ``io.BytesIO``).  The CSR view
    is built if absent and its arrays persisted at
    :data:`SECTION_ALIGNMENT`-aligned offsets, along with an attached
    ALT landmark table and/or contraction hierarchy, so
    :func:`map_snapshot` can later expose everything as zero-copy
    memoryviews.
    """
    if hasattr(path, "write"):
        _write_snapshot(network, path)
        return
    with open(path, "wb") as handle:
        _write_snapshot(network, handle)


def _collect_core_arrays(network: RoadNetwork):
    """Node/edge payload arrays + shared string table, in wire order."""
    n = network.num_nodes
    m = network.num_edges
    lats = array("d", [0.0] * n)
    lons = array("d", [0.0] * n)
    osm_ids = array("q", [0] * n)
    for node in network.nodes():
        lats[node.id] = node.lat
        lons[node.id] = node.lon
        osm_ids[node.id] = node.osm_id

    tails = array("q", [0] * m)
    heads = array("q", [0] * m)
    lengths = array("d", [0.0] * m)
    times = array("d", [0.0] * m)
    maxspeeds = array("d", [0.0] * m)
    lanes = array("q", [0] * m)
    way_ids = array("q", [0] * m)
    highway_refs = array("q", [0] * m)
    name_refs = array("q", [0] * m)
    strings: List[str] = []
    interned: dict[str, int] = {}

    def _intern(text: str) -> int:
        index = interned.get(text)
        if index is None:
            index = len(strings)
            interned[text] = index
            strings.append(text)
        return index

    for edge in network.edges():
        tails[edge.id] = edge.u
        heads[edge.id] = edge.v
        lengths[edge.id] = edge.length_m
        times[edge.id] = edge.travel_time_s
        maxspeeds[edge.id] = edge.maxspeed_kmh
        lanes[edge.id] = edge.lanes
        way_ids[edge.id] = edge.way_id
        highway_refs[edge.id] = _intern(edge.highway)
        name_refs[edge.id] = _intern(edge.name)

    core = [
        ("node.lat", lats),
        ("node.lon", lons),
        ("node.osm", osm_ids),
        ("edge.tail", tails),
        ("edge.head", heads),
        ("edge.len", lengths),
        ("edge.time", times),
        ("edge.speed", maxspeeds),
        ("edge.lanes", lanes),
        ("edge.way", way_ids),
        ("edge.hwy", highway_refs),
        ("edge.name", name_refs),
    ]
    return strings, core


def _write_snapshot(network: RoadNetwork, handle: BinaryIO) -> None:
    """Write the mmap-able array-directory layout.

    Every array payload lands at a :data:`SECTION_ALIGNMENT`-aligned
    absolute offset; the directory (written after the string table,
    back-patched once offsets are known) records name, typecode,
    element count, offset and byte length per array.  The CSR view is
    always persisted — built here if the network has none — and an
    attached landmark table / contraction hierarchy rides along.
    """
    n = network.num_nodes
    m = network.num_edges
    strings, arrays = _collect_core_arrays(network)

    csr = ensure_csr(network)
    arrays = list(arrays)
    arrays += [
        ("csr.fwd_off", csr.fwd_offsets),
        ("csr.fwd_tgt", csr.fwd_targets),
        ("csr.fwd_eid", csr.fwd_edge_ids),
        ("csr.fwd_wt", csr.fwd_weights),
        ("csr.bwd_off", csr.bwd_offsets),
        ("csr.bwd_tgt", csr.bwd_targets),
        ("csr.bwd_eid", csr.bwd_edge_ids),
        ("csr.bwd_wt", csr.bwd_weights),
    ]
    table = csr.landmarks
    if table is not None:
        flat_from = array("d")
        flat_to = array("d")
        for row in table.dist_from:
            flat_from.extend(row)
        for row in table.dist_to:
            flat_to.extend(row)
        arrays += [
            ("alt.nodes", array("q", table.landmarks)),
            ("alt.from", flat_from),
            ("alt.to", flat_to),
            ("alt.meta", array("q", [table.seed])),
            ("alt.scale", array("d", [table.scale])),
        ]
    hierarchy = csr.hierarchy
    if hierarchy is not None:
        arrays += [
            ("ch.rank", hierarchy.rank),
            ("ch.tail", hierarchy.arc_tails),
            ("ch.head", hierarchy.arc_heads),
            ("ch.eid", hierarchy.arc_edge_ids),
            ("ch.cup", hierarchy.arc_child_up),
            ("ch.cdn", hierarchy.arc_child_down),
            ("ch.wt", hierarchy.arc_weights),
        ]

    write_v3_arrays(
        handle,
        name=network.name,
        num_nodes=n,
        num_edges=m,
        strings=strings,
        arrays=arrays,
    )


def write_v3_arrays(
    handle: BinaryIO,
    *,
    name: str,
    num_nodes: int,
    num_edges: int,
    strings: Sequence[str],
    arrays: Sequence[tuple],
) -> None:
    """Write a snapshot from already-collected arrays.

    ``arrays`` is an ordered ``(name, array)`` sequence — the exact
    bytes any two writers produce for the same inputs are identical,
    which is what lets the streaming CSR assembler
    (:mod:`repro.graph.assemble`) emit snapshots byte-for-byte equal to
    :func:`save_snapshot` on the materialised network without ever
    holding that network in memory.
    """
    handle.write(_HEADER.pack(SNAPSHOT_MAGIC, 3, 0, num_nodes, num_edges))
    _write_string(handle, name)
    handle.write(_U32.pack(len(strings)))
    for text in strings:
        _write_string(handle, text)
    handle.write(_U32.pack(len(arrays)))
    directory_pos = handle.tell()
    handle.write(b"\x00" * (_DIR_ENTRY.size * len(arrays)))

    entries = []
    for arr_name, arr in arrays:
        padding = (-handle.tell()) % SECTION_ALIGNMENT
        if padding:
            handle.write(b"\x00" * padding)
        offset = handle.tell()
        payload = _to_le(arr)
        handle.write(payload)
        entries.append(
            (arr_name.encode("ascii"), _typecode(arr).encode("ascii"),
             len(arr), offset, len(payload))
        )

    end = handle.tell()
    handle.seek(directory_pos)
    for arr_name, typecode, count, offset, nbytes in entries:
        handle.write(
            _DIR_ENTRY.pack(arr_name, typecode, count, offset, nbytes)
        )
    handle.seek(end)


def csr_fingerprint(csr: CsrGraph) -> str:
    """Hex digest pinning a CSR view's full structure.

    Hashes the node/edge counts and the little-endian bytes of all
    eight flat arrays.  Two views fingerprint equal iff every arc —
    order, endpoints, edge ids and weights — is identical, so the
    streaming-equivalence tier can compare a streamed build against an
    in-memory one without materialising either as objects.
    """
    return csr_array_fingerprint(
        csr.num_nodes,
        csr.num_edges,
        (
            csr.fwd_offsets,
            csr.fwd_targets,
            csr.fwd_edge_ids,
            csr.fwd_weights,
            csr.bwd_offsets,
            csr.bwd_targets,
            csr.bwd_edge_ids,
            csr.bwd_weights,
        ),
    )


def csr_array_fingerprint(num_nodes, num_edges, arrays) -> str:
    """:func:`csr_fingerprint` over bare flat arrays.

    ``arrays`` is the eight CSR arrays in wire order (fwd then bwd,
    offsets/targets/edge ids/weights each).  The streaming assembler
    fingerprints its output through this without ever building a
    :class:`CsrGraph` (whose per-node tuple groups would cost hundreds
    of megabytes at metro scale).
    """
    import hashlib

    digest = hashlib.sha256()
    digest.update(_U64.pack(num_nodes))
    digest.update(_U64.pack(num_edges))
    for arr in arrays:
        digest.update(_to_le(arr))
    return digest.hexdigest()


def _read_header(handle: BinaryIO) -> tuple[int, int, int]:
    """Validate magic + version; return (version, num_nodes, num_edges)."""
    raw = _read_exact(handle, _HEADER.size, "header")
    magic, version, _reserved, n, m = _HEADER.unpack(raw)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotError(
            f"not a repro network snapshot (magic {magic!r}, "
            f"expected {SNAPSHOT_MAGIC!r})"
        )
    if version not in SUPPORTED_SNAPSHOT_VERSIONS:
        raise SnapshotError(
            f"unsupported snapshot version {version} (this build reads "
            f"version {SNAPSHOT_VERSION} only); rebuild the snapshot with "
            f"`repro snapshot build`"
        )
    return version, n, m


def load_snapshot(
    path: Union[PathLike, BinaryIO, bytes, bytearray, memoryview]
) -> RoadNetwork:
    """Load a network written by :func:`save_snapshot` (copy path).

    ``path`` may be a filesystem path, a readable binary file object
    (``mmap.mmap`` objects qualify — they expose ``read``), or an
    already-mapped buffer (``bytes``/``bytearray``/``memoryview``);
    buffers are parsed in place, so callers holding a mapped region
    never pay a second file read.  Arrays are always *materialised*
    into per-process ``array`` objects here — use :func:`map_snapshot`
    for the zero-copy shared-page path.  The returned network carries
    its CSR view plus any persisted landmark table and hierarchy.

    Raises :class:`~repro.exceptions.SnapshotError` for bad magic,
    other format versions, truncated and corrupt files.
    """
    if isinstance(path, (bytes, bytearray, memoryview)):
        data = path
    elif hasattr(path, "read"):
        data = path.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    buf = memoryview(data)
    if buf.format != "B":
        buf = buf.cast("B")
    network, _csr, _directory = _parse(buf, copy=True)
    return network


class _BufReader:
    """Minimal sequential file-like reader over a memoryview.

    Lets the header/string/directory parsing helpers (written against
    ``handle.read``) run unchanged over an mmap'd buffer; only the
    small regions actually read are copied out as ``bytes``.
    """

    __slots__ = ("buf", "pos")

    def __init__(self, buf: memoryview) -> None:
        self.buf = buf
        self.pos = 0

    def read(self, count: int) -> bytes:
        data = bytes(self.buf[self.pos : self.pos + count])
        self.pos += len(data)
        return data


def _materialise_network(
    name, strings, n, m,
    lats, lons, osm_ids,
    tails, heads, lengths, times, maxspeeds, lanes, way_ids,
    highway_refs, name_refs,
) -> RoadNetwork:
    """Build the Node/Edge object graph from payload arrays.

    Shared by both snapshot paths and the streaming assembler; a
    corrupt string reference or endpoint surfaces as
    :class:`SnapshotError`.
    """
    try:
        nodes = [
            Node(id=i, lat=lats[i], lon=lons[i], osm_id=osm_ids[i])
            for i in range(n)
        ]
        edges = [
            Edge(
                id=i,
                u=tails[i],
                v=heads[i],
                length_m=lengths[i],
                travel_time_s=times[i],
                highway=strings[highway_refs[i]],
                maxspeed_kmh=maxspeeds[i],
                lanes=lanes[i],
                name=strings[name_refs[i]],
                way_id=way_ids[i],
            )
            for i in range(m)
        ]
        return RoadNetwork(nodes, edges, name=name)
    except (IndexError, ValueError, GraphError) as exc:
        # GraphError: a flipped directory offset can point the endpoint
        # arrays at other payloads, giving self-loops or unknown nodes.
        raise SnapshotError(f"inconsistent snapshot payload: {exc}") from exc


def _read_directory(reader, file_bytes: int) -> Dict[str, tuple]:
    """Parse + validate the array directory from a sequential reader.

    Returns ``{name: (typecode, count, offset, nbytes)}``.  Every
    corruption mode — implausible counts, non-ASCII names, unknown
    typecodes, misaligned offsets, payloads past EOF, element counts
    that do not fill the byte length, duplicate names — raises
    :class:`SnapshotError` here, before any payload is touched.
    """
    (array_count,) = _U32.unpack(
        _read_exact(reader, _U32.size, "array directory size")
    )
    if array_count > _MAX_DIRECTORY_ENTRIES:
        raise SnapshotError(
            f"corrupt snapshot: array directory declares {array_count} "
            f"entries (limit {_MAX_DIRECTORY_ENTRIES})"
        )
    directory: Dict[str, tuple] = {}
    for index in range(array_count):
        raw = _read_exact(
            reader, _DIR_ENTRY.size, f"array directory entry {index}"
        )
        name_bytes, typecode_byte, count, offset, nbytes = _DIR_ENTRY.unpack(raw)
        try:
            arr_name = name_bytes.rstrip(b"\x00").decode("ascii")
        except UnicodeDecodeError as exc:
            raise SnapshotError(
                f"corrupt snapshot: array directory entry {index} has a "
                f"non-ASCII name"
            ) from exc
        if not arr_name:
            raise SnapshotError(
                f"corrupt snapshot: array directory entry {index} has an "
                f"empty name"
            )
        typecode = typecode_byte.decode("ascii", "replace")
        if typecode not in ("q", "d"):
            raise SnapshotError(
                f"corrupt snapshot: array {arr_name!r} has unknown "
                f"typecode {typecode!r}"
            )
        if offset % SECTION_ALIGNMENT:
            raise SnapshotError(
                f"corrupt snapshot: array {arr_name!r} is misaligned "
                f"(offset {offset} is not a multiple of "
                f"{SECTION_ALIGNMENT})"
            )
        if offset + nbytes > file_bytes:
            raise SnapshotError(
                f"truncated snapshot: array {arr_name!r} declares bytes "
                f"[{offset}, {offset + nbytes}) but the file holds "
                f"{file_bytes}"
            )
        if count * 8 != nbytes:
            raise SnapshotError(
                f"corrupt snapshot: array {arr_name!r} declares {count} "
                f"8-byte elements in {nbytes} bytes"
            )
        if arr_name in directory:
            raise SnapshotError(
                f"corrupt snapshot: duplicate array {arr_name!r} in "
                f"directory"
            )
        directory[arr_name] = (typecode, count, offset, nbytes)
    return directory


def _read_front(reader, file_bytes: int):
    """Header, network name, string table and array directory.

    Returns ``(num_nodes, num_edges, name, strings, directory)``.
    """
    _version, n, m = _read_header(reader)
    name = _read_string(reader, "network name")
    (string_count,) = _U32.unpack(
        _read_exact(reader, _U32.size, "string-table size")
    )
    strings = [
        _read_string(reader, f"string-table entry {index}")
        for index in range(string_count)
    ]
    return n, m, name, strings, _read_directory(reader, file_bytes)


def _section_sizes(directory: Dict[str, tuple]) -> Dict[str, int]:
    """Payload bytes per array group (``core``, ``csr``, ``alt``, ...)."""
    sections: Dict[str, int] = {}
    for arr_name, (_tc, _count, _offset, nbytes) in directory.items():
        prefix = arr_name.split(".")[0]
        group = _CORE_PREFIXES.get(prefix, prefix)
        sections[group] = sections.get(group, 0) + nbytes
    return sections


def _parse(buf: memoryview, *, copy: bool):
    """Parse a snapshot held in ``buf``.

    With ``copy=False`` every array becomes a ``memoryview.cast``
    directly over ``buf`` — zero bytes copied, the :func:`map_snapshot`
    path.  With ``copy=True`` arrays are materialised as ``array``
    objects (the :func:`load_snapshot` copy path).  Returns
    ``(network, csr, directory)`` with the CSR view — plus any
    persisted landmark table / hierarchy — attached to the network.
    """
    if copy is False and sys.byteorder == "big":  # pragma: no cover
        raise SnapshotError(
            "zero-copy snapshot mapping requires a little-endian host"
        )
    n, m, name, strings, directory = _read_front(_BufReader(buf), len(buf))

    def section(arr_name: str, typecode: str, count: int):
        entry = directory.get(arr_name)
        if entry is None:
            raise SnapshotError(
                f"corrupt snapshot: required array {arr_name!r} is "
                f"missing from the directory"
            )
        found_typecode, found_count, offset, nbytes = entry
        if found_typecode != typecode:
            raise SnapshotError(
                f"corrupt snapshot: array {arr_name!r} has typecode "
                f"{found_typecode!r}, expected {typecode!r}"
            )
        if found_count != count:
            raise SnapshotError(
                f"corrupt snapshot: array {arr_name!r} holds "
                f"{found_count} elements, expected {count}"
            )
        raw = buf[offset : offset + nbytes]
        if copy:
            arr = array(typecode)
            arr.frombytes(bytes(raw))
            if sys.byteorder == "big":  # pragma: no cover - no BE hosts
                arr.byteswap()
            return arr
        return raw.cast(typecode)

    tails = section("edge.tail", "q", m)
    heads = section("edge.head", "q", m)
    times = section("edge.time", "d", m)
    network = _materialise_network(
        name, strings, n, m,
        section("node.lat", "d", n),
        section("node.lon", "d", n),
        section("node.osm", "q", n),
        tails,
        heads,
        section("edge.len", "d", m),
        times,
        section("edge.speed", "d", m),
        section("edge.lanes", "q", m),
        section("edge.way", "q", m),
        section("edge.hwy", "q", m),
        section("edge.name", "q", m),
    )

    # The CSR arrays must be exactly the view the (already validated)
    # edge arrays define: a stray arc would route over a road that does
    # not exist, or index past an array at query time.
    csr_arrays = []
    tail_ids, head_ids = tails.tolist(), heads.tolist()
    time_list = times.tolist()
    for prefix, keys, ends in (
        ("fwd", tail_ids, head_ids), ("bwd", head_ids, tail_ids)
    ):
        for suffix, got, want in zip(
            ("off", "tgt", "eid", "wt"),
            (
                section(f"csr.{prefix}_off", "q", n + 1),
                section(f"csr.{prefix}_tgt", "q", m),
                section(f"csr.{prefix}_eid", "q", m),
                section(f"csr.{prefix}_wt", "d", m),
            ),
            _flat_arcs(n, keys, ends, time_list),
        ):
            if got.tobytes() != want.tobytes():
                raise SnapshotError(
                    f"corrupt snapshot: array 'csr.{prefix}_{suffix}' "
                    f"does not match the edge arrays"
                )
            csr_arrays.append(got)
    csr = CsrGraph.from_mmap(n, m, *csr_arrays)
    network._csr = csr

    if "alt.nodes" in directory:
        landmark_count = directory["alt.nodes"][1]
        landmark_nodes = section("alt.nodes", "q", landmark_count)
        if any(not 0 <= node_id < n for node_id in landmark_nodes):
            raise SnapshotError(
                "corrupt snapshot: landmark node id out of range"
            )
        flat_from = section("alt.from", "d", landmark_count * n)
        flat_to = section("alt.to", "d", landmark_count * n)
        meta = section("alt.meta", "q", 1)
        scale = section("alt.scale", "d", 1)
        # Lazy import: repro.core.alt imports this module at load time.
        from repro.core.alt import LandmarkTable

        csr.landmarks = LandmarkTable(
            landmarks=tuple(landmark_nodes),
            dist_from=[
                flat_from[i * n : (i + 1) * n] for i in range(landmark_count)
            ],
            dist_to=[
                flat_to[i * n : (i + 1) * n] for i in range(landmark_count)
            ],
            seed=meta[0],
            scale=scale[0],
        )

    if "ch.rank" in directory:
        if "ch.tail" not in directory:
            raise SnapshotError(
                "corrupt snapshot: CH rank present without arc arrays"
            )
        num_arcs = directory["ch.tail"][1]
        # Lazy import: repro.core.ch imports this module at load time.
        from repro.core.ch import CchBackend

        try:
            csr.hierarchy = CchBackend.from_arrays(
                network,
                section("ch.rank", "q", n),
                section("ch.tail", "q", num_arcs),
                section("ch.head", "q", num_arcs),
                arc_edge_ids=section("ch.eid", "q", num_arcs),
                arc_weights=section("ch.wt", "d", num_arcs),
                arc_child_up=section("ch.cup", "q", num_arcs),
                arc_child_down=section("ch.cdn", "q", num_arcs),
            )
        except (ConfigurationError, IndexError) as exc:
            raise SnapshotError(f"inconsistent CH arrays: {exc}") from exc

    return network, csr, directory


#: Directory-name prefixes reported as one ``core`` group.
_CORE_PREFIXES = {"node": "core", "edge": "core"}


class MappedSnapshot:
    """A version-3 snapshot mapped read-only into this process.

    ``network`` is a fully materialised :class:`RoadNetwork` whose
    attached :class:`CsrGraph` (``.csr``) — including any persisted
    landmark table and contraction hierarchy — is backed by
    ``memoryview`` casts straight over the mapped file: the flat
    arrays occupy *zero* process-private bytes, so every worker
    mapping the same file shares one set of physical pages.

    Hold the instance for as long as the network serves; dropping all
    references to the network/CSR first, then calling :meth:`close`,
    releases the mapping (closing while array views are still alive
    raises ``BufferError`` — the mapping cannot be yanked out from
    under a live graph).
    """

    __slots__ = ("network", "csr", "path", "sections", "_mmap", "_buf")

    def __init__(self, network, csr, path, sections, mapping, buf) -> None:
        self.network = network
        self.csr = csr
        self.path = path
        self.sections = sections
        self._mmap = mapping
        self._buf = buf

    @property
    def num_nodes(self) -> int:
        return self.network.num_nodes

    @property
    def num_edges(self) -> int:
        return self.network.num_edges

    def close(self) -> None:
        """Drop this handle's graph references and close the map.

        The handle's own ``network``/``csr``/``sections`` references
        are cleared first, so once the *caller* has dropped theirs the
        section views die with them and the mapping closes cleanly.
        Closing while outside references keep views alive raises
        ``BufferError`` — the mapping cannot be yanked out from under
        a live graph.
        """
        self.network = None
        self.csr = None
        self.sections = None
        self._buf.release()
        if self._mmap is not None:
            self._mmap.close()

    def __repr__(self) -> str:
        if self.network is None:
            return f"MappedSnapshot(path={str(self.path)!r}, closed)"
        return (
            f"MappedSnapshot(path={str(self.path)!r}, "
            f"nodes={self.num_nodes}, edges={self.num_edges}, "
            f"sections={sorted(self.sections)})"
        )


def map_snapshot(
    source: Union[PathLike, "mmap.mmap", bytes, bytearray, memoryview]
) -> MappedSnapshot:
    """Map a version-3 snapshot with zero array copies.

    ``source`` is a snapshot path (mapped read-only via ``mmap``), an
    existing ``mmap`` object, or any buffer-protocol object — the
    latter two let N shards of one process group share a single
    mapping established once by the parent.  Returns a
    :class:`MappedSnapshot` whose CSR/ALT/CH arrays are ``memoryview``
    casts over the source buffer.  Raises
    :class:`~repro.exceptions.SnapshotError` for non-v3 files and
    every directory corruption mode (truncation, misalignment, bad
    typecodes, missing arrays).
    """
    mapping = None
    path = None
    if isinstance(source, (str, FilePath)):
        path = FilePath(source)
        with open(path, "rb") as handle:
            try:
                mapping = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
            except ValueError as exc:
                raise SnapshotError(
                    f"cannot map empty snapshot file {path}"
                ) from exc
        buf = memoryview(mapping)
    elif isinstance(source, mmap.mmap):
        buf = memoryview(source)
    else:
        buf = memoryview(source)
        if buf.format != "B":
            buf = buf.cast("B")
    try:
        network, csr, directory = _parse(buf, copy=False)
    except Exception:
        buf.release()
        if mapping is not None:
            try:
                mapping.close()
            except BufferError:  # traceback frames may pin views briefly
                pass
        raise
    return MappedSnapshot(
        network, csr, path, _section_sizes(directory), mapping, buf
    )


def snapshot_info(path: PathLike) -> dict:
    """Metadata of a snapshot file, without loading the arrays.

    Returns ``{"magic", "version", "name", "num_nodes", "num_edges",
    "file_bytes", "sections"}`` where ``sections`` maps each array
    group (``core``, ``csr``, ``alt``, ``ch``; unknown prefixes appear
    under their own name) to its payload size in bytes.  Raises
    :class:`SnapshotError` on malformed headers, other format versions
    and truncated directories exactly like :func:`load_snapshot`; it
    never runs struct errors loose.
    """
    path = FilePath(path)
    file_bytes = path.stat().st_size
    with open(path, "rb") as handle:
        n, m, name, _strings, directory = _read_front(handle, file_bytes)
    return {
        "magic": SNAPSHOT_MAGIC.decode("ascii"),
        "version": SNAPSHOT_VERSION,
        "name": name,
        "num_nodes": n,
        "num_edges": m,
        "file_bytes": file_bytes,
        "sections": _section_sizes(directory),
    }
