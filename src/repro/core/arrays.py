"""Layout-aware SRF arrays: the bridge between data and descriptors.

An :class:`SrfArray` owns one block-aligned SRF allocation and
manufactures the stream descriptors that view it — sequentially (for
memory transfers and sequential kernel streams), with per-lane indexing
(replicated lookup tables, per-lane partitions), or with global
cross-lane indexing. It also converts between three data layouts:

* **stream order** — the linear word order of loads/stores and global
  addressing (word ``j`` at global address ``base + j``);
* **per-lane order** — what one lane's bank sees at consecutive
  bank-local addresses (how ``idxl_*`` streams address records);
* **record order** — whole records of ``record_words`` words.

Getting these conversions right in one place is essential: the paper's
indexed benchmarks (replicated Rijndael T-tables, per-lane FFT columns,
cross-lane graph node arrays) all depend on agreeing about where word
``k`` of lane ``l`` lives.
"""

from __future__ import annotations

from repro.core.descriptors import IndexSpace, StreamDescriptor, StreamKind
from repro.core.srf import StreamRegisterFile
from repro.errors import SrfError


class SrfArray:
    """One allocated SRF region plus descriptor/layout helpers."""

    def __init__(self, srf: StreamRegisterFile, words: int, name: str):
        self.srf = srf
        self.name = name
        self.allocation = srf.allocator.allocate(words, name)
        self._geometry = srf.geometry

    @property
    def base(self) -> int:
        return self.allocation.base

    @property
    def words(self) -> int:
        """Allocated size (rounded up to whole blocks)."""
        return self.allocation.words

    @property
    def words_per_lane(self) -> int:
        return self.words // self._geometry.lanes

    def free(self) -> None:
        self.srf.allocator.free(self.allocation)

    # ------------------------------------------------------------------
    # Descriptor factories
    # ------------------------------------------------------------------
    def seq_read(self, words: "int | None" = None,
                 name: str = "") -> StreamDescriptor:
        """Sequential read stream over the first ``words`` words."""
        return self._sequential(StreamKind.SEQUENTIAL_READ, words, name)

    def seq_write(self, words: "int | None" = None,
                  name: str = "") -> StreamDescriptor:
        """Sequential write stream over the first ``words`` words."""
        return self._sequential(StreamKind.SEQUENTIAL_WRITE, words, name)

    def _sequential(self, kind, words, name) -> StreamDescriptor:
        words = self.words if words is None else words
        if words > self.words:
            raise SrfError(
                f"{self.name}: {words} words exceed the {self.words}-word "
                "allocation"
            )
        return StreamDescriptor(
            name or self.name, kind, self.base, length_records=words
        )

    def inlane_read(self, records_per_lane: "int | None" = None,
                    record_words: int = 1, name: str = "") -> StreamDescriptor:
        """In-lane indexed read view: each lane indexes its own bank."""
        return self._inlane(
            StreamKind.INLANE_INDEXED_READ, records_per_lane, record_words,
            name,
        )

    def inlane_write(self, records_per_lane: "int | None" = None,
                     record_words: int = 1, name: str = "") -> StreamDescriptor:
        """In-lane indexed write view."""
        return self._inlane(
            StreamKind.INLANE_INDEXED_WRITE, records_per_lane, record_words,
            name,
        )

    def inlane_readwrite(self, records_per_lane: "int | None" = None,
                         record_words: int = 1,
                         name: str = "") -> StreamDescriptor:
        """In-lane indexed read-write view (paper §7 future work)."""
        return self._inlane(
            StreamKind.INLANE_INDEXED_READWRITE, records_per_lane,
            record_words, name,
        )

    def _inlane(self, kind, records_per_lane, record_words, name):
        capacity = self.words_per_lane // record_words
        records = capacity if records_per_lane is None else records_per_lane
        if records > capacity:
            raise SrfError(
                f"{self.name}: {records} records/lane exceed per-lane "
                f"capacity {capacity}"
            )
        return StreamDescriptor(
            name or self.name, kind, self.base,
            length_records=records, record_words=record_words,
            index_space=IndexSpace.PER_LANE,
        )

    def crosslane_read(self, records: "int | None" = None,
                       record_words: int = 1,
                       name: str = "") -> StreamDescriptor:
        """Cross-lane indexed read view over globally striped records."""
        capacity = self.words // record_words
        records = capacity if records is None else records
        if records > capacity:
            raise SrfError(
                f"{self.name}: {records} records exceed capacity {capacity}"
            )
        return StreamDescriptor(
            name or self.name, StreamKind.CROSSLANE_INDEXED_READ, self.base,
            length_records=records, record_words=record_words,
            index_space=IndexSpace.GLOBAL,
        )

    # ------------------------------------------------------------------
    # Functional contents (direct storage access, no timing)
    # ------------------------------------------------------------------
    def fill_stream_order(self, values) -> None:
        """Write values at consecutive global (stream-order) addresses."""
        values = list(values)
        if len(values) > self.words:
            raise SrfError(f"{self.name}: too many values")
        self.srf.storage.write_range(self.base, values)

    def read_stream_order(self, count: "int | None" = None) -> list:
        count = self.words if count is None else count
        return self.srf.storage.read_range(self.base, count)

    def fill_per_lane(self, lane_tables) -> None:
        """Write one word list per lane at that lane's bank-local layout."""
        geometry = self._geometry
        if len(lane_tables) != geometry.lanes:
            raise SrfError(f"{self.name}: need one table per lane")
        local_base = self._local_base()
        for lane, table in enumerate(lane_tables):
            if len(table) > self.words_per_lane:
                raise SrfError(
                    f"{self.name}: lane {lane} table exceeds per-lane space"
                )
            for offset, value in enumerate(table):
                self.srf.storage.write_lane(lane, local_base + offset, value)

    def fill_replicated(self, table) -> None:
        """Replicate one table into every lane (Rijndael-style tables)."""
        self.fill_per_lane([list(table)] * self._geometry.lanes)

    def read_per_lane(self, lane: int,
                      count: "int | None" = None) -> list:
        count = self.words_per_lane if count is None else count
        local_base = self._local_base()
        return [
            self.srf.storage.read_lane(lane, local_base + offset)
            for offset in range(count)
        ]

    def _local_base(self) -> int:
        geometry = self._geometry
        return (self.base // geometry.block_words) * \
            geometry.words_per_lane_access

    # ------------------------------------------------------------------
    # Memory-image construction (stream-order words for loads)
    # ------------------------------------------------------------------
    def stream_image_per_lane(self, lane_tables) -> list:
        """Stream-order word list that, when loaded sequentially into
        this array, places ``lane_tables[l]`` at lane ``l``'s bank."""
        geometry = self._geometry
        lanes = geometry.lanes
        m = geometry.words_per_lane_access
        if len(lane_tables) != lanes:
            raise SrfError(f"{self.name}: need one table per lane")
        per_lane = max(len(t) for t in lane_tables)
        blocks = -(-per_lane // m)
        image = []
        for block in range(blocks):
            for lane in range(lanes):
                table = lane_tables[lane]
                for off in range(m):
                    local = block * m + off
                    image.append(table[local] if local < len(table) else 0)
        return image

    def per_lane_from_stream_image(self, image, words_per_lane: int) -> list:
        """Invert :meth:`stream_image_per_lane`: split a stream-order
        word list back into per-lane word lists."""
        geometry = self._geometry
        lanes = geometry.lanes
        m = geometry.words_per_lane_access
        tables = [[] for _ in range(lanes)]
        blocks = -(-words_per_lane // m)
        for block in range(blocks):
            for lane in range(lanes):
                for off in range(m):
                    local = block * m + off
                    position = block * lanes * m + lane * m + off
                    if local < words_per_lane and position < len(image):
                        tables[lane].append(image[position])
        return tables
