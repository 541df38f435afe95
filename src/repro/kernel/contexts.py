"""Ready-made execution contexts for running kernels standalone.

:class:`ListContext` backs kernel streams with plain Python lists, which
is how golden-reference runs and unit tests execute kernels without the
full machine. The machine-level executor provides its own context wired
to SRF storage.
"""

from __future__ import annotations

from repro.errors import ExecutionError
from repro.kernel.interpreter import ExecutionContext
from repro.kernel.ir import KernelStream


class ListContext(ExecutionContext):
    """List-backed stream data for standalone kernel execution.

    * sequential inputs: ``bind_input(stream, per_lane_lists)``;
    * sequential outputs: collected into ``outputs[stream.name]``
      (one list per lane);
    * in-lane indexed streams: ``bind_table(stream, per_lane_tables)``
      (one table per lane — e.g. a replicated lookup table);
    * cross-lane indexed streams: ``bind_global(stream, table)``.

    Like every :class:`ExecutionContext`, it serves one SIMD access per
    call: ``idx_read`` takes one record index per lane (None reads 0)
    and ``idx_write`` one ``(record_index, value)`` entry per lane (None
    writes nothing). Indexed writes mutate the bound tables in place.
    """

    def __init__(self, lanes: int):
        self.lanes = lanes
        self._inputs = {}
        self._cursors = {}
        self.outputs = {}
        self._lane_tables = {}
        self._global_tables = {}

    # -- binding ---------------------------------------------------------
    def bind_input(self, stream: KernelStream, per_lane) -> None:
        per_lane = [list(lane_data) for lane_data in per_lane]
        if len(per_lane) != self.lanes:
            raise ExecutionError(
                f"{stream.name}: need data for {self.lanes} lanes"
            )
        self._inputs[stream.name] = per_lane
        self._cursors[stream.name] = 0

    def bind_table(self, stream: KernelStream, per_lane_tables) -> None:
        tables = [list(t) for t in per_lane_tables]
        if len(tables) != self.lanes:
            raise ExecutionError(
                f"{stream.name}: need a table per lane"
            )
        self._lane_tables[stream.name] = tables

    def bind_global(self, stream: KernelStream, table) -> None:
        self._global_tables[stream.name] = list(table)

    # -- ExecutionContext ------------------------------------------------
    def seq_read(self, stream: KernelStream) -> list:
        try:
            data = self._inputs[stream.name]
        except KeyError:
            raise ExecutionError(f"{stream.name}: no input bound") from None
        cursor = self._cursors[stream.name]
        values = []
        for lane in range(self.lanes):
            lane_data = data[lane]
            if cursor >= len(lane_data):
                raise ExecutionError(
                    f"{stream.name}: lane {lane} exhausted at {cursor}"
                )
            values.append(lane_data[cursor])
        self._cursors[stream.name] = cursor + 1
        return values

    def seq_write(self, stream: KernelStream, lane_values) -> None:
        sink = self.outputs.setdefault(
            stream.name, [[] for _ in range(self.lanes)]
        )
        for lane, value in enumerate(lane_values):
            sink[lane].append(value)

    def idx_read(self, stream: KernelStream, indices: list) -> list:
        tables = self._tables_of(stream)
        values = []
        for table, index in zip(tables, indices):
            if index is None:
                values.append(0)
                continue
            self._check_index(stream, table, index)
            values.append(table[index])
        return values

    def idx_write(self, stream: KernelStream, entries: list) -> None:
        tables = self._tables_of(stream)
        for table, entry in zip(tables, entries):
            if entry is None:
                continue
            record_index, value = entry
            self._check_index(stream, table, record_index)
            table[record_index] = value

    def _tables_of(self, stream: KernelStream) -> list:
        """The table each lane sees: its own, or the one global table."""
        if stream.name in self._lane_tables:
            return self._lane_tables[stream.name]
        if stream.name in self._global_tables:
            return [self._global_tables[stream.name]] * self.lanes
        raise ExecutionError(f"{stream.name}: no table bound")

    @staticmethod
    def _check_index(stream: KernelStream, table: list, index: int) -> None:
        if not 0 <= index < len(table):
            raise ExecutionError(
                f"{stream.name}: index {index} out of range"
            )

    # -- inspection --------------------------------------------------------
    def output(self, stream_name: str) -> list:
        """Per-lane collected output lists for a stream."""
        try:
            return self.outputs[stream_name]
        except KeyError:
            raise ExecutionError(
                f"no output collected for {stream_name!r}"
            ) from None

    def table(self, stream_name: str, lane: "int | None" = None) -> list:
        """Current contents of a bound table."""
        if stream_name in self._lane_tables:
            if lane is None:
                raise ExecutionError(f"{stream_name}: specify a lane")
            return list(self._lane_tables[stream_name][lane])
        if stream_name in self._global_tables:
            return list(self._global_tables[stream_name])
        raise ExecutionError(f"no table bound for {stream_name!r}")
