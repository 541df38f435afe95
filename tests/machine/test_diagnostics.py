"""Performance-diagnostics: bound analysis matches the paper's reasoning."""


from repro.kernel import KernelBuilder, ModuloScheduler
from repro.machine.diagnostics import analyze_schedule


class TestScheduleBounds:
    def test_alu_bound_kernel(self):
        b = KernelBuilder("alu_heavy")
        in_s = b.istream("i")
        out = b.ostream("o")
        x = b.read(in_s)
        acc = x
        for _ in range(16):
            acc = b.mul(acc, x)
        b.write(out, acc)
        schedule = ModuloScheduler().schedule(b.build())
        bounds = analyze_schedule(schedule)
        assert bounds.alu_bound == 4  # 16 muls on 4 ALUs
        assert bounds.binding_constraint == "ALU issue"

    def test_divider_bound_kernel(self):
        b = KernelBuilder("divider")
        in_s = b.istream("i")
        out = b.ostream("o")
        b.write(out, b.div(b.const(1.0), b.read(in_s)))
        bounds = analyze_schedule(ModuloScheduler().schedule(b.build()))
        assert bounds.divider_bound == 16
        assert bounds.binding_constraint == "divider"

    def test_recurrence_bound_kernel(self):
        b = KernelBuilder("carried")
        lut = b.idxl_istream("t")
        out = b.ostream("o")
        ptr = b.carry(0, "ptr")
        v = b.idx_read(lut, ptr)
        b.update(ptr, b.logic(lambda x: int(x) % 8, v))
        b.write(out, v)
        schedule = ModuloScheduler().schedule(b.build(),
                                              inlane_separation=8)
        bounds = analyze_schedule(schedule)
        assert bounds.binding_constraint == "loop-carried recurrence"
        assert bounds.recurrence_bound == schedule.ii

    def test_recurrence_bound_uses_the_schedules_capacity(self):
        # A 16-word reorder buffer covers a separation of 10 at II 1;
        # the default 8 words would need II 2 (ceil(10 / 8)).
        b = KernelBuilder("lookup")
        in_s = b.istream("i")
        lut = b.idxl_istream("t")
        out = b.ostream("o")
        x = b.read(in_s)
        b.write(out, b.add(x, b.idx_read(lut, x)))
        schedule = ModuloScheduler().schedule(
            b.build(), inlane_separation=10, stream_capacity_words=16
        )
        bounds = analyze_schedule(schedule)
        assert schedule.ii == 1
        assert bounds.recurrence_bound == 1
        assert bounds.binding_constraint != "loop-carried recurrence"

    def test_index_port_bound_kernel(self):
        b = KernelBuilder("lookups")
        in_s = b.istream("i")
        lut = b.idxl_istream("t")
        out = b.ostream("o")
        x = b.read(in_s)
        acc = x
        for _ in range(6):
            acc = b.logic(lambda p, q: p + q, acc, b.idx_read(lut, x))
        b.write(out, acc)
        bounds = analyze_schedule(ModuloScheduler().schedule(b.build()))
        assert bounds.index_port_bounds["t"] == 6
        assert bounds.binding_constraint == "indexed-stream port"

    def test_describe_mentions_binding_constraint(self):
        b = KernelBuilder("k")
        out = b.ostream("o")
        b.write(out, b.const(1))
        bounds = analyze_schedule(ModuloScheduler().schedule(b.build()))
        assert "bound by" in bounds.describe()

