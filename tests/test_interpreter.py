"""Unit tests for the per-device IR interpreter."""


from repro.devices import TofinoDevice
from repro.emulator import DeviceRuntime, Packet
from repro.emulator.interpreter import MISS, StateStore, crc_hash
from repro.frontend import compile_source
from repro.ir.instructions import StateDecl, StateKind


def make_runtime():
    return DeviceRuntime(TofinoDevice("t"))


class TestStateStore:
    def test_register_read_write(self):
        store = StateStore()
        store.ensure(StateDecl("r", StateKind.REGISTER_ARRAY, size=8, width=32))
        assert store.reg_read("r", 0) == 0
        store.reg_write("r", 0, 42)
        assert store.reg_read("r", 0) == 42
        assert store.reg_add("r", 0, 3) == 45

    def test_register_rows_are_separate(self):
        store = StateStore()
        store.reg_write("r", 5, 1, row=0)
        store.reg_write("r", 5, 2, row=1)
        assert store.reg_read("r", 5, row=0) == 1
        assert store.reg_read("r", 5, row=1) == 2

    def test_register_clear(self):
        store = StateStore()
        store.reg_write("r", 1, 9)
        store.reg_clear("r", 1)
        assert store.reg_read("r", 1) == 0
        store.reg_write("r", 1, 9)
        store.reg_clear("r")
        assert store.reg_read("r", 1) == 0

    def test_table_lookup_miss_and_hit(self):
        store = StateStore()
        store.ensure(StateDecl("t", StateKind.EXACT_TABLE, size=8, width=32,
                               key_width=32))
        assert store.table_lookup("t", 5) == MISS
        store.table_insert("t", 5, 77)
        assert store.table_lookup("t", 5) == 77
        assert len(store.tables["t"]) == 1

    def test_crc_hash_is_deterministic_and_bounded(self):
        assert crc_hash(42, 100) == crc_hash(42, 100)
        assert 0 <= crc_hash(42, 100) < 100
        assert crc_hash(42, 100, salt=1) != crc_hash(42, 100, salt=2)


class TestArithmeticExecution:
    def _run(self, source, fields, header_fields):
        program = compile_source(source, name="t", header_fields=header_fields)
        runtime = make_runtime()
        runtime.install_snippet("t", program)
        packet = Packet(src_group="a", dst_group="b", owner="t", fields=fields)
        result = runtime.process_packet(packet)
        return runtime, packet, result

    def test_counter_increments_across_packets(self):
        source = (
            "ctr = Array(row=1, size=16, w=32)\n"
            'f = Hash(type="crc_16", key=hdr.key)\n'
            "idx = get(f, hdr.key)\n"
            "n = count(ctr, idx, 1)\n"
        )
        program = compile_source(source, name="c", header_fields={"key": 32})
        runtime = make_runtime()
        runtime.install_snippet("c", program)
        for _ in range(3):
            packet = Packet(src_group="a", dst_group="b", owner="c",
                            fields={"key": 7})
            runtime.process_packet(packet)
        values = list(runtime.state.registers["ctr"].values())
        assert values == [3]

    def test_guarded_drop_only_when_condition_holds(self):
        source = "if hdr.v > 10:\n    drop()\n"
        _, packet_hot, result_hot = self._run(source, {"v": 50}, {"v": 32})
        assert result_hot.dropped and packet_hot.dropped
        _, packet_cold, result_cold = self._run(source, {"v": 5}, {"v": 32})
        assert not result_cold.dropped and not packet_cold.dropped

    def test_if_else_branches(self):
        source = (
            "x = 0\n"
            "if hdr.v == 1:\n"
            "    x = 100\n"
            "else:\n"
            "    x = 200\n"
            "if x == 200:\n"
            "    drop()\n"
        )
        _, _, result1 = self._run(source, {"v": 1}, {"v": 32})
        assert not result1.dropped
        _, _, result2 = self._run(source, {"v": 2}, {"v": 32})
        assert result2.dropped

    def test_strength_reduced_modulus_matches_python(self):
        source = "x = hdr.v % 8\nif x == 5:\n    drop()\n"
        _, _, result = self._run(source, {"v": 13}, {"v": 32})
        assert result.dropped     # 13 % 8 == 5

    def test_vector_addition(self):
        source = "x = hdr.data + hdr.data\n"
        program = compile_source(source, name="v", header_fields={"data": 64})
        runtime = make_runtime()
        runtime.install_snippet("v", program)
        packet = Packet(src_group="a", dst_group="b", owner="v",
                        fields={"data": [1, 2, 3]})
        runtime.process_packet(packet)
        assert packet.inc.params[program[0].dst] == [2, 4, 6]

    def test_table_miss_then_hit(self):
        source = (
            'cache = Table(type="exact", size=16, stateful=False)\n'
            "v = get(cache, hdr.key)\n"
            "if v != None:\n"
            "    drop()\n"
        )
        program = compile_source(source, name="kv", header_fields={"key": 32})
        runtime = make_runtime()
        runtime.install_snippet("kv", program)
        miss_packet = Packet(src_group="a", dst_group="b", owner="kv",
                             fields={"key": 9})
        result = runtime.process_packet(miss_packet)
        assert not result.dropped
        runtime.state.table_insert("cache", 9, 123)
        hit_packet = Packet(src_group="a", dst_group="b", owner="kv",
                            fields={"key": 9})
        result = runtime.process_packet(hit_packet)
        assert result.dropped

    def test_copy_to_updates_stateless_table_via_control_plane(self):
        source = (
            'cache = Table(type="exact", size=16, stateful=False)\n'
            "write(cache, hdr.key, hdr.val)\n"
        )
        program = compile_source(source, name="cp",
                                 header_fields={"key": 32, "val": 32})
        runtime = make_runtime()
        runtime.install_snippet("cp", program)
        packet = Packet(src_group="a", dst_group="b", owner="cp",
                        fields={"key": 4, "val": 44})
        result = runtime.process_packet(packet)
        assert result.copied_to_cpu
        assert runtime.state.table_lookup("cache", 4) == 44

    def test_header_write_and_remove(self):
        source = "hdr.mark = 1\ndel(hdr.feat, IDX)\n"
        program = compile_source(source, name="h", constants={"IDX": 1},
                                 header_fields={"mark": 8, "feat": 96})
        runtime = make_runtime()
        runtime.install_snippet("h", program)
        packet = Packet(src_group="a", dst_group="b", owner="h",
                        fields={"feat": [10, 20, 30], "mark": 0})
        runtime.process_packet(packet)
        assert packet.get_field("mark") == 1
        # del(hdr.feat, 1) removes block 1 from the packet payload entirely
        assert packet.get_field("feat") == [10, 30]

    def test_snippet_only_runs_for_its_owner(self):
        source = "drop()\n"
        program = compile_source(source, name="dropper")
        runtime = make_runtime()
        runtime.install_snippet("dropper", program)
        other = Packet(src_group="a", dst_group="b", owner="someone_else")
        result = runtime.process_packet(other)
        assert not result.dropped
        assert result.executed_instructions == 0

    def test_params_carried_between_devices(self):
        producer_src = "x = hdr.v + 5\n"
        consumer_src = "if hdr.v > 0:\n    drop()\n"
        producer = compile_source(producer_src, name="p", header_fields={"v": 32})
        runtime_a = make_runtime()
        runtime_a.install_snippet("p", producer)
        packet = Packet(src_group="a", dst_group="b", owner="p", fields={"v": 1})
        runtime_a.process_packet(packet)
        # downstream device sees the temporary through the Param field
        assert any(value == 6 for value in packet.inc.params.values())

    def test_latency_and_hops_recorded(self):
        runtime = make_runtime()
        runtime.install_snippet("x", compile_source("y = 1\n", name="x"))
        packet = Packet(src_group="a", dst_group="b", owner="x")
        runtime.process_packet(packet)
        assert packet.hops == ["t"]
        assert packet.latency_ns == runtime.device.processing_latency_ns

    def test_remove_snippet(self):
        runtime = make_runtime()
        runtime.install_snippet("x", compile_source("drop()\n", name="x"))
        runtime.remove_snippet("x")
        assert runtime.installed_owners() == []
