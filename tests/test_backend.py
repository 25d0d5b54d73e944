"""Unit tests for the chip-specific code generators."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.backend import (
    HLSGenerator,
    MicroCGenerator,
    NPLGenerator,
    P4Generator,
    generate_for_device,
)
from repro.devices import (
    NetronomeNFPDevice,
    TofinoDevice,
    Trident4Device,
    XilinxFPGADevice,
)
from repro.exceptions import BackendError
from repro.frontend import compile_source


GENERATORS = [P4Generator(), NPLGenerator(), MicroCGenerator(), HLSGenerator()]


class TestAllGenerators:
    @pytest.mark.parametrize("generator", GENERATORS, ids=lambda g: g.language)
    def test_generates_nonempty_source(self, generator, kvs_program):
        source = generator.generate(kvs_program)
        assert len(source.splitlines()) > 30
        assert generator.loc(kvs_program) > 30

    @pytest.mark.parametrize("generator", GENERATORS, ids=lambda g: g.language)
    def test_states_appear_in_output(self, generator, kvs_program):
        source = generator.generate(kvs_program)
        for state in kvs_program.states:
            assert generator.sanitize(state) in source

    @pytest.mark.parametrize("generator", GENERATORS, ids=lambda g: g.language)
    def test_header_fields_appear_in_output(self, generator, mlagg_program):
        source = generator.generate(mlagg_program)
        assert "seq" in source and "bitmap" in source

    @pytest.mark.parametrize("generator", GENERATORS, ids=lambda g: g.language)
    def test_all_three_templates_generate(self, generator, kvs_program,
                                          mlagg_program, dqacc_program):
        for program in (kvs_program, mlagg_program, dqacc_program):
            assert generator.generate(program)

    def test_p4_loc_larger_than_clickinc_loc(self, kvs_program):
        """The Table 1 premise: generated P4 is much longer than ClickINC source."""
        from repro.lang.templates import KVSTemplate
        from repro.lang.profile import default_profile

        template_source = KVSTemplate().render(default_profile("KVS")).source
        clickinc_loc = len(
            [line for line in template_source.splitlines() if line.strip()]
        )
        p4_loc = P4Generator().loc(kvs_program)
        assert p4_loc > 3 * clickinc_loc


class TestLanguageSpecifics:
    def test_p4_output_structure(self, kvs_program):
        source = P4Generator().generate(kvs_program)
        assert "#include <tna.p4>" in source
        assert "control Ingress" in source
        assert "Register<" in source
        assert "Switch(pipe) main;" in source

    def test_npl_output_structure(self, dqacc_program):
        source = NPLGenerator().generate(dqacc_program)
        assert "struct inc_header_t" in source
        assert "flex_state" in source

    def test_microc_output_structure(self, mlagg_program):
        source = MicroCGenerator().generate(mlagg_program)
        assert "#include <nfp.h>" in source
        assert "pif_plugin_" in source

    def test_hls_output_structure(self, mlagg_program):
        source = HLSGenerator().generate(mlagg_program)
        assert "#include <ap_int.h>" in source
        assert "#pragma HLS pipeline" in source

    def test_microc_marks_float_unsupported(self):
        program = compile_source("x = hdr.a + 1\n", name="f",
                                 header_fields={"a": 32})
        from repro.ir.instructions import Instruction, Opcode

        program.append(Instruction(Opcode.FADD, dst="y", operands=("x", 1.0)))
        source = MicroCGenerator().generate(program)
        assert "floating point unsupported" in source

    def test_drop_statement_per_backend(self):
        program = compile_source("drop()\n", name="d")
        assert "drop_ctl = 1" in P4Generator().generate(program)
        assert "drop = 1" in NPLGenerator().generate(program)
        assert "RETURN_DROP" in MicroCGenerator().generate(program)
        assert "do_drop = true" in HLSGenerator().generate(program)


class TestDeviceDispatch:
    def test_generate_for_device_picks_matching_backend(self, kvs_program):
        assert "tna.p4" in generate_for_device(TofinoDevice("t"), kvs_program)
        assert "flex_state" in generate_for_device(Trident4Device("td"), kvs_program)
        assert "nfp.h" in generate_for_device(NetronomeNFPDevice("n"), kvs_program)
        assert "ap_int.h" in generate_for_device(XilinxFPGADevice("f"), kvs_program)

    def test_unknown_device_type_raises(self, kvs_program):
        device = TofinoDevice("t")
        device.dev_type = "martian"
        with pytest.raises(BackendError):
            generate_for_device(device, kvs_program)


class TestRegistry:
    def test_concurrent_first_calls_find_every_backend(self):
        """Every generator is registered when the package is imported, so
        threads whose first calls race (shard waves commit concurrently)
        all find their backend.  Runs in a fresh interpreter: in this one
        earlier tests have long since filled the registry."""
        script = textwrap.dedent("""
            import threading
            from repro.backend.codegen import (
                _GENERATOR_REGISTRY, generate_for_device)
            from repro.frontend import compile_source
            from repro.topology import build_paper_emulation_topology

            topology = build_paper_emulation_topology()
            devices = {}
            for device in topology.devices.values():
                devices.setdefault(device.dev_type, device)
            assert set(devices) <= set(_GENERATOR_REGISTRY), devices
            program = compile_source("drop()\\n", name="d")
            barrier = threading.Barrier(len(devices))
            errors = []

            def generate(device):
                barrier.wait()
                try:
                    generate_for_device(device, program)
                except Exception as exc:
                    errors.append(repr(exc))

            threads = [threading.Thread(target=generate, args=(device,))
                       for device in devices.values()]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors, errors
            print(sorted(devices))
        """)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "tofino" in done.stdout and "td4" in done.stdout
