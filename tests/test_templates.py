"""Unit tests for the built-in templates (KVS, MLAgg, DQAcc, sparse MLAgg)."""

import pytest

from repro.exceptions import ProfileError
from repro.frontend import compile_source
from repro.ir.instructions import InstrClass
from repro.lang.profile import default_profile
from repro.lang.templates import (
    DQAccTemplate,
    KVSTemplate,
    MLAggTemplate,
    TemplateRegistry,
    get_template,
    sparse_mlagg_source,
)


class TestRegistry:
    def test_templates_registered(self):
        for app in ("KVS", "MLAgg", "DQAcc"):
            assert TemplateRegistry.get(app).app_id == app

    def test_get_template_returns_instances(self):
        assert isinstance(get_template("KVS"), KVSTemplate)
        assert isinstance(get_template("MLAgg"), MLAggTemplate)
        assert isinstance(get_template("DQAcc"), DQAccTemplate)

    def test_unknown_template_raises(self):
        with pytest.raises(ProfileError):
            get_template("Unknown")

    def test_mismatched_profile_rejected(self):
        with pytest.raises(ProfileError):
            KVSTemplate().render(default_profile("MLAgg"))


class TestKVSTemplate:
    def test_render_uses_profile_values(self):
        profile = default_profile("KVS")
        profile.performance["depth"] = 777
        output = KVSTemplate().render(profile)
        assert output.constants["CACHE_DEPTH"] == 777
        assert "cache = Table" in output.source
        assert output.header_fields["key"] == 128

    def test_default_cache_is_stateless(self):
        output = KVSTemplate().render(default_profile("KVS"))
        assert output.constants["STATEFUL_CACHE"] is False

    def test_stateful_cache_opt_in(self):
        profile = default_profile("KVS")
        profile.performance["stateful_cache"] = True
        output = KVSTemplate().render(profile)
        assert output.constants["STATEFUL_CACHE"] is True

    def test_compiles_and_uses_expected_classes(self, kvs_program):
        classes = {i.instr_class for i in kvs_program}
        assert InstrClass.BSO in classes        # hit counter / sketch
        assert InstrClass.BAF in classes        # hashes
        assert InstrClass.BBPF in classes       # drop / reply
        assert len(kvs_program.states) == 4     # cache, hits, cms, bf


class TestMLAggTemplate:
    def test_render_constants(self):
        profile = default_profile("MLAgg")
        profile.performance["workers"] = 4
        output = MLAggTemplate().render(profile)
        assert output.constants["NUM_WORKER"] == 4
        assert output.constants["FULL_BITMAP"] == 15

    def test_compiles_with_aggregator_states(self, mlagg_program):
        states = set(mlagg_program.states)
        assert any("agg_data" in s for s in states)
        assert any("bitmap" in s for s in states)
        # mirror on overflow
        assert InstrClass.BAPF in {i.instr_class for i in mlagg_program}


class TestDQAccTemplate:
    def test_render_constants(self):
        profile = default_profile("DQAcc")
        profile.performance["c_depth"] = 999
        profile.performance["c_len"] = 4
        output = DQAccTemplate().render(profile)
        assert output.constants["CACHE_DEPTH"] == 999
        assert output.constants["CACHE_LEN"] == 4

    def test_compiles_with_rolling_cache(self, dqacc_program):
        assert any("rolling" in s for s in dqacc_program.states)
        # modulus was strength-reduced, so no BIC instructions survive
        assert InstrClass.BIC not in {i.instr_class for i in dqacc_program}


class TestSparseMLAgg:
    def test_source_renders_and_compiles(self):
        output = sparse_mlagg_source(block_num=2, block_size=3, num_agg=64, vec_dim=6)
        program = compile_source(
            output.source,
            name="sparse",
            constants=output.constants,
            header_fields=output.header_fields,
        )
        assert len(program) > 50          # template + sparsity detection
        assert any("agg_data" in s for s in program.states)

    def test_block_parameters_respected(self):
        output = sparse_mlagg_source(block_num=3, block_size=2)
        assert output.constants["BLOCK_NUM"] == 3
        assert output.constants["BLOCK_SIZE"] == 2
        assert output.header_fields["feat"] == 32 * 6
