import pytest

from amf.config import get, parse_config, schedules_for
from amf.errors import ConfigError

VALID = """
# experiment config
data.k_a = 4
data.noise_a = 0.5   # inline comment
model.arch = multitune

optim.branch1.lr = 0.03
optim.branch1.decay_rate = 0.9
optim.branch1.decay_epochs = 20
optim.classifier.lr = 0.008
"""


class TestParse:
    def test_valid_file(self):
        cfg = parse_config(VALID)
        assert cfg["data.k_a"] == 4
        assert cfg["data.noise_a"] == 0.5
        assert cfg["model.arch"] == "multitune"
        assert cfg["optim.branch1.lr"] == 0.03

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("data.k_a = 4\ndata.k_a = 5\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config("data.frobnicate = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("data.k_a = four\n")

    def test_out_of_range_rejected(self):
        for line in ("optim.momentum = 1.5", "model.arch = resnet",
                     # no float value may be non-finite
                     "pretrain.lr = inf", "pretrain.policy_lr = inf", "optim.branch1.lr = inf",
                     "optim.policy.lr = 1e999", "data.noise_a = inf", "data.noise_b = inf",
                     "data.source_noise = inf", "data.noise_a = nan"):
            with pytest.raises(ConfigError):
                parse_config(line + "\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("data.k_a 4\n")


class TestGet:
    def test_defaults_apply(self):
        cfg = parse_config("")
        assert get(cfg, "model.d") == 64
        assert get(cfg, "optim.momentum") == 0.9

    def test_explicit_overrides_default(self):
        cfg = parse_config("model.d = 16\n")
        assert get(cfg, "model.d") == 16

    def test_required_key_missing(self):
        with pytest.raises(ConfigError, match="data.seed"):
            get(parse_config(""), "data.seed")


class TestSchedules:
    def test_builds_specs_with_defaults(self):
        cfg = parse_config(VALID)
        scheds = schedules_for(cfg, ["branch1", "classifier"])
        assert scheds["branch1"].base_lr == 0.03
        assert scheds["branch1"].decay_epochs == 20
        assert scheds["classifier"].decay_rate == 0.9  # schema default

    def test_missing_group_lr_rejected(self):
        with pytest.raises(ConfigError, match="optim.policy.lr"):
            schedules_for(parse_config(VALID), ["policy"])

    # a group the model does not have would otherwise be parsed and never read
    @pytest.mark.parametrize("key", ["optim.brnch1.decay_rate = 0.5", "optim.policy.lr = 0.1"],
                             ids=["misspelt", "not_in_arch"])
    def test_key_for_unknown_group_rejected(self, key):
        cfg = parse_config(VALID + key + "\n")
        with pytest.raises(ConfigError, match=key.split(" ")[0]):
            schedules_for(cfg, ["branch1", "classifier"])
