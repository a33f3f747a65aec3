"""Attention blocks: forced-limit identities and parameter counts (their
gradients are checked by the registry in `sa2net.gradcheck`)."""

import numpy as np
import numpy.testing as npt
import pytest

import sa2net.tensor as T
from sa2net.blocks import (
    STAGES,
    adaptive_up_attention,
    aua_specs,
    conv_specs,
    global_scale_attention,
    gsa_specs,
    init_params,
    local_scale_attention,
    lsa_specs,
    mlp_block,
    mlp_specs,
    sa2_specs,
    scale_aware_attention,
)
from sa2net.errors import ConfigError, DimensionError
from sa2net.model import ModelConfig
from sa2net.tensor import Rng, Tensor

# float64 bias for which the pinned tanh-form GeLU evaluates to exactly 1.0
GELU_UNIT_BIAS = 1.1446303090227823


def make_store(specs, seed=0, dtype=T.F64):
    return init_params(specs, Rng(seed), dtype)


def table_count(specs):
    return sum(int(np.prod(shape)) for _, shape, _ in specs)


# closed-form parameter counts: an oracle independent of the tables


DEFAULT_KERNELS = (1, 3, 5, 7)


def local_scale_attention_param_count(c: int, kernels) -> int:
    gw = c // len(kernels)
    dw = sum(2 * (gw * k * k + gw) for k in kernels)
    fuse = c * c + c
    return dw + fuse


def scale_aware_attention_param_count(c: int, kernels) -> int:
    lsa = STAGES * local_scale_attention_param_count(c, kernels)
    gsa = (STAGES * c * STAGES + STAGES) + (STAGES * c * c + c)
    mlp = STAGES * (2 * c + (9 * c + c) + 2 * (c * c + c))
    out = STAGES * (c * c + c)
    return lsa + gsa + mlp + out


def rand(shape, seed=0):
    return Tensor(Rng(seed).normal(shape, dtype=T.F64))


def zero_(store, name):
    store[name].data[:] = 0.0


def fill_(store, name, value):
    store[name].data[:] = value


class TestLsaKernels:
    def test_defaults(self):
        assert ModelConfig().lsa_kernel_sizes == DEFAULT_KERNELS

    def test_divisibility_checked_at_construction(self):
        # the model's channel count must split evenly into one group per
        # kernel size
        with pytest.raises(ConfigError, match="divisible"):
            ModelConfig(channels=30)
        with pytest.raises(ConfigError, match="divisible"):
            ModelConfig(channels=0)
        assert ModelConfig(channels=12,
                           lsa_kernel_sizes=(1, 3, 5)).channels == 12

    def test_kernel_count_and_oddness(self):
        with pytest.raises(ConfigError, match="divisible by the 3 lsa.kernel"):
            ModelConfig(channels=8, lsa_kernel_sizes=(1, 3, 5))
        with pytest.raises(ConfigError, match="odd"):
            ModelConfig(channels=8, lsa_kernel_sizes=(1, 4))
        with pytest.raises(ConfigError, match="odd and positive"):
            ModelConfig(channels=8, lsa_kernel_sizes=(-1, 3))
        with pytest.raises(ConfigError, match="non-empty"):
            ModelConfig(channels=8, lsa_kernel_sizes=())


class TestLocalScaleAttention:
    KERNELS = (1, 3)

    def test_zero_input_gives_zero_output(self):
        store = make_store(lsa_specs("lsa", 8, self.KERNELS))
        x = Tensor(np.zeros((1, 8, 5, 5)))
        out = local_scale_attention(x, store, "lsa", self.KERNELS)
        npt.assert_array_equal(out.data, np.zeros_like(x.data))

    def test_saturated_gate_reduces_to_plain_path(self):
        store = make_store(lsa_specs("lsa", 8, self.KERNELS), seed=3)
        for gi in range(len(self.KERNELS)):
            zero_(store, f"lsa.g{gi}.gate.weight")
            fill_(store, f"lsa.g{gi}.gate.bias", 50.0)  # sigmoid == 1.0 exactly
        x = rand((1, 8, 6, 6), seed=4)
        out = local_scale_attention(x, store, "lsa", self.KERNELS)

        pieces = []
        for gi in range(len(self.KERNELS)):
            part = Tensor(x.data[:, gi * 4:(gi + 1) * 4])
            pieces.append(T.dwconv2d(part, store[f"lsa.g{gi}.feat.weight"],
                                     store[f"lsa.g{gi}.feat.bias"]))
        expected = T.conv2d(T.concat_c(pieces), store["lsa.fuse.weight"],
                            store["lsa.fuse.bias"])
        npt.assert_array_equal(out.data, expected.data)

    def test_gate_outputs_lie_in_unit_interval(self):
        store = make_store(lsa_specs("lsa", 4, (3,)), seed=9)
        x = rand((1, 4, 5, 5), seed=10)
        gate = T.sigmoid(T.dwconv2d(x, store["lsa.g0.gate.weight"],
                                    store["lsa.g0.gate.bias"]))
        assert np.all(gate.data > 0.0) and np.all(gate.data < 1.0)

    def test_spatial_size_preserved_and_channel_check(self):
        kernels = self.KERNELS
        store = make_store(lsa_specs("lsa", 8, kernels))
        out = local_scale_attention(rand((2, 8, 7, 9)), store, "lsa", kernels)
        assert out.shape == (2, 8, 7, 9)
        with pytest.raises(DimensionError, match="channel"):
            local_scale_attention(rand((1, 6, 4, 4)), store, "lsa", kernels)
        with pytest.raises(DimensionError, match="does not split into 2"):
            local_scale_attention(rand((1, 7, 4, 4)), store, "lsa", kernels)


class TestGlobalScaleAttention:
    def feats(self, seed=0, c=8, base=16):
        rng = Rng(seed)
        return [Tensor(rng.normal((1, c, base >> i, base >> i), dtype=T.F64))
                for i in range(4)]

    def force_unit_factors(self, store):
        zero_(store, "gsa.scale_weights.weight")
        fill_(store, "gsa.scale_weights.bias", 1.0)
        zero_(store, "gsa.global_feat.weight")
        fill_(store, "gsa.global_feat.bias", GELU_UNIT_BIAS)

    def test_unit_factors_reproduce_inputs_bitwise(self):
        store = make_store(gsa_specs("gsa", 8), seed=5)
        self.force_unit_factors(store)
        feats = self.feats(seed=6)
        out = global_scale_attention(feats, store, "gsa")
        for f, o in zip(feats, out):
            assert o.data.tobytes() == f.data.tobytes()

    def test_zeroed_stage_weight_annihilates_only_that_stage(self):
        store = make_store(gsa_specs("gsa", 8), seed=7)
        feats = self.feats(seed=8)
        baseline = global_scale_attention(feats, store, "gsa")

        store["gsa.scale_weights.weight"].data[1] = 0.0
        store["gsa.scale_weights.bias"].data[1] = 0.0
        modified = global_scale_attention(feats, store, "gsa")

        npt.assert_array_equal(modified[1].data, np.zeros_like(modified[1].data))
        for i in (0, 2, 3):
            assert modified[i].data.tobytes() == baseline[i].data.tobytes()


class TestMlpBlock:
    def test_zeroed_branch_is_identity(self):
        store = make_store(mlp_specs("mlp", 8), seed=11)
        zero_(store, "mlp.conv2.weight")
        zero_(store, "mlp.conv2.bias")
        x = rand((1, 8, 4, 4), seed=12)
        out = mlp_block(x, store, "mlp")
        assert out.data.tobytes() == x.data.tobytes()

    def test_branch_invariant_to_constant_shift(self):
        store = make_store(mlp_specs("mlp", 8), seed=13)
        x = rand((1, 8, 4, 4), seed=14)
        shifted = Tensor(x.data + 3.25)
        branch = mlp_block(x, store, "mlp").data - x.data
        branch_shifted = mlp_block(shifted, store, "mlp").data - shifted.data
        npt.assert_allclose(branch_shifted, branch, atol=1e-9)

    def test_shape_preserved(self):
        store = make_store(mlp_specs("mlp", 8))
        assert mlp_block(rand((2, 8, 3, 5)), store, "mlp").shape == (2, 8, 3, 5)


class TestScaleAwareAttention:
    KERNELS = (1, 3)

    def stage_feats(self, seed, n=1, c=8, base=32):
        rng = Rng(seed)
        return [Tensor(rng.normal((n, c, base >> i, base >> i), dtype=T.F64))
                for i in range(4)]

    def test_shape_contract(self):
        store = make_store(sa2_specs("sa2", 8, self.KERNELS), seed=15)
        feats = self.stage_feats(seed=16)
        outs = scale_aware_attention(feats, store, "sa2", self.KERNELS)
        assert [o.shape for o in outs] == [f.shape for f in feats]

    def test_identity_forcing_composes_to_doubled_projection(self):
        store = make_store(sa2_specs("sa2", 8, self.KERNELS), seed=17)
        # LSA -> identity: identity feature kernels, saturated gates,
        # identity fusion
        for s in range(1, 5):
            for gi, k in enumerate(self.KERNELS):
                w = store[f"sa2.lsa{s}.g{gi}.feat.weight"]
                w.data[:] = 0.0
                w.data[:, 0, (k - 1) // 2, (k - 1) // 2] = 1.0
                zero_(store, f"sa2.lsa{s}.g{gi}.feat.bias")
                zero_(store, f"sa2.lsa{s}.g{gi}.gate.weight")
                fill_(store, f"sa2.lsa{s}.g{gi}.gate.bias", 50.0)
            fuse = store[f"sa2.lsa{s}.fuse.weight"]
            fuse.data[:] = np.eye(8)[:, :, None, None]
            zero_(store, f"sa2.lsa{s}.fuse.bias")
        # cross-scale modulation -> unit factors
        zero_(store, "sa2.gsa.scale_weights.weight")
        fill_(store, "sa2.gsa.scale_weights.bias", 1.0)
        zero_(store, "sa2.gsa.global_feat.weight")
        fill_(store, "sa2.gsa.global_feat.bias", GELU_UNIT_BIAS)
        # MLP branch -> zero
        for s in range(1, 5):
            zero_(store, f"sa2.mlp{s}.conv2.weight")
            zero_(store, f"sa2.mlp{s}.conv2.bias")

        feats = self.stage_feats(seed=18)
        outs = scale_aware_attention(feats, store, "sa2", self.KERNELS)
        for s, (f, o) in enumerate(zip(feats, outs), start=1):
            doubled = Tensor(2.0 * f.data)
            expected = T.conv2d(doubled, store[f"sa2.out{s}.weight"],
                                store[f"sa2.out{s}.bias"])
            npt.assert_array_equal(o.data, expected.data)

    def test_parameter_count_matches_closed_form(self):
        for c, kernels in ((64, DEFAULT_KERNELS), (32, DEFAULT_KERNELS),
                           (12, (3, 3, 5))):
            for specs, expected in (
                    (sa2_specs("sa2", c, kernels),
                     scale_aware_attention_param_count(c, kernels)),
                    (lsa_specs("lsa", c, kernels),
                     local_scale_attention_param_count(c, kernels))):
                assert table_count(specs) == expected
                store = init_params(specs, Rng(0), T.F32)
                assert sum(t.size for _, t in store.items()) == expected

    def test_default_config_count_value(self):
        # the number published in the README
        kernels = ModelConfig().lsa_kernel_sizes
        assert scale_aware_attention_param_count(64, kernels) == 98372
        assert local_scale_attention_param_count(64, kernels) == 6976
        assert table_count(sa2_specs("sa2", 64, kernels)) == 98372
        assert table_count(lsa_specs("lsa", 64, kernels)) == 6976


class TestAdaptiveUpAttention:
    def make(self, seed, deepest=False):
        return make_store(aua_specs("aua", 8, deepest=deepest), seed=seed)

    def test_deepest_stage_is_plain_convblock(self):
        store = self.make(19, deepest=True)
        x = rand((1, 8, 4, 4), seed=20)
        out = adaptive_up_attention(x, None, store, "aua")
        expected = T.gelu(T.layernorm_c(
            T.conv2d(x, store["aua.fuse.weight"], store["aua.fuse.bias"],
                     stride=1, pad=1),
            store["aua.norm.gamma"], store["aua.norm.beta"]))
        npt.assert_array_equal(out.data, expected.data)

    def test_gate_saturated_low_blocks_current_stage(self):
        store = self.make(21)
        zero_(store, "aua.gate.weight")
        fill_(store, "aua.gate.bias", -50.0)
        current = rand((1, 8, 8, 8), seed=22)
        deeper = rand((1, 8, 4, 4), seed=23)
        base = adaptive_up_attention(current, deeper, store, "aua")
        nudged = Tensor(current.data + 0.5)
        moved = adaptive_up_attention(nudged, deeper, store, "aua")
        assert np.max(np.abs(moved.data - base.data)) < 1e-5

    def test_gate_saturated_high_passes_current_stage(self):
        store = self.make(24)
        zero_(store, "aua.gate.weight")
        fill_(store, "aua.gate.bias", 50.0)
        current = rand((1, 8, 8, 8), seed=25)
        deeper = rand((1, 8, 4, 4), seed=26)
        out = adaptive_up_attention(current, deeper, store, "aua")
        up = T.bilinear_resize(deeper, 8, 8)
        expected = T.gelu(T.layernorm_c(
            T.conv2d(T.concat_c([current, up]), store["aua.fuse.weight"],
                     store["aua.fuse.bias"], stride=1, pad=1),
            store["aua.norm.gamma"], store["aua.norm.beta"]))
        assert np.max(np.abs(out.data - expected.data)) < 1e-5

    def test_gate_conv_commutes_with_upsampling(self):
        # The gate's 1x1 conv runs before the upsampling; the paper's
        # order, upsample then conv, is the same function up to rounding.
        store = self.make(28)
        current, deeper = (Tensor(rand(shape, seed).data, requires_grad=True)
                           for shape, seed in (((2, 8, 8, 8), 29),
                                               ((2, 8, 4, 4), 30)))
        leaves = list(store.values()) + [current, deeper]

        def upsample_then_conv():
            up = T.bilinear_resize(deeper, 8, 8)
            gate = T.sigmoid(T.conv2d(up, store["aua.gate.weight"],
                                      store["aua.gate.bias"]))
            y = T.conv2d(T.concat_c([gate * current, up]),
                         store["aua.fuse.weight"], store["aua.fuse.bias"],
                         stride=1, pad=1)
            return T.gelu(T.layernorm_c(y, store["aua.norm.gamma"],
                                        store["aua.norm.beta"]))

        results = []
        for forward in (lambda: adaptive_up_attention(current, deeper, store,
                                                      "aua"),
                        upsample_then_conv):
            for t in leaves:
                t.zero_grad()
            out = forward()
            T.backward((out * out).sum())
            results.append([out.data] + [t.grad for t in leaves])
        for got, want in zip(*results):
            npt.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_wrong_resolution_ratio_rejected(self):
        store = self.make(27)
        with pytest.raises(DimensionError, match="ratio"):
            adaptive_up_attention(rand((1, 8, 8, 8)), rand((1, 8, 3, 3)),
                                  store, "aua")


class TestInit:
    def test_same_seed_bit_identical(self):
        a = make_store(sa2_specs("sa2", 8, (3, 5)), seed=33)
        b = make_store(sa2_specs("sa2", 8, (3, 5)), seed=33)
        assert list(a) == list(b)
        for name, t in a.items():
            assert t.data.tobytes() == b[name].data.tobytes()

    def test_layernorm_gains_exactly_one(self):
        store = make_store(mlp_specs("mlp", 16), seed=1)
        npt.assert_array_equal(store["mlp.norm.gamma"].data, np.ones(16))
        npt.assert_array_equal(store["mlp.norm.beta"].data, np.zeros(16))

    def test_he_normal_scale(self):
        store = init_params(conv_specs("probe", 64, 64, 3), Rng(77), T.F64)
        observed = store["probe.weight"].data.std()
        expected = np.sqrt(2.0 / 576.0)
        assert abs(observed - expected) / expected < 0.15

    def test_biases_zero(self):
        store = make_store(lsa_specs("lsa", 4, (3,)))
        npt.assert_array_equal(store["lsa.fuse.bias"].data, np.zeros(4))
