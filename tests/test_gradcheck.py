"""The gradcheck registry reaches its targets through their modules."""

import pytest

import sa2net.blocks
import sa2net.losses
import sa2net.model
from sa2net.gradcheck import run_suite

# (module, function, a check that must call it)
TARGETS = [
    (sa2net.model, "model_forward", "full_model"),
    (sa2net.model, "encoder_forward", "encoder_stage"),
    (sa2net.losses, "total_loss", "full_model"),
    (sa2net.losses, "weighted_bce", "weighted_bce"),
    (sa2net.losses, "weighted_iou_loss", "weighted_iou"),
    (sa2net.blocks, "local_scale_attention", "local_scale_attention"),
    (sa2net.blocks, "global_scale_attention", "global_scale_attention"),
    (sa2net.blocks, "mlp_block", "mlp_block"),
    (sa2net.blocks, "adaptive_up_attention", "adaptive_up_attention"),
]


@pytest.mark.parametrize("module, name, check", TARGETS,
                         ids=[name for _, name, _ in TARGETS])
def test_check_calls_target_through_its_module(monkeypatch, module, name,
                                               check):
    # a wrapper set on the module attribute, as the benchmark's span
    # recorder sets one, must see the registry's calls
    calls = []
    real = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    run_suite([check], seeds=1)
    assert calls
