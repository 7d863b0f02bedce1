"""Property-based tests over the engines and analysis extensions."""

from hypothesis import given, settings, strategies as st

import pytest

from repro.engine.inference import InferenceEngine, InferenceWorkload
from repro.engine.perf import CNNStepModel, LLMStepModel
from repro.hardware.systems import get_system
from repro.models.lossmodel import GPT_LOSS
from repro.models.parallelism import ParallelLayout, pipeline_bubble_fraction
from repro.models.resnet import get_cnn_preset
from repro.models.transformer import get_gpt_preset

_GPT = get_gpt_preset("800M")
_CNN = get_cnn_preset("resnet50")
_GPU_TAGS = ("A100", "H100", "WAIH100", "GH200", "JEDI", "MI250")


# -- LLM step model ----------------------------------------------------------


@given(
    st.sampled_from(_GPU_TAGS),
    st.integers(min_value=1, max_value=64),
)
@settings(max_examples=60, deadline=None)
def test_llm_step_time_positive_and_finite(tag, accumulation):
    """Every divisible configuration yields a positive finite step."""
    model = LLMStepModel(get_system(tag), _GPT, ParallelLayout(dp=1))
    gbs = 4 * accumulation
    step = model.step(gbs)
    assert 0 < step.total_s < 1e6
    assert 0 <= step.utilisation <= 1


@given(st.integers(min_value=1, max_value=8))
@settings(max_examples=30, deadline=None)
def test_llm_throughput_weakly_monotone_in_batch(k):
    """Doubling the global batch never reduces tokens/s."""
    model = LLMStepModel(get_system("A100"), _GPT, ParallelLayout(dp=4))
    gbs = 16 * k
    assert model.tokens_per_second(2 * gbs) >= model.tokens_per_second(gbs) - 1e-9


@given(st.integers(min_value=2, max_value=16), st.integers(min_value=1, max_value=512))
@settings(max_examples=80, deadline=None)
def test_pipeline_bubble_in_unit_interval(pp, m):
    """Bubble fraction is a proper fraction and decays in m."""
    frac = pipeline_bubble_fraction(pp, m)
    assert 0 < frac < 1
    assert pipeline_bubble_fraction(pp, m + 1) < frac


# -- CNN step model -------------------------------------------------------------


@given(
    st.sampled_from(_GPU_TAGS),
    st.integers(min_value=1, max_value=2048),
)
@settings(max_examples=60, deadline=None)
def test_cnn_rate_positive_and_below_absurd(tag, batch):
    """images/s is positive and below a physical upper bound."""
    model = CNNStepModel(get_system(tag), _CNN, devices=1)
    rate = model.images_per_second(batch)
    # Even at peak, one device cannot exceed peak_flops / train_flops.
    bound = get_system(tag).device_peak_flops / _CNN.flops_per_image_train
    assert 0 < rate < bound


# -- inference roofline ------------------------------------------------------------


@given(st.integers(min_value=1, max_value=512))
@settings(max_examples=60, deadline=None)
def test_decode_step_time_weakly_monotone_in_batch(batch):
    """A bigger decode batch never makes the step faster."""
    engine = InferenceEngine(get_system("H100"), _GPT)
    assert engine.decode_step_time_s(batch + 1) >= engine.decode_step_time_s(batch)


@given(st.integers(min_value=1, max_value=512))
@settings(max_examples=60, deadline=None)
def test_decode_throughput_monotone_in_batch(batch):
    """Aggregate decode tokens/s never drops with batching."""
    engine = InferenceEngine(get_system("GH200"), _GPT)
    assert (
        (batch + 1) / engine.decode_step_time_s(batch + 1)
        >= batch / engine.decode_step_time_s(batch) - 1e-9
    )


@given(
    st.integers(min_value=1, max_value=2048),
    st.integers(min_value=1, max_value=2048),
)
@settings(max_examples=60, deadline=None)
def test_kv_cache_additive_in_context(prompt, generate):
    """KV bytes scale exactly with total context length."""
    engine = InferenceEngine(get_system("GH200"), _GPT)
    w = InferenceWorkload(prompt_tokens=prompt, generate_tokens=generate)
    per_token = _GPT.kv_cache_bytes_per_token()
    assert engine.kv_cache_bytes(w) == pytest.approx((prompt + generate) * per_token)


# -- loss model ---------------------------------------------------------------------


@given(
    st.floats(min_value=0, max_value=1e15),
    st.floats(min_value=0, max_value=1e15),
    st.integers(min_value=1, max_value=2**20),
)
@settings(max_examples=80, deadline=None)
def test_loss_monotone_and_above_floor(w1, w2, batch):
    """Loss never increases with work and never crosses the floor."""
    lo, hi = sorted((w1, w2))
    assert GPT_LOSS.loss(hi, batch) <= GPT_LOSS.loss(lo, batch) + 1e-12
    assert GPT_LOSS.loss(hi, batch) > GPT_LOSS.floor


# -- scaling curves --------------------------------------------------------------------


@given(st.sampled_from(("JEDI", "WAIH100", "A100", "MI250")))
@settings(max_examples=12, deadline=None)
def test_weak_scaling_efficiency_bounds(tag):
    """Weak scaling efficiency lies in (0, 1] and starts at 1."""
    from repro.analysis.scaling import weak_scaling

    points = weak_scaling(tag)
    assert points[0].efficiency == pytest.approx(1.0)
    for p in points:
        assert 0 < p.efficiency <= 1.0 + 1e-9
