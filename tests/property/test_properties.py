"""Property-based tests (hypothesis) on core invariants."""

from hypothesis import given, settings, strategies as st

import pytest

from repro.data.tokenizer import BPETokenizer
from repro.engine.efficiency import batch_efficiency, saturation
from repro.hardware.interconnect import LinkTechnology, get_link
from repro.jube.parameters import Parameter, ParameterSet, expand_parameter_space
from repro.power.model import PowerModel
from repro.power.trace import PowerTrace, UtilisationTimeline
from repro.simcluster.nccl import allreduce_time


# -- tokenizer: lossless round trip ------------------------------------------

_TRAINED = BPETokenizer()
_TRAINED.train("the quick brown fox jumps over the lazy dog " * 30, 300)


@given(st.text(max_size=300))
@settings(max_examples=150, deadline=None)
def test_tokenizer_round_trip_any_text(text):
    """encode/decode is the identity on arbitrary unicode text."""
    assert _TRAINED.decode(_TRAINED.encode(text)) == text


@given(st.text(min_size=1, max_size=200))
@settings(max_examples=100, deadline=None)
def test_tokenizer_never_expands_byte_count(text):
    """Token count never exceeds the UTF-8 byte count (merges only shrink)."""
    assert len(_TRAINED.encode(text)) <= len(text.encode("utf-8"))


# -- energy integration bounds -----------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=100.0),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=100, deadline=None)
def test_timeline_energy_bounded_by_extremes(segments):
    """min-power * T <= E <= max-power * T for any utilisation profile."""
    model = PowerModel(idle_watts=80, max_watts=350)
    tl = UtilisationTimeline()
    for duration, util in segments:
        tl.append(duration, util)
    energy = tl.exact_energy_j(model)
    total = tl.total_duration_s
    assert model.idle_watts * total - 1e-6 <= energy <= model.max_watts * total + 1e-6


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.5, max_value=20.0),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=1,
        max_size=8,
    ),
    st.floats(min_value=0.01, max_value=0.2),
)
@settings(max_examples=60, deadline=None)
def test_sampled_energy_close_to_exact(segments, interval):
    """jpwr-style sampling converges to the exact integral."""
    model = PowerModel(idle_watts=80, max_watts=350)
    tl = UtilisationTimeline()
    for duration, util in segments:
        tl.append(duration, util)
    trace = PowerTrace.from_timeline(tl, model, interval_s=interval)
    exact = tl.exact_energy_j(model)
    swing = model.max_watts - model.idle_watts
    bound = (len(segments) + 1) * interval * swing
    assert abs(trace.energy_j() - exact) <= bound + 1e-9


# -- parameter-space expansion cardinality -------------------------------------


@given(
    st.lists(
        st.integers(min_value=1, max_value=5),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=80, deadline=None)
def test_expansion_cardinality_is_product(value_counts):
    """|expansion| == product of per-parameter value counts."""
    pset = ParameterSet("s")
    expected = 1
    for i, n in enumerate(value_counts):
        pset.add(Parameter.make(f"p{i}", list(range(n))))
        expected *= n
    combos = expand_parameter_space([pset])
    assert len(combos) == expected
    # Combinations are unique.
    assert len({tuple(sorted(c.items())) for c in combos}) == expected


# -- collective cost monotonicity -----------------------------------------------


@given(
    st.floats(min_value=1e3, max_value=1e10),
    st.floats(min_value=1.0, max_value=100.0),
    st.integers(min_value=2, max_value=64),
)
@settings(max_examples=100, deadline=None)
def test_allreduce_monotone_in_size_and_bandwidth(base_bytes, factor, ranks):
    """Bigger messages cost more; faster links cost less."""
    fast = get_link(LinkTechnology.NVLINK4)
    slow = get_link(LinkTechnology.PCIE_GEN4)
    assert allreduce_time(base_bytes * factor, ranks, fast) >= allreduce_time(
        base_bytes, ranks, fast
    )
    assert allreduce_time(base_bytes, ranks, slow) >= allreduce_time(
        base_bytes, ranks, fast
    )


@given(
    st.floats(min_value=1e6, max_value=1e9),
    st.integers(min_value=2, max_value=32),
)
@settings(max_examples=80, deadline=None)
def test_allreduce_bounded_by_2x_volume(message_bytes, ranks):
    """Ring all-reduce never moves more than 2N per rank."""
    link = get_link(LinkTechnology.NVLINK4)
    t = allreduce_time(message_bytes, ranks, link, efficiency=1.0)
    upper = 2 * message_bytes / link.unidirectional_bandwidth + 2 * ranks * link.latency_s
    assert t <= upper + 1e-12


# -- power model and saturation -------------------------------------------------


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_power_model_monotone(u1, u2):
    """Power is monotone non-decreasing in utilisation."""
    model = PowerModel(idle_watts=60, max_watts=300, gamma=0.9)
    lo, hi = sorted((u1, u2))
    assert model.power(lo) <= model.power(hi) + 1e-12


@given(
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.001, max_value=1e4),
)
@settings(max_examples=100, deadline=None)
def test_saturation_monotone_and_bounded(w1, w2, half):
    """sat in [0,1) and monotone in work."""
    lo, hi = sorted((w1, w2))
    assert 0.0 <= saturation(lo, half) <= saturation(hi, half) < 1.0


@given(st.integers(min_value=1, max_value=8192))
@settings(max_examples=60, deadline=None)
def test_batch_efficiency_floor_respected(batch):
    """Efficiency never falls below its floor."""
    assert batch_efficiency(batch, 16.0, floor=0.08) >= 0.08


# -- memory accounting additivity --------------------------------------------------


@given(
    st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=10)
)
@settings(max_examples=80, deadline=None)
def test_memory_pool_additivity(sizes):
    """used_bytes equals the sum of all allocations."""
    from repro.hardware.memory import MemoryPool

    pool = MemoryPool(10**12, strict=False)
    for i, size in enumerate(sizes):
        pool.allocate(f"block{i}", size)
    assert pool.used_bytes == sum(sizes)


# -- OOM monotonicity ---------------------------------------------------------------


@given(st.integers(min_value=1, max_value=4096))
@settings(max_examples=40, deadline=None)
def test_cnn_oom_monotone_in_batch(batch):
    """If a batch fits, every smaller batch fits too."""
    from repro.engine.oom import check_cnn_memory
    from repro.hardware.systems import get_system
    from repro.models.resnet import get_cnn_preset

    node = get_system("A100")
    model = get_cnn_preset("resnet50")
    if check_cnn_memory(node, model, batch).fits and batch > 1:
        assert check_cnn_memory(node, model, batch // 2 or 1).fits


# -- substitution idempotence ----------------------------------------------------------


@given(
    st.dictionaries(
        st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True),
        st.from_regex(r"[A-Za-z0-9 _.-]{0,12}", fullmatch=True),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=80, deadline=None)
def test_substitution_idempotent_on_literal_values(values):
    """Substituting literal (reference-free) values is a fixpoint."""
    from repro.jube.parameters import substitute

    resolved = {name: substitute(value, values) for name, value in values.items()}
    again = {name: substitute(value, resolved) for name, value in resolved.items()}
    assert again == resolved
