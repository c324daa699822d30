import pytest
from hypothesis import HealthCheck, settings

from giomhash.mcc import MccParams, SynthParams, synth_dataset

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


# dense geometry: most minutiae have neighbors, so cylinders are informative
DENSE_SYNTH = dict(
    minutiae_range=(15, 22),
    jitter_pos=4.0,
    jitter_theta=0.08,
    drop_rate=0.1,
    field_size=300.0,
)


@pytest.fixture
def pack_calls(monkeypatch):
    """The template counts of every pack evaluation.score_pairs makes, in call order."""
    import giomhash.evaluation as evaluation

    calls = []
    original = evaluation.pack_templates

    def counting(templates):
        packed = original(templates)
        calls.append(len(packed.sizes))
        return packed

    monkeypatch.setattr(evaluation, "pack_templates", counting)
    return calls


@pytest.fixture(scope="session")
def small_mcc():
    return MccParams(radius=100.0, ns=6, nd=4)


@pytest.fixture(scope="session")
def small_dataset():
    params = SynthParams(fingers=5, samples_per_finger=3, **DENSE_SYNTH)
    return synth_dataset(424, params)
