"""Oracle: ``family_member``'s ``getrandbits`` draws give the members the
``random.Random`` methods drew (:mod:`tests.workload.reference_family`).

Hypothesis draws the family parameters, degenerate ranges such as
``task_count=(n, n)`` and one-element choice lists included, and every
member of the family must encode to the same canonical spec JSON on both
sides.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.spec import KERNELS, SpecError
from repro.obs.bus import canonical_json
from repro.workload.families import FamilySpec, expand_family, family_member
from repro.workload.tasks import ARRIVAL_LAWS
from tests.workload.reference_family import reference_member


def int_range(low, high):
    """An inclusive ``(lo, hi)`` range inside ``[low, high]``, lo == hi
    included."""
    return st.tuples(st.integers(low, high), st.integers(0, 4)).map(
        lambda drawn: (drawn[0], drawn[0] + drawn[1]))


def choices(elements):
    return st.lists(st.sampled_from(elements), min_size=1, max_size=4,
                    unique=True).map(tuple)


rate = st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)
utilization = st.tuples(st.floats(0.01, 0.98), st.floats(0.0, 0.01)).map(
    lambda drawn: (drawn[0], drawn[0] + drawn[1]))

families = st.builds(
    FamilySpec,
    name=st.text("abcxyz-", min_size=1, max_size=8),
    count=st.integers(1, 12),
    seed=st.integers(-2**40, 2**40),
    kernels=choices(KERNELS),
    duration_ms=st.sampled_from((10.0, 40.0)),
    task_count=int_range(1, 6),
    jobs=int_range(1, 5),
    period_choices_ms=st.lists(
        st.sampled_from((1.0, 2.5, 5.0, 10.0, 20.0, 40.0, 100.0)),
        min_size=1, max_size=5).map(tuple),
    utilization=utilization,
    laws=choices(ARRIVAL_LAWS),
    service_rate=rate,
    cyclic_rate=rate,
    rtc_rate=rate,
)


def spec_text(spec):
    return canonical_json(spec.to_dict())


@settings(max_examples=150, deadline=None)
@given(families)
def test_members_match_the_random_method_draws(family):
    family.validate()
    for index in range(family.count):
        assert spec_text(family_member(family, index)) == \
            spec_text(reference_member(family, index))


def test_the_benchmark_family_is_unchanged():
    """One digest over 4 seeds x 2 kernel sets of the 384-member mixed
    family that ``perfbench`` sweeps."""
    new, old = hashlib.sha256(), hashlib.sha256()
    for seed in (1, 2, 3, 4):
        for kernels in (("tkernel",), ("tkernel", "rtkspec1", "rtkspec2")):
            family = FamilySpec(name="bench-mixed", count=384, seed=seed,
                                kernels=kernels, duration_ms=40.0,
                                rtc_rate=0.25).validate()
            for index, spec in enumerate(expand_family(family)):
                new.update(spec_text(spec).encode("utf-8"))
                old.update(spec_text(reference_member(family, index))
                           .encode("utf-8"))
    assert new.hexdigest() == old.hexdigest()


def test_an_empty_range_is_refused_not_drawn_forever():
    family = FamilySpec(name="bad", count=1, task_count=(3, 2))
    with pytest.raises(SpecError, match="empty choice or range"):
        family_member(family, 0)
