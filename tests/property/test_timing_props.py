"""Property-based tests for the timing model.

Two layers: pure properties of :class:`TimingAnalysis` over arbitrary
delay profiles (criticality bounds, ordering is a permutation), and
end-to-end properties of :func:`analyze_route_timing` over routed
random layouts (delay bounds against the routed trees).
"""

import math

from hypothesis import example, given, settings, strategies as st

from repro.core.router import GlobalRouter
from repro.core.timing import (
    NetTiming,
    TimingAnalysis,
    analyze_route_timing,
    net_delay,
)
from repro.layout.generators import LayoutSpec
from tests.property.conftest import generate

delays = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def analyses(draw):
    """A TimingAnalysis over an arbitrary non-negative delay profile."""
    profile = draw(
        st.dictionaries(
            st.text(
                alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
                min_size=1,
                max_size=6,
            ),
            delays,
            max_size=12,
        )
    )
    worst = max(profile.values(), default=0.0)
    nets = {
        name: NetTiming(
            net_name=name,
            delay=delay,
            criticality=min(1.0, max(0.0, delay / worst)) if worst > 0 else 0.0,
            slack=worst - delay,
        )
        for name, delay in profile.items()
    }
    return TimingAnalysis(nets=nets, worst_delay=worst, target=worst)


class TestAnalysisProperties:
    @given(analyses())
    @settings(max_examples=200)
    def test_criticality_stays_in_unit_interval(self, analysis):
        for name in analysis.nets:
            assert 0.0 <= analysis.criticality(name) <= 1.0
        assert analysis.criticality("never-a-net") == 0.0

    @given(analyses(), st.randoms())
    @settings(max_examples=200)
    def test_ordering_is_a_descending_permutation(self, analysis, rng):
        names = list(analysis.nets)
        rng.shuffle(names)
        ordered = analysis.order_by_criticality(names)
        assert sorted(ordered) == sorted(names)  # permutation, nothing lost
        crits = [analysis.criticality(name) for name in ordered]
        assert all(a >= b for a, b in zip(crits, crits[1:]))

    @given(analyses())
    @settings(max_examples=200)
    def test_ordering_breaks_ties_by_name(self, analysis):
        ordered = analysis.order_by_criticality(analysis.nets)
        for a, b in zip(ordered, ordered[1:]):
            ca, cb = analysis.criticality(a), analysis.criticality(b)
            assert ca > cb or (ca == cb and a < b)

    @given(analyses())
    @settings(max_examples=200)
    def test_round_trips_through_dict(self, analysis):
        clone = TimingAnalysis.from_dict(analysis.as_dict())
        assert clone.nets == analysis.nets
        assert clone.worst_delay == analysis.worst_delay


class TestRoutedLayoutProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n_nets=st.integers(min_value=1, max_value=8),
        load_factor=st.floats(min_value=0.0, max_value=2.0),
    )
    # Pinned: the old bound, `(1 + load_factor) * total` plus one ulp,
    # sat below the model's own grouping on this draw.
    @example(seed=31, n_nets=2, load_factor=1.0669681859261353)
    @settings(max_examples=15, deadline=None)
    def test_analysis_of_routed_layout(self, seed, n_nets, load_factor):
        layout = generate(LayoutSpec(n_cells=6, n_nets=n_nets, terminals_per_net=(2, 3)), seed)
        route = GlobalRouter(layout).route_all(on_unroutable="skip")
        analysis = analyze_route_timing(route, layout, load_factor=load_factor)

        assert set(analysis.nets) == set(route.trees)
        for net in layout.nets:
            tree = route.trees.get(net.name)
            if tree is None:
                continue
            timing = analysis.nets[net.name]
            # Delay is along-tree: bounded below by zero wire and above
            # by walking the whole tree, plus the loading term exactly.
            assert 0.0 <= timing.criticality <= 1.0
            total = tree.total_length
            assert timing.delay >= load_factor * total
            # The bound uses the model's own grouping, `longest +
            # load_factor * total` with `longest <= total`, so it holds
            # exactly: rounding is monotone, and regrouping the sum as
            # `(1 + load_factor) * total` can round below it by more
            # than one ulp.
            assert timing.delay <= total + load_factor * total
            assert timing.delay == net_delay(
                tree, net, load_factor=load_factor
            )
            assert math.isclose(
                timing.slack, analysis.target - timing.delay, abs_tol=1e-9
            )
        if analysis.nets and analysis.worst_delay > 0:
            assert analysis.criticality(analysis.worst_net) == 1.0
