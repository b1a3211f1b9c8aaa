"""Cross-cutting edge-case tests for smaller API surfaces."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.util.yaml_dump import dumps

from repro.modis.constants import PRODUCTS, ProductSpec, resolve_product
from repro.sim import Simulation, Store
from repro.util.yamlish import YamlError


class TestStoreEdges:
    def test_cancel_get(self):
        sim = Simulation()
        store = Store(sim)
        request = store.get()
        assert store.cancel_get(request)
        assert not store.cancel_get(request)
        # A later put is not consumed by the cancelled getter.
        store.put("item")
        assert len(store) == 1


class TestYamlDumpEdges:
    def test_non_serializable_scalar(self):
        with pytest.raises(YamlError, match="cannot serialize"):
            dumps({"key": object()})

    def test_nested_empty_collections(self):
        from repro.util.yamlish import loads

        doc = {"a": {"b": []}, "c": [{}]}
        assert loads(dumps(doc)) == doc


class TestProductSizeModel:
    def test_known_products_registered(self):
        assert {"MOD021KM", "MYD021KM", "MOD03", "MYD03", "MOD06_L2", "MYD06_L2"} == set(PRODUCTS)

    def test_aqua_terra_same_size_model(self):
        assert PRODUCTS["MOD021KM"].mean_granule_bytes == PRODUCTS["MYD021KM"].mean_granule_bytes

    def test_resolve_aliases(self):
        assert resolve_product("MOD02").short_name == "MOD021KM"
        assert resolve_product("MYD06").short_name == "MYD06_L2"
        assert resolve_product("MOD021KM").short_name == "MOD021KM"

    @settings(max_examples=50, deadline=None)
    @given(u=st.floats(min_value=0.0, max_value=1.0))
    def test_granule_bytes_bounds_property(self, u):
        """Sizes stay positive and within the +/-CV spread of the mean."""
        spec = PRODUCTS["MOD021KM"]
        size = spec.granule_bytes(u)
        assert size >= 1
        spread = spec.mean_granule_bytes * spec.granule_bytes_cv
        assert abs(size - spec.mean_granule_bytes) <= spread + 1

    def test_mean_is_midpoint(self):
        spec = PRODUCTS["MOD03"]
        low = spec.granule_bytes(0.0)
        high = spec.granule_bytes(1.0)
        assert (low + high) / 2 == pytest.approx(spec.mean_granule_bytes, rel=1e-6)


class TestSimEdges:
    def test_run_until_with_empty_queue(self):
        sim = Simulation()
        sim.run(until=5.0)
        assert sim.now == 5.0  # idle time still advances the clock to `until`

    def test_peek(self):
        sim = Simulation()
        assert sim.peek() == float("inf")
        sim.timeout(3.0)
        assert sim.peek() == 3.0

    def test_stop_event_not_triggered_raises(self):
        from repro.sim import SimulationError

        sim = Simulation()
        stop = sim.event()
        sim.timeout(1.0)
        with pytest.raises(SimulationError, match="stop condition"):
            sim.run(stop=stop)
