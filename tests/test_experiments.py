import numpy as np
import pytest

from inhernet import experiments
from inhernet.errors import RangeError
from inhernet.inherit import inherit_conv, inherit_dense, inherit_layer
from inhernet.nn import DenseLayer, Network
from inhernet.rng import philox


class TestJobMap:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Worker counts of the pools ``_map_jobs`` opens."""
        opened = []

        class Pool(experiments.ProcessPoolExecutor):
            def __init__(self, workers, **kw):
                opened.append(workers)
                super().__init__(workers, **kw)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", Pool)
        return opened

    def test_process_pool_returns_the_serial_results_in_job_order(self, monkeypatch, pools):
        jobs = [-3, 1, -4, 1, -5, 9, -2, 6]
        monkeypatch.setattr(experiments, "_cpus", lambda: 2)
        assert experiments._map_jobs(abs, jobs) == [abs(j) for j in jobs]
        assert experiments._map_jobs(abs, [-7]) == [7]
        assert pools == [2]

    def test_one_cpu_runs_in_process(self, monkeypatch, pools):
        monkeypatch.setattr(experiments, "_cpus", lambda: 1)
        assert experiments._map_jobs(abs, [-1, -2]) == [1, 2]
        assert pools == []

    @pytest.mark.parametrize("sweep", [lambda: experiments.run_insight3(seeds=2)],
                             ids=["insight3"])
    def test_sweeps_are_identical_on_one_and_two_cpus(self, monkeypatch, pools, sweep):
        results = []
        for cpus in (1, 2):
            monkeypatch.setattr(experiments, "_cpus", lambda: cpus)
            results.append(sweep())
        assert pools == [2]
        assert results[0] == results[1]


class TestPerturbHeads:
    @pytest.mark.parametrize("variant,factors,biases", [
        ("standard", ["head_{}"], ["head_bias_{}"]),
        ("inverse", ["down_{}"], ["bias"]),
        ("symmetric", ["down_{}", "up_{}"], ["bias"])])
    def test_every_per_head_factor_moves_and_no_bias(self, variant, factors, biases):
        gen = philox(70, 0)
        layer = inherit_layer(DenseLayer(gen.standard_normal((6, 5)), gen.standard_normal(5)),
                              3, 3, variant)
        before = {k: v.copy() for k, v in layer.params.items()}
        experiments.perturb_heads(Network([layer]), seed=1)
        heads = 2 if variant == "symmetric" else 3
        for name in factors:
            moved = [layer.params[name.format(h)] for h in range(heads)]
            assert all(not np.array_equal(a, b) for a, b in zip(moved, moved[1:]))
        for name in biases:
            for key in {name.format(h) for h in range(heads)}:
                assert np.array_equal(layer.params[key], before[key])

    def test_standard_layers_keep_their_jitter_stream(self):
        """Every head of each layer in turn draws from the one ``philox(5, 7)``
        stream; the gate and every other block stay as built."""
        gen = philox(71, 0)
        layers = [inherit_dense(gen.standard_normal((6, 5)), 2, 3, bias=gen.standard_normal(5)),
                  inherit_conv(gen.standard_normal((4, 2, 3, 3)), 2, 3)]
        want = [{k: v.copy() for k, v in layer.params.items()} for layer in layers]
        ref = philox(5, 7)    # the head-by-head draws of the dense-and-conv-only jitter
        for params in want:
            for h in range(3):
                p = params[f"head_{h}"]
                p += experiments.HEAD_JITTER * np.linalg.norm(p) / np.sqrt(p.size) * \
                    ref.standard_normal(p.shape)
        experiments.perturb_heads(Network(layers), seed=5)
        for layer, params in zip(layers, want):
            assert {"gate_weight", "gate_bias"} < set(params)
            for key, value in params.items():
                assert np.array_equal(layer.params[key], value), key


class TestRunInsight:
    def test_unknown_insight_is_a_range_error(self):
        with pytest.raises(RangeError, match="unknown insight 4"):
            experiments.run_insight(4, seeds=1)


class TestSeedCount:
    @pytest.mark.parametrize("run", [
        experiments.run_insight1, experiments.run_insight2, experiments.run_insight3],
        ids=["insight1", "insight2", "insight3"])
    @pytest.mark.parametrize("seeds", [0, -2])
    def test_fewer_than_one_seed_is_rejected(self, run, seeds):
        with pytest.raises(RangeError, match="seeds"):
            run(seeds=seeds)
