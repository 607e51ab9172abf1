import numpy as np
import pytest

from inhernet.errors import DegenerateInputError, RangeError, ShapeError
from inhernet.inherit import InherConv2DLayer, inherit_dense, inherit_layer, inherit_network
from inhernet.io import SyntheticTask
from inhernet.linalg import frobenius_norm, truncated_svd
from inhernet.nn import Conv2DLayer, DenseLayer, Network, ReluLayer
from inhernet.rng import philox
from inhernet.theory import (LayerInfluence, analyze_network,
                             compression_ratio_paper, eckart_young_error,
                             output_cosine_similarity, preservation_bound,
                             rank_for_energy, spectral_energy)
from inhernet.train import TrainConfig
from inhernet.verify import inherit_by_energy
from inhernet.experiments import head_marginal_gains, spectral_mlp


class TestCompressionRatio:
    def test_hand_arithmetic(self):
        assert compression_ratio_paper(100, 100, 5, 3) == 10000 / 3018

    def test_expansion_case(self):
        assert compression_ratio_paper(4, 4, 4, 1) == 16 / 37

    def test_asymptotic_limit(self):
        assert compression_ratio_paper(1000, 1000, 1, 1) == 10**6 / 2002

    def test_positive_inputs_required(self):
        with pytest.raises(RangeError):
            compression_ratio_paper(0, 5, 1, 1)


class TestParamCount:
    def test_code_gating_no_bias(self):
        layer = inherit_dense(philox(1, 0).standard_normal((100, 100)), 5, 3)
        assert layer.param_count() == 2018

    def test_no_gate_two_factor_count(self):
        layer = inherit_layer(DenseLayer(philox(2, 0).standard_normal((20, 12))), 4, 1, "no-gate")
        assert layer.param_count() == 20 * 4 + 4 * 12

    def test_input_gating_count(self):
        layer = inherit_dense(philox(3, 0).standard_normal((10, 8)), 3, 2,
                              gate_input="input")
        assert layer.param_count() == 10 * 3 + 2 * 3 * 8 + 10 * 2 + 2

    def test_shared_down_differs_from_formula_denominator(self):
        # the closed-form denominator charges a down-projection per head
        m, n, r = 30, 20, 4
        for h in (2, 3, 5):
            layer = inherit_dense(philox(4, 0).standard_normal((m, n)), r, h)
            formula = h * r * (m + n) + h * (r + 1)
            assert layer.param_count() < formula
        one = inherit_dense(philox(4, 0).standard_normal((m, n)), r, 1)
        assert one.param_count() == 1 * r * (m + n) + 1 * (r + 1)

    def test_compression_condition_inequality(self):
        m, n, r, h = 40, 30, 3, 2
        layer = inherit_dense(philox(5, 0).standard_normal((m, n)), r, h)
        gate = r * h + h
        assert (layer.param_count() < m * n) == \
            (r * (m + h * n) + gate < m * n)


class TestSpectralEnergy:
    def test_hand_ratio(self):
        assert abs(spectral_energy([3.0, 2.0, 1.0], 2) - 13 / 14) < 1e-15

    def test_rank_for_energy_hand_case(self):
        assert rank_for_energy([3.0, 2.0, 1.0], 0.1) == 2

    def test_loose_bound_gives_rank_one(self):
        assert rank_for_energy([1.0, 1.0], 0.6) == 1

    def test_zero_spectrum_rejected(self):
        with pytest.raises(DegenerateInputError):
            spectral_energy([0.0, 0.0], 1)

    def test_epsilon_range(self):
        with pytest.raises(RangeError):
            rank_for_energy([2.0, 1.0], 1.5)

    def test_chain_identity_on_random_spectra(self):
        gen = philox(6, 0)
        for _ in range(100):
            k = int(gen.integers(2, 25))
            s = np.sort(np.abs(gen.standard_normal(k)))[::-1] + 1e-9
            eps = float(gen.uniform(0.01, 0.9))
            r = rank_for_energy(s, eps)
            err = eckart_young_error(s, r)
            total = float(np.sum(s * s))
            tail = total - float(np.sum(s[:r] ** 2))
            assert err * err <= eps * total + 1e-12 * total
            assert abs(err * err - tail) <= 1e-12 * total


class TestEckartYoungError:
    def test_full_rank_zero(self):
        assert eckart_young_error([3.0, 2.0, 1.0], 3) == 0.0

    def test_hand_value(self):
        assert abs(eckart_young_error([3.0, 2.0, 1.0], 1) - np.sqrt(5)) < 1e-15

    def test_matches_reconstruction_error(self):
        gen = philox(7, 0)
        w = gen.standard_normal((10, 7))
        f = truncated_svd(w, 3)
        direct = frobenius_norm(w - f.reconstruct())
        assert abs(eckart_young_error(f.full_spectrum, 3) - direct) < 1e-8


class TestPreservationBound:
    def test_full_rank_is_one(self):
        s = [np.array([3.0, 2.0, 1.0]), np.array([5.0, 1.0])]
        assert preservation_bound(LayerInfluence.uniform(2), s, [3, 2]) == 1.0

    def test_single_layer_hand_value(self):
        b = preservation_bound(LayerInfluence.normalized([1.0]),
                               [np.array([3.0, 2.0, 1.0])], [2])
        assert abs(b - (1 - 1 / 14)) < 1e-15

    def test_monotone_in_rank(self):
        gen = philox(8, 0)
        for _ in range(20):
            s = np.sort(np.abs(gen.standard_normal(6)))[::-1] + 1e-6
            vals = [preservation_bound(LayerInfluence.uniform(1), [s], [r])
                    for r in range(1, 7)]
            assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
            assert vals[-1] == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            preservation_bound(LayerInfluence.uniform(2),
                               [np.array([1.0])], [1])

    def test_influence_normalization(self):
        inf = LayerInfluence.normalized([2.0, 6.0])
        assert abs(sum(inf.alpha) - 1.0) < 1e-12
        assert inf.alpha == (0.25, 0.75)


class TestAnalyzeNetwork:
    def test_report_fields_and_json(self):
        teacher = spectral_mlp([10, 16, 4], seed=3, decay=0.6)
        from inhernet.inherit import inherit_network
        student = inherit_network(teacher, r=4, h=2, cap_rank=True)
        report = analyze_network(teacher, student)
        assert 0.0 <= report.spectral_energy_ratio <= 1.0
        assert report.preservation_lower_bound <= 1.0
        assert report.rho_paper > 0 and report.rho_actual > 0
        assert report.param_count_teacher == teacher.param_count()
        assert report.param_count_actual == student.param_count()
        import json
        payload = json.loads(report.to_json())
        for key in ("rho_paper", "param_count_actual", "param_count_teacher",
                    "rho_actual", "spectral_energy_ratio", "eckart_young_error",
                    "epsilon", "kappa", "preservation_lower_bound",
                    "per_layer_breakdown"):
            assert key in payload

    def test_cosine_diagnostic_of_identical_nets(self):
        teacher = spectral_mlp([6, 8, 3], seed=4)
        x = philox(9, 0).standard_normal((40, 6))
        assert abs(output_cosine_similarity(teacher, teacher, x) - 1.0) < 1e-12


def conv_teacher(seed: int) -> Network:
    gen = philox(seed, 0)
    return Network([Conv2DLayer(gen.standard_normal((6, 2, 3, 3)), padding=1,
                                bias=gen.standard_normal(6)),
                    ReluLayer(),
                    Conv2DLayer(gen.standard_normal((4, 6, 3, 3)), stride=2, padding=1)])


class TestConvTeacher:
    def test_one_breakdown_row_per_conv_layer(self):
        teacher = conv_teacher(51)
        report = analyze_network(teacher, inherit_network(teacher, r=3, h=2))
        rows = report.per_layer_breakdown
        assert [(e["layer"], e["m"], e["n"], e["r"]) for e in rows] == [(0, 6, 18, 3),
                                                                       (2, 4, 54, 3)]
        for e, i in zip(rows, (0, 2)):
            s = np.linalg.svd(teacher.layers[i].params["kernel"].reshape(e["m"], -1),
                              compute_uv=False)
            assert abs(e["energy_ratio"] - np.sum(s[:3] ** 2) / np.sum(s ** 2)) < 1e-12
            assert np.isfinite(e["kappa_down"]) and e["kappa_down"] >= 1.0
        assert report.param_count_teacher == teacher.param_count()

    def test_energy_ranked_inheritance_keeps_conv_layers(self):
        teacher = conv_teacher(52)
        student = inherit_by_energy(teacher, epsilon=1e-6)
        assert [type(l) for l in student.layers] == [InherConv2DLayer, ReluLayer,
                                                     InherConv2DLayer]
        x = philox(53, 0).standard_normal((5, 2, 9, 9))
        assert float(np.mean((student.forward(x) - teacher.forward(x)) ** 2)) <= 1e-4


class TestUniversalityProxy:
    def test_three_teachers_compressed_and_faithful(self):
        for i, dims in enumerate(([24, 64, 64, 8], [16, 48, 48, 6],
                                  [32, 80, 80, 10])):
            teacher = spectral_mlp(dims, seed=40 + i, decay=0.55)
            student = inherit_by_energy(teacher, epsilon=1e-6)
            x = philox(50 + i, 0).standard_normal((300, dims[0]))
            mse = float(np.mean((student.forward(x) - teacher.forward(x)) ** 2))
            assert mse <= 1e-4
            assert student.param_count() < teacher.param_count()


class TestHeadMarginalGains:
    def test_linear_task_all_head_counts_tie(self):
        # globally linear target: one expert suffices, extra heads tie
        w = philox(10, 0).standard_normal((6, 3))
        task = SyntheticTask(kind="piecewise", seed=30, n=400, dim=6,
                             classes=1, out_dim=3, separation=0.3, map_rank=2)
        config = TrainConfig(base_lr=0.02, epochs=150, batch_size=32, seed=0,
                             schedule="constant", loss="mse")
        report = head_marginal_gains(w, 2, 3, task, config, seeds=2)
        med = report.median_errors
        # the rank-2 realizable target leaves no room for specialization:
        # every head count reaches the same near-zero floor
        assert max(med) < 0.02
        assert max(med) - min(med) < 0.01

    def test_two_cluster_task_benefits_from_second_head(self):
        w = philox(99, 3).standard_normal((8, 4))
        task = SyntheticTask(kind="piecewise", seed=500, n=1000, dim=8,
                             classes=2, out_dim=4, separation=2.5, map_rank=1)
        config = TrainConfig(base_lr=0.02, epochs=200, batch_size=32, seed=0,
                             schedule="constant", loss="mse")
        report = head_marginal_gains(w, 2, 4, task, config, seeds=5)
        wins = sum(errs[1] < errs[0] for errs in report.errors_by_seed)
        assert wins >= 4
        trend = sum((errs[2] - errs[3]) <= (errs[0] - errs[1])
                    for errs in report.errors_by_seed)
        assert trend >= 4
