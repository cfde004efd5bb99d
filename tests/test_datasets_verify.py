import json
from importlib import resources

import numpy as np
import pytest

import signednet as sn
from signednet import datasets
from signednet.cli import main
from signednet.errors import EdgeListParseError
from signednet.dynamics import StationaryKind, StationaryPrediction
from signednet.verify import (
    CRITERIA,
    SUITES,
    CriterionResult,
    criterion_highland_tribes,
    cycle_sign_oracle,
    enumerate_simple_cycles,
    random_connected_corpus,
    run_suite,
)


class TestHighlandTribes:
    def test_structure(self):
        G = datasets.highland_tribes()
        assert G.n == 16
        assert G.labels is not None and len(set(G.labels)) == 16
        assert all(abs(w) == pytest.approx(0.1) for _, _, w in G.edges)
        assert sn.classify(G).verdict is sn.Verdict.STRICTLY_UNBALANCED

    def test_closer_to_balanced_than_antibalanced(self):
        m = sn.balance_measures(datasets.highland_tribes())
        assert 0 < m.d_b < m.d_a

    def test_measures_independent_of_weight_magnitude(self):
        G = datasets.highland_tribes()
        m = sn.balance_measures(G)
        scaled = sn.balance_measures(G.with_weights([10 * e.w for e in G.edges]))
        assert scaled.d_b == pytest.approx(m.d_b, abs=1e-12)
        assert scaled.d_a == pytest.approx(m.d_a, abs=1e-12)

    def test_env_override(self, tmp_path, monkeypatch):
        alt = tmp_path / "alt.edges"
        alt.write_text("0 1 1.0\n1 2 1.0\n0 2 1.0\n")
        monkeypatch.setenv(datasets.TRIBES_PATH_ENV, str(alt))
        assert datasets.highland_tribes().n == 3

    def test_env_override_is_read_as_an_edge_list_file(self, tmp_path, monkeypatch):
        alt = tmp_path / "alt.edges"
        alt.write_bytes(b"0 1 1.0\n\xff 2 1.0\n")
        monkeypatch.setenv(datasets.TRIBES_PATH_ENV, str(alt))
        with pytest.raises(EdgeListParseError, match="line 2: byte 0xff is not UTF-8 text"):
            datasets.highland_tribes()

    def test_published_comparison_fails_a_supplied_reconstruction(self, tmp_path, monkeypatch, capsys):
        # a supplied file counts as a published coding, so the bundled
        # reconstruction passed in as one must miss the published values
        copy = tmp_path / "tribes.edges"
        copy.write_text(resources.files("signednet").joinpath("data/highland_tribes.edges").read_text())
        monkeypatch.setenv(datasets.TRIBES_PATH_ENV, str(copy))
        result = criterion_highland_tribes()
        assert not result.passed
        assert "disagrees with the published values" in result.detail
        assert main(["verify", "spectra"]) == 3
        assert "FAIL 5-highland-tribes: d_b=0.1575 (published 0.155), d_a=0.6126 (published 0.529)" \
            in capsys.readouterr().out

    def test_bundled_reconstruction_skips_published_comparison(self, monkeypatch, capsys):
        monkeypatch.delenv(datasets.TRIBES_PATH_ENV, raising=False)
        assert main(["verify", "spectra"]) == 0
        line = next(x for x in capsys.readouterr().out.splitlines() if "5-highland-tribes" in x)
        assert line.startswith("PASS 5-highland-tribes")
        assert "published comparison not run: the bundled edge list is a reconstruction (75 edges" in line

    def test_published_comparison_runs_on_a_bundled_transcription(self, monkeypatch):
        import signednet.verify as verify

        monkeypatch.delenv(datasets.TRIBES_PATH_ENV, raising=False)
        monkeypatch.setattr(datasets, "BUNDLED_TRIBES_IS_RECONSTRUCTION", False)
        assert not criterion_highland_tribes().passed
        m = sn.balance_measures(datasets.highland_tribes())
        monkeypatch.setattr(verify, "PUBLISHED_TRIBES_D_B", m.d_b + 0.001)
        monkeypatch.setattr(verify, "PUBLISHED_TRIBES_D_A", m.d_a - 0.001)
        result = criterion_highland_tribes()
        assert result.passed, result.line()
        assert "published comparison run" in result.detail

    def test_dynamics_signature_of_the_three_blocs(self):
        # positively activating one alliance bloc drives the bloc it fights
        # on both fronts negative, while the bloc shielded behind shared
        # enemies can stay positive or die out
        G = datasets.highland_tribes()
        ix = {name: k for k, name in enumerate(G.labels)}
        bloc_c = [ix[x] for x in ("OVE", "ALIKA", "NOTOH", "KOHIK", "UHETO", "SEUVE", "GAMA")]
        bloc_a = [ix[x] for x in ("GAVEV", "KOTUN", "NAGAM", "NAGAD")]
        x0 = np.zeros(16)
        x0[bloc_c] = 1.0
        traj = sn.random_walk_simulate(G, x0 / 16, 30)
        assert all(traj.states[5][j] > 0 for j in bloc_c)
        assert all(traj.states[5][j] < 0 for j in bloc_a)


class TestVerifyMachinery:
    def test_cycle_enumeration_counts(self, triangle_positive):
        assert len(enumerate_simple_cycles(triangle_positive)) == 1
        K4 = sn.build_graph(4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)])
        assert len(enumerate_simple_cycles(K4)) == 7  # 4 triangles + 3 squares

    def test_cycle_oracle_on_known_graphs(self, triangle_one_negative, strictly_unbalanced_4):
        assert cycle_sign_oracle(triangle_one_negative) == (False, True)
        assert cycle_sign_oracle(strictly_unbalanced_4) == (False, False)

    def test_corpus_is_deterministic_and_connected(self):
        a = random_connected_corpus(30, seed=1)
        b = random_connected_corpus(30, seed=1)
        assert all(x.edges == y.edges for x, y in zip(a, b))
        assert all(2 <= G.n <= 6 for G in a)

    def test_unknown_suite_rejected(self):
        with pytest.raises(KeyError):
            run_suite("everything")

    def test_injected_failure_reaches_exit_code_3(self, monkeypatch, capsys):
        import signednet.verify as verify

        def broken():
            return CriterionResult("9-doubled-walk", False, "injected sign error", 0.0)

        monkeypatch.setitem(verify.CRITERIA, "9-doubled-walk", broken)
        assert main(["verify", "walks"]) == 3
        out = capsys.readouterr().out
        assert "FAIL 9-doubled-walk: injected sign error" in out

    def test_verify_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "walks", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert {r["criterion"] for r in doc} == {"6-stationary-states", "9-doubled-walk"}

    def test_registry_lists_the_ten_criteria_in_order(self):
        assert list(CRITERIA) == [
            "1-classification-oracle", "2-spectral-theorem", "3-radius-contraction", "4-measures",
            "5-highland-tribes", "6-stationary-states", "7-perturbation", "8-elt-lattice",
            "9-doubled-walk", "10-figure-patterns",
        ]
        assert SUITES["all"] == list(CRITERIA)

    def test_each_criterion_reports_its_registered_name(self):
        for name, run in CRITERIA.items():
            result = run()
            assert isinstance(result, CriterionResult)
            assert result.criterion == name
            assert result.seconds >= 0

    def test_suites_partition_all(self):
        parts = [SUITES[s] for s in ("spectra", "walks", "elt")]
        names = [name for part in parts for name in part]
        assert sorted(names) == sorted(SUITES["all"])
        assert len(names) == len(set(names))

    def test_wrong_stationary_kind_fails_criterion_6(self, monkeypatch, capsys):
        import signednet.verify as verify

        def zero(G, x0):
            return StationaryPrediction(StationaryKind.ZERO, (np.zeros(G.n),))

        monkeypatch.setattr(verify, "predict_stationary", zero)
        result = CRITERIA["6-stationary-states"]()
        assert result.passed is False
        assert "fixed dev inf" in result.detail and "pair dev inf" in result.detail
        assert main(["verify", "walks"]) == 3
        assert "FAIL 6-stationary-states" in capsys.readouterr().out
