"""Command-line surface: instance files, reports, exit codes.

Exit-code contract: 0 success, 1 input error, 2 infeasible or unbounded
program, 3 failed subsidy verification, 4 solver defect.  JSON reports must round-trip
byte-identically and be deterministic apart from the timing field.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import robust_peakload
from robust_peakload import cli, market, robust, subsidy
from robust_peakload.geometry import box, simplex, tau
from robust_peakload.instancefile import (SCHEMA_VERSION, SchemaError,
                                          canonical_dumps, format_number,
                                          instance_digest, instance_to_data,
                                          load_instance, parse_instance_data,
                                          write_instance)
from robust_peakload.market import AffineElastic, Fixed, MarketInstance, Producer
from oracles import compose_lifted, per_period_index
from robust_peakload.geometry import enumerate_vertices
from robust_peakload.robust import Infeasible, SaddleViolated, Unbounded
from robust_peakload.solver import LpSpec, NumericBreakdown, SolveOutcome

VALUE_TOL = 1e-7
CERT_TOL = 1e-6

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args, "--format", "json")
    assert out, f"no report on stdout; stderr: {err}"
    return code, json.loads(out)


def minimal_data(**overrides):
    data = {
        "schema_version": "1",
        "periods": 1,
        "producers": [{"c_inv": 1.0, "c_var": 1.0, "a": 1.0},
                      {"c_inv": 1.0, "c_var": 1.0, "a": 1.0}],
        "demand": {"mode": "fixed", "d": [1.0]},
        "uncertainty": {"form": "simplex"},
    }
    data.update(overrides)
    return data


@pytest.fixture(autouse=True)
def _clear_seed_env(monkeypatch):
    # The env override must not leak into tests that exercise flag and
    # file-level seed resolution.
    monkeypatch.delenv(cli.SEED_ENV, raising=False)


class TestCanonicalSerialization:
    def test_seventeen_digit_round_trip(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            x = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
            text = format_number(x)
            assert float(json.loads(text)) == x, f"trial {trial}"

    def test_negative_zero_folds(self):
        assert format_number(-0.0) == "0"

    def test_non_finite_as_strings(self):
        assert format_number(float("nan")) == '"NaN"'
        assert format_number(float("inf")) == '"Infinity"'
        assert format_number(float("-inf")) == '"-Infinity"'

    def test_document_round_trip(self):
        doc = {"a": [0.1, 2.0 / 3.0, 1e16, -0.0], "b": {"c": True, "d": None},
               "e": "text", "f": 3, "g": float("inf")}
        text = canonical_dumps(doc)
        assert canonical_dumps(json.loads(text)) == text

    def test_numpy_values_serialize(self):
        doc = {"v": np.array([1.0, 0.5]), "n": np.float64(0.25),
               "k": np.int64(3), "b": np.bool_(True)}
        assert canonical_dumps(doc) == '{"v": [1, 0.5], "n": 0.25, "k": 3, "b": true}'


class TestInstanceFile:
    def test_parses_fixed_instance(self):
        inst, options, risk = parse_instance_data(minimal_data())
        assert inst.N == 2 and inst.T == 1
        assert isinstance(inst.demand, Fixed)
        assert risk is None
        assert set(options) == {"sample_count", "seed"}

    def test_parses_elastic_instance(self):
        data = minimal_data(
            demand={"mode": "elastic", "alpha": [5.0], "beta": [1.0]})
        inst, _, _ = parse_instance_data(data)
        assert isinstance(inst.demand, AffineElastic)

    def test_vertices_form_matches_simplex(self):
        data = minimal_data(uncertainty={
            "form": "vertices",
            "list": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]})
        inst, _, _ = parse_instance_data(data)
        t_hull, _ = tau(inst.uncertainty)
        t_simplex, _ = tau(simplex(2))
        assert_allclose(t_hull, t_simplex, atol=1e-9)

    def test_digest_ignores_formatting(self, tmp_path):
        data = minimal_data()
        compact = tmp_path / "compact.json"
        spaced = tmp_path / "spaced.json"
        compact.write_text(json.dumps(data, separators=(",", ":")))
        spaced.write_text(json.dumps(data, indent=4))
        _, digest_a, _, _ = load_instance(str(compact))
        _, digest_b, _, _ = load_instance(str(spaced))
        assert digest_a == digest_b
        assert digest_a.startswith("sha256:")

    def test_digest_tracks_content(self):
        a = instance_digest(minimal_data())
        b = instance_digest(minimal_data(periods=2, demand={
            "mode": "fixed", "d": [1.0, 1.0]}))
        assert a != b

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda d: d.update(extra=1), "unknown key 'extra'"),
        (lambda d: d.pop("demand"), "missing key 'demand'"),
        (lambda d: d.update(schema_version="2"), "schema_version"),
        (lambda d: d.update(periods=0), "periods"),
        (lambda d: d.update(producers=[]), "producers"),
        (lambda d: d["producers"][0].pop("c_inv"), "c_inv"),
        (lambda d: d["producers"][0].update(c_inv=-1.0), "producers[0]"),
        (lambda d: d.update(demand={"mode": "fixed", "d": [1.0],
                                    "alpha": [1.0]}), "unknown key 'alpha'"),
        (lambda d: d.update(demand={"mode": "spot", "d": [1.0]}), "demand.mode"),
        (lambda d: d.update(demand={"mode": "fixed", "d": [1.0, 2.0]}),
         "length 1"),
        (lambda d: d.update(uncertainty={"form": "ball"}), "uncertainty.form"),
        (lambda d: d.update(uncertainty={"form": "box", "P": [[1.0]]}),
         "unknown key 'P'"),
        (lambda d: d.update(risk={}), "exactly one"),
        (lambda d: d.update(risk={"var": {"alpha": 2.0,
                                          "marginal_var": [1.0, 1.0]}}),
         "risk.var"),
        (lambda d: d.update(options={"grid": 101}), "unknown key 'grid'"),
        (lambda d: d.update(options={"speed": 1}), "unknown key 'speed'"),
        (lambda d: d.update(options={"tolerances": {"value": 1e-7}}),
         "unknown key 'tolerances'"),
    ])
    def test_schema_violations_name_the_field(self, mutate, fragment):
        data = minimal_data()
        mutate(data)
        with pytest.raises(SchemaError, match=None) as excinfo:
            parse_instance_data(data)
        assert fragment in str(excinfo.value)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": "1",\n  not json\n}')
        with pytest.raises(SchemaError) as excinfo:
            load_instance(str(path))
        assert "line 2" in str(excinfo.value)

    def test_risk_sections_parse(self):
        data = minimal_data(risk={"var": {"alpha": 0.95,
                                          "marginal_var": [0.3, 0.6]}})
        _, _, risk = parse_instance_data(data)
        assert_allclose(risk.marginal_var, [0.3, 0.6])
        data = minimal_data(risk={"coherent": {
            "scenarios": [[0.0, 0.0], [1.0, 0.0]],
            "Q": {"P": [], "r": []}}})
        _, _, risk = parse_instance_data(data)
        assert risk.Q.dimension == 2
        assert risk.Q.P.shape == (0, 2)

    def test_emitted_instance_reloads(self, tmp_path):
        inst, _, _ = parse_instance_data(minimal_data())
        path = tmp_path / "emitted.json"
        write_instance(str(path), instance_to_data(inst))
        reloaded, _, _, _ = load_instance(str(path))
        assert reloaded.N == inst.N and reloaded.T == inst.T
        t_a, _ = tau(inst.uncertainty)
        t_b, _ = tau(reloaded.uncertainty)
        assert_allclose(t_a, t_b, atol=1e-9)

    def test_per_period_scalings_are_not_emitted(self):
        # The schema has one scaling a per producer; writing a_by_period as
        # a would describe a different market.
        inst = MarketInstance(
            producers=[Producer(1.0, 1.0, 1.0, a_by_period=[0.5, 2.0]),
                       Producer(1.0, 1.0, 1.0)],
            demand=Fixed([1.0, 1.0]), T=2, uncertainty=box(2))
        with pytest.raises(ValueError, match=r"producers\[0\]"):
            instance_to_data(inst)


class TestSolveCommand:
    def test_reform_robust_prices(self, capsys):
        code, report = run_json(capsys, "solve", "--instance",
                                str(INSTANCES / "prices_reform.json"),
                                "--mode", "robust")
        assert code == 0
        assert_allclose(report["results"]["prices"], [2.0, 3.0], atol=VALUE_TOL)
        assert report["certificates"]["worst_case_gap"] <= CERT_TOL

    def test_peak_instance_planner_value(self, capsys):
        code, report = run_json(capsys, "solve", "--instance",
                                str(INSTANCES / "prices_rob_and_arob.json"),
                                "--mode", "robust-cp")
        assert code == 0
        assert_allclose(report["results"]["worst_case_value"], 3.0,
                        atol=VALUE_TOL)
        assert_allclose(report["results"]["prices"], [1.5], atol=VALUE_TOL)
        assert report["certificates"]["saddle_gap"] <= CERT_TOL

    def test_elastic_hull_planner_value(self, capsys):
        code, report = run_json(capsys, "solve", "--instance",
                                str(INSTANCES / "subsidy_example.json"),
                                "--mode", "robust-cp")
        assert code == 0
        assert_allclose(report["results"]["worst_case_value"], 1.62,
                        atol=VALUE_TOL)

    def test_zero_demand_solves_to_zero(self, capsys):
        code, report = run_json(capsys, "solve", "--instance",
                                str(INSTANCES / "zero_demand.json"),
                                "--mode", "robust")
        assert code == 0
        assert_allclose(report["results"]["capacities"], [0.0, 0.0],
                        atol=VALUE_TOL)
        assert_allclose(report["results"]["production"], [[0.0], [0.0]],
                        atol=VALUE_TOL)
        assert_allclose(report["results"]["worst_case_value"], 0.0,
                        atol=VALUE_TOL)

    def test_nominal_mode(self, capsys):
        code, report = run_json(capsys, "solve", "--instance",
                                str(INSTANCES / "subsidy_example.json"),
                                "--mode", "nominal")
        assert code == 0
        # Nominal costs are zero, so production meets the demand intercept.
        assert_allclose(sum(row[0] for row in report["results"]["production"]),
                        4.8, atol=VALUE_TOL)

    def test_expected_mode_broadcasts_mean(self, capsys):
        instance = str(INSTANCES / "prices_reform.json")
        code, scalar = run_json(capsys, "solve", "--instance", instance,
                                "--mode", "expected", "--mean-u", "0.5")
        assert code == 0
        assert_allclose(scalar["results"]["mean_scenario"],
                        [[0.5, 0.5], [0.5, 0.5]])
        code, full = run_json(capsys, "solve", "--instance", instance,
                              "--mode", "expected",
                              "--mean-u", "0.5,0.5,0.5,0.5")
        assert code == 0
        assert scalar["results"]["objective"] == full["results"]["objective"]

    def test_expected_mode_zero_mean_matches_nominal(self, capsys):
        instance = str(INSTANCES / "prices_reform.json")
        _, expected = run_json(capsys, "solve", "--instance", instance,
                               "--mode", "expected")
        _, nominal = run_json(capsys, "solve", "--instance", instance,
                              "--mode", "nominal")
        assert_allclose(expected["results"]["objective"],
                        nominal["results"]["objective"], atol=VALUE_TOL)

    def test_expected_mode_rejects_bad_mean(self, capsys):
        instance = str(INSTANCES / "prices_reform.json")
        code, _, err = run_cli(capsys, "solve", "--instance", instance,
                               "--mode", "expected", "--mean-u", "0.5,0.5,0.5")
        assert code == 1 and "mean-u" in err
        code, _, err = run_cli(capsys, "solve", "--instance", instance,
                               "--mode", "expected", "--mean-u", "1.5")
        assert code == 1 and "unit box" in err
        for mean in ("nan", "0.5,nan", "inf"):
            code, out, err = run_cli(capsys, "solve", "--instance", instance,
                                     "--mode", "expected", "--mean-u", mean)
            assert code == 1 and out == "" and "unit box" in err, mean

    def test_robust_certificates_on_random_instances(self, capsys, tmp_path):
        rng = np.random.default_rng(23)
        for trial in range(5):
            N, T = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            data = {
                "schema_version": "1",
                "periods": T,
                "producers": [{"c_inv": float(rng.uniform(0.1, 1.0)),
                               "c_var": float(rng.uniform(0.1, 1.0)),
                               "a": float(rng.uniform(0.0, 1.0))}
                              for _ in range(N)],
                "demand": {"mode": "fixed",
                           "d": rng.uniform(0.5, 2.0, size=T).tolist()},
                "uncertainty": {"form": "box" if rng.integers(2) else "simplex"},
            }
            path = tmp_path / f"random_{trial}.json"
            path.write_text(json.dumps(data))
            code, report = run_json(capsys, "solve", "--instance", str(path),
                                    "--mode", "robust")
            assert code == 0, f"trial {trial}"
            assert report["certificates"]["worst_case_gap"] <= CERT_TOL, \
                f"trial {trial}"

    @pytest.mark.parametrize("instance", ["prices_reform.json",
                                          "subsidy_example.json"])
    def test_robust_mode_solves_the_worst_case_once(self, capsys, monkeypatch,
                                                    instance):
        # The strict market returns the worst case it already solved; the
        # CLI reports it and solves no second adversary LP.  A binding of
        # worst_case_scenario in the CLI would be counted too.
        calls = []
        original = robust.worst_case_scenario

        def counted(*args):
            calls.append(args)
            return original(*args)

        for module in (robust, cli):
            if vars(module).get("worst_case_scenario") is original:
                monkeypatch.setattr(module, "worst_case_scenario", counted)
        code, report = run_json(capsys, "solve", "--instance",
                                str(INSTANCES / instance), "--mode", "robust")
        assert code == 0
        assert len(calls) == 1
        assert report["certificates"]["worst_case_gap"] <= CERT_TOL


class TestPoaCommand:
    def test_elastic_family_ratio(self, capsys):
        code, report = run_json(capsys, "poa", "--generate", "elastic-family",
                                "--alpha", "2")
        assert code == 0
        assert_allclose(report["results"]["ratio"], 2.25, atol=1e-4)
        assert report["certificates"]["max_closed_form_gap"] <= 1e-5

    def test_tight_fixed_market_value(self, capsys):
        code, report = run_json(capsys, "poa", "--generate", "tight-fixed",
                                "--delta", "0.5")
        assert code == 0
        assert_allclose(report["results"]["E"], 0.5, atol=VALUE_TOL)
        assert_allclose(report["results"]["bound"], 2.0, atol=VALUE_TOL)
        assert report["certificates"]["max_closed_form_gap"] <= VALUE_TOL

    def test_tight_restricted_matches_closed_form(self, capsys):
        code, report = run_json(capsys, "poa", "--generate",
                                "tight-restricted", "--delta", "0.01",
                                "--rho", "1")
        assert code == 0
        assert report["results"]["within_bound"] is True
        assert report["certificates"]["max_closed_form_gap"] <= 1e-6

    def test_wider_simplex_has_no_closed_form(self, capsys):
        code, report = run_json(capsys, "poa", "--generate", "tight-fixed",
                                "--delta", "0.1", "--producers", "3")
        assert code == 0
        assert "closed_form" not in report["certificates"]
        assert_allclose(report["results"]["ratio"], 2.8, atol=VALUE_TOL)

    def test_box_instance_ratio_one(self, capsys):
        code, report = run_json(capsys, "poa", "--instance",
                                str(INSTANCES / "box_fixed.json"))
        assert code == 0
        assert_allclose(report["results"]["ratio"], 1.0, atol=VALUE_TOL)
        assert_allclose(report["results"]["tau"], 1.0, atol=1e-9)

    def test_var_risk_instance_closes_gap(self, capsys):
        code, report = run_json(capsys, "poa", "--instance",
                                str(INSTANCES / "mvar_example.json"))
        assert code == 0
        assert report["results"]["risk_set_applied"] is True
        assert_allclose(report["results"]["tau"], 1.0, atol=1e-9)
        assert_allclose(report["results"]["ratio"], 1.0, atol=VALUE_TOL)

    def test_coherent_risk_instance(self, capsys):
        code, report = run_json(capsys, "poa", "--instance",
                                str(INSTANCES / "coherent_example.json"))
        assert code == 0
        assert report["results"]["risk_set_applied"] is True
        assert_allclose(report["results"]["tau"], 0.75, atol=1e-7)
        assert report["results"]["within_bound"] is True

    def test_emit_instance_round_trips(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        code, report = run_json(capsys, "poa", "--generate", "tight-fixed",
                                "--delta", "0.25", "--emit-instance",
                                str(path))
        assert code == 0
        _, digest, _, _ = load_instance(str(path))
        assert digest == report["instance_digest"]
        code, resolved = run_json(capsys, "poa", "--instance", str(path))
        assert_allclose(resolved["results"]["E"], report["results"]["E"],
                        atol=VALUE_TOL)
        assert_allclose(resolved["results"]["C"], report["results"]["C"],
                        atol=VALUE_TOL)

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run_cli(capsys, "poa")
        assert code == 1 and "exactly one" in err
        code, _, err = run_cli(capsys, "poa", "--instance", "x.json",
                               "--generate", "tight-fixed", "--delta", "0.5")
        assert code == 1 and "exactly one" in err

    def test_generator_parameter_validation(self, capsys):
        code, _, err = run_cli(capsys, "poa", "--generate", "tight-fixed")
        assert code == 1 and "--delta" in err
        code, _, err = run_cli(capsys, "poa", "--generate", "tight-restricted",
                               "--delta", "0.5")
        assert code == 1 and "--rho" in err
        code, _, err = run_cli(capsys, "poa", "--generate", "elastic-family")
        assert code == 1 and "--alpha" in err
        code, _, err = run_cli(capsys, "poa", "--generate", "tight-fixed",
                               "--delta", "1.5")
        assert code == 1 and "delta" in err
        for producers in ("0", "-2"):
            code, out, err = run_cli(capsys, "poa", "--generate", "tight-fixed",
                                     "--delta", "0.5", "--producers", producers)
            assert code == 1 and out == "" and "--producers" in err, producers
        for value in ("nan", "inf", "-inf"):
            code, out, err = run_cli(capsys, "poa", "--generate",
                                     "tight-restricted", "--rho", value,
                                     "--delta", "0.5")
            assert code == 1 and out == "" and "rho" in err, value
            code, out, err = run_cli(capsys, "poa", "--generate",
                                     "elastic-family", "--alpha", value)
            assert code == 1 and out == "" and "alpha" in err, value

    def test_unwritable_emit_path_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "family.json"
        code, out, err = run_cli(capsys, "poa", "--generate", "tight-fixed",
                                 "--delta", "0.5", "--emit-instance",
                                 str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and str(path) in err
        assert not path.exists()

    def test_zero_planner_cost_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "poa", "--instance",
                               str(INSTANCES / "zero_demand.json"))
        assert code == 1


class TestSubsidyCommand:
    def test_worked_example(self, capsys):
        code, report = run_json(capsys, "subsidy", "--instance",
                                str(INSTANCES / "subsidy_example.json"))
        assert code == 0
        results = report["results"]
        assert_allclose(results["eta"], [0.2, 0.2], atol=VALUE_TOL)
        assert_allclose(results["y_star"], [0.9, 0.9], atol=VALUE_TOL)
        assert results["is_equilibrium"] is True
        assert np.max(np.abs(results["worst_case_profits"])) <= CERT_TOL
        assert np.max(results["max_deviation_gain"]) <= CERT_TOL
        assert report["certificates"]["kkt_residual_max"] <= 1e-7
        table = results["price_table"]
        assert len(table) == 4
        assert table[0]["vertex"] == [0, 0]
        assert_allclose(table[0]["prices"], [3.2], atol=VALUE_TOL)
        assert_allclose(sorted(row["prices"][0] for row in table),
                        [3.2, 3.2, 4.0, 4.0], atol=VALUE_TOL)

    def test_eta_override_fails_verification(self, capsys, tmp_path):
        code, report = run_json(capsys, "subsidy", "--instance",
                                str(INSTANCES / "subsidy_example.json"),
                                "--eta", "0,0")
        assert code == 3
        results = report["results"]
        assert results["is_equilibrium"] is False
        violation = results["violation"]
        assert violation["deviation"] is None
        assert violation["producer"] in (0, 1)
        assert "profit" in violation["message"]
        assert len(violation["scenario"]) == 1

        # T = 2: the zero-profit violation names a lifted vertex by its
        # per-period vertices, the worst lifted vertex of the producer.
        data = json.loads((INSTANCES / "subsidy_example.json").read_text())
        data.update(periods=2, demand={"mode": "elastic", "alpha": [5.0, 4.0],
                                       "beta": [1.0, 0.5]})
        path = tmp_path / "subsidy_two_periods.json"
        path.write_text(json.dumps(data))
        code, report = run_json(capsys, "subsidy", "--instance", str(path),
                                "--eta", "0,0", "--samples", "0")
        assert code == 3
        violation = report["results"]["violation"]
        assert violation["deviation"] is None and "profit" in violation["message"]
        inst = load_instance(str(path))[0]
        bundle = subsidy.compute_subsidies(inst, audit_samples=0)
        c_inv = np.array([p.c_inv for p in inst.producers])
        u = compose_lifted(np.array([res.u for res in bundle.scenario_results]))
        pi = compose_lifted(np.array([res.pi for res in bundle.scenario_results]))
        earned = np.maximum(pi[:, None, :] - market.cost_matrix(inst, u), 0.0)
        profits = (earned.sum(axis=2) - c_inv) * bundle.y_star
        k = int(np.argmin(profits[:, violation["producer"]]))
        V = len(bundle.scenario_results)
        assert violation["scenario"] == list(per_period_index(k, V, 2))

    def test_eta_override_length_checked(self, capsys):
        code, _, err = run_cli(capsys, "subsidy", "--instance",
                               str(INSTANCES / "subsidy_example.json"),
                               "--eta", "0,0,0")
        assert code == 1 and "--eta" in err

    @pytest.mark.parametrize("eta", ["nan,nan", "inf,0", "0,-inf"])
    def test_non_finite_eta_is_input_error(self, capsys, eta):
        code, out, err = run_cli(capsys, "subsidy", "--instance",
                                 str(INSTANCES / "subsidy_example.json"),
                                 "--eta", eta)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "eta" in err

    def test_seed_resolution_order(self, capsys, monkeypatch):
        instance = str(INSTANCES / "subsidy_example.json")
        # File default (options.seed = 2024).
        _, report = run_json(capsys, "subsidy", "--instance", instance)
        assert report["results"]["audit"]["seed"] == 2024
        # Flag beats the file.
        _, report = run_json(capsys, "subsidy", "--instance", instance,
                             "--seed", "99")
        assert report["results"]["audit"]["seed"] == 99
        # Environment beats the flag.
        monkeypatch.setenv(cli.SEED_ENV, "7")
        _, report = run_json(capsys, "subsidy", "--instance", instance,
                             "--seed", "99")
        assert report["results"]["audit"]["seed"] == 7

    def test_bad_seed_env_is_input_error(self, capsys, monkeypatch):
        for value in ("soon", "-1"):
            monkeypatch.setenv(cli.SEED_ENV, value)
            code, _, err = run_cli(capsys, "subsidy", "--instance",
                                   str(INSTANCES / "subsidy_example.json"),
                                   "--seed", "5")
            assert code == 1 and cli.SEED_ENV in err, value

    def test_fixed_demand_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "subsidy", "--instance",
                               str(INSTANCES / "prices_reform.json"))
        assert code == 1 and "elastic" in err

    @pytest.mark.parametrize("flag, value, fragment", [
        ("--samples", "-3", "audit_samples"),
        ("--grid", "0", "grid"),
        ("--grid", "1", "grid"),
        ("--grid", "-5", "grid"),
        ("--grid", "11", "--grid"),
    ])
    def test_bad_grid_or_samples_is_input_error(self, capsys, flag, value,
                                                fragment):
        code, out, err = run_cli(capsys, "subsidy", "--instance",
                                 str(INSTANCES / "subsidy_example.json"),
                                 flag, value)
        assert code == 1 and fragment in err and not out

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "-1"),
        ("--eta", "0,0,0"),
        ("--eta", "0,x"),
    ])
    def test_bad_flag_rejected_before_solving(self, capsys, monkeypatch, flag,
                                              value):
        def solved(inst):
            raise AssertionError("the planner was solved")

        monkeypatch.setattr(subsidy, "solve_robust_cp_elastic", solved)
        code, out, err = run_cli(capsys, "subsidy", "--instance",
                                 str(INSTANCES / "subsidy_example.json"),
                                 flag, value)
        assert code == 1 and flag in err and not out


    def test_price_table_lists_each_vertex_once(self, capsys, tmp_path):
        # T = 2, N = 3: the price table lists each vertex of the per-period
        # set once, with the T prices of the result at the scenario that
        # sits at it in every period; --mean-u reads the vertex back, as a
        # per-producer list, as that scenario.
        data = minimal_data(
            periods=2,
            producers=[{"c_inv": 0.2, "c_var": 0.1, "a": 3.0},
                       {"c_inv": 0.3, "c_var": 0.0, "a": 4.0},
                       {"c_inv": 0.25, "c_var": 0.2, "a": 2.0}],
            demand={"mode": "elastic", "alpha": [5.0, 4.0], "beta": [1.0, 0.5]})
        path = tmp_path / "elastic_3x2.json"
        path.write_text(json.dumps(data))
        code, report = run_json(capsys, "subsidy", "--instance", str(path),
                                "--samples", "8")
        assert code == 0
        inst = load_instance(str(path))[0]
        vertices = [v.tolist() for v in enumerate_vertices(inst.uncertainty)]
        bundle = subsidy.compute_subsidies(inst, audit_samples=0)
        table = report["results"]["price_table"]
        listed = [row["vertex"] for row in table]
        assert sorted(listed) == sorted(vertices)
        for row in table:
            res = bundle.scenario_results[vertices.index(row["vertex"])]
            assert_array_equal(res.u, np.repeat(np.array(row["vertex"])[:, None], 2, axis=1))
            assert row["prices"] == res.pi.tolist()
        vertex = table[-1]["vertex"]
        code, report = run_json(capsys, "solve", "--instance", str(path),
                                "--mode", "expected", "--mean-u",
                                ",".join(repr(v) for v in vertex))
        assert code == 0
        assert report["results"]["mean_scenario"] == [[v, v] for v in vertex]


class TestSetCommands:
    def test_box_tau(self, capsys):
        code, report = run_json(capsys, "tau", "--instance",
                                str(INSTANCES / "box_fixed.json"))
        assert code == 0
        assert_allclose(report["results"]["tau"], 1.0, atol=1e-9)
        assert_allclose(report["results"]["witness"], [1.0, 1.0], atol=1e-9)
        assert report["results"]["vertex_count"] == 4

    def test_simplex_tau(self, capsys):
        code, report = run_json(capsys, "tau", "--instance",
                                str(INSTANCES / "prices_rob_and_arob.json"))
        assert code == 0
        assert_allclose(report["results"]["tau"], 0.5, atol=1e-9)
        assert report["results"]["vertex_count"] == 3

    def test_hull_validation_report(self, capsys):
        code, report = run_json(capsys, "validate-set", "--instance",
                                str(INSTANCES / "subsidy_example.json"))
        assert code == 0
        results = report["results"]
        assert_allclose(results["tau"], 0.75, atol=1e-9)
        assert results["vertex_count"] == 4
        assert results["contains_zero"] is True
        assert results["inside_unit_box"] is True
        assert results["is_valid_uncertainty_set"] is True
        assert_allclose(results["axis_projections"], [1.0, 1.0], atol=1e-7)
        certificates = report["certificates"]
        assert certificates["witness_in_set"] is True
        assert certificates["witness_min_gap"] <= 1e-9


class TestReportContract:
    COMMANDS = [
        ("solve", "--instance", str(INSTANCES / "prices_reform.json")),
        ("solve", "--instance", str(INSTANCES / "subsidy_example.json"),
         "--mode", "robust-cp"),
        ("poa", "--generate", "elastic-family", "--alpha", "0.75"),
        ("subsidy", "--instance", str(INSTANCES / "subsidy_example.json")),
        ("tau", "--instance", str(INSTANCES / "box_fixed.json")),
    ]

    @pytest.mark.parametrize("args", COMMANDS)
    def test_json_round_trips_bytes(self, capsys, args):
        code, out, _ = run_cli(capsys, *args, "--format", "json")
        assert code == 0
        text = out.rstrip("\n")
        assert canonical_dumps(json.loads(text)) == text

    @pytest.mark.parametrize("args", COMMANDS)
    def test_deterministic_modulo_timing(self, capsys, args):
        _, first = run_json(capsys, *args)
        _, second = run_json(capsys, *args)
        first.pop("timing")
        second.pop("timing")
        assert canonical_dumps(first) == canonical_dumps(second)

    def test_report_shape(self, capsys):
        _, report = run_json(capsys, "tau", "--instance",
                             str(INSTANCES / "box_fixed.json"))
        assert list(report) == ["command", "flags", "schema_version",
                                "instance_digest", "results", "certificates",
                                "timing"]
        assert report["command"] == "tau"
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["timing"]["seconds"] >= 0.0

    def test_text_format_prints_lines(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--instance",
                               str(INSTANCES / "prices_reform.json"))
        assert code == 0
        assert "results.prices: [2, 3]" in out
        assert "instance_digest: " in out

    def test_unknown_command_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "explode")
        assert code == 1 and "invalid choice" in err

    def test_missing_instance_file_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--instance", "no_such.json")
        assert code == 1 and "cannot read" in err

    def test_malformed_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken\n")
        code, _, err = run_cli(capsys, "solve", "--instance", str(path))
        assert code == 1 and "line 1" in err

    def test_unknown_key_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(minimal_data(extra=1)))
        code, _, err = run_cli(capsys, "solve", "--instance", str(path))
        assert code == 1 and "unknown key 'extra'" in err

    def test_infeasible_maps_to_exit_two(self, capsys, monkeypatch):
        def boom(inst):
            raise Infeasible("forced for the exit-code contract")
        monkeypatch.setattr(cli, "solve_robust_market_fixed", boom)
        code, _, err = run_cli(capsys, "solve", "--instance",
                               str(INSTANCES / "prices_reform.json"))
        assert code == 2 and "forced" in err

    def test_unbounded_maps_to_exit_two(self, capsys, monkeypatch):
        def boom(inst):
            raise Unbounded("forced for the exit-code contract")
        monkeypatch.setattr(cli, "solve_robust_cp_fixed", boom)
        code, _, err = run_cli(capsys, "solve", "--instance",
                               str(INSTANCES / "prices_reform.json"),
                               "--mode", "robust-cp")
        assert code == 2 and "forced" in err


    def test_saddle_violation_maps_to_exit_four(self, capsys, monkeypatch):
        def readout(*args):
            raise SaddleViolated("forced for the exit-code contract")
        monkeypatch.setattr(robust, "_readout", readout)
        code, out, err = run_cli(capsys, "solve", "--instance",
                                 str(INSTANCES / "prices_reform.json"),
                                 "--mode", "robust-cp")
        assert code == cli.EXIT_SOLVER == 4 and not out
        assert err.startswith("error:") and "forced" in err
        assert err.count("\n") == 1

    def test_failed_tie_break_maps_to_exit_four(self, capsys, monkeypatch):
        # The elastic planner's minimum-norm tie-break is the only QP that
        # robust.solve_qp runs here; a non-optimal projection has no fallback.
        monkeypatch.setattr(robust, "solve_qp", _solver_returning("infeasible"))
        code, out, err = run_cli(capsys, "solve", "--instance",
                                 str(INSTANCES / "subsidy_example.json"),
                                 "--mode", "robust-cp")
        assert code == cli.EXIT_SOLVER and not out
        assert err.startswith("error:") and "projection" in err
        assert err.count("\n") == 1

    def test_numeric_breakdown_maps_to_exit_four(self, capsys, monkeypatch):
        load = cli.load_instance

        def breakdown(spec):
            raise NumericBreakdown("forced for the exit-code contract")

        def load_then_break(path):
            loaded = load(path)
            _replace_solvers(monkeypatch, breakdown, ("solve_lp",))
            return loaded

        monkeypatch.setattr(cli, "load_instance", load_then_break)
        code, out, err = run_cli(capsys, "tau", "--instance",
                                 str(INSTANCES / "prices_reform.json"))
        assert code == cli.EXIT_SOLVER and not out
        assert err.startswith("error:") and "forced" in err
        assert err.count("\n") == 1


def _solver_returning(status):
    """Stand-in for solve_lp/solve_qp that reports `status` for every spec."""
    def solve(spec):
        return SolveOutcome(status, None, None, None, None, [], 0, {})
    return solve


def _replace_solvers(monkeypatch, replacement, names):
    """Install `replacement` at every binding of the named solvers in the
    package, wherever a module imported them."""
    modules = [robust_peakload] + [
        importlib.import_module(f"robust_peakload.{info.name}")
        for info in pkgutil.iter_modules(robust_peakload.__path__)]
    for module in modules:
        for name in names:
            if vars(module).get(name) is getattr(robust_peakload.solver, name):
                monkeypatch.setattr(module, name, replacement)


def _fail_solvers(monkeypatch, status, names=("solve_lp", "solve_qp")):
    """Install _solver_returning(status) at every binding of the named
    solvers in the package."""
    _replace_solvers(monkeypatch, _solver_returning(status), names)


def _instance(name):
    return load_instance(str(INSTANCES / name))[0]


# Each call loads its instance (whose validation solves LPs) and returns the
# solve under test, to run once the solvers are replaced.
def _nominal_fixed():
    inst = _instance("box_fixed.json")
    return lambda: market.solve_nominal_fixed(inst)


def _nominal_elastic():
    inst = _instance("subsidy_example.json")
    return lambda: market.solve_nominal_elastic(inst)


class TestNonOptimalSolves:
    """A solve that does not come back optimal raises the typed error of its
    status, under -O as well, and the CLI maps it to exit code 2."""

    @pytest.mark.parametrize("status, error", [("infeasible", Infeasible),
                                               ("unbounded", Unbounded)])
    @pytest.mark.parametrize("call", [_nominal_fixed, _nominal_elastic])
    def test_typed_error(self, monkeypatch, call, status, error):
        run = call()
        _fail_solvers(monkeypatch, status)
        with pytest.raises(error, match=status):
            run()

    def test_pinned_dispatch_calls_no_solver(self, monkeypatch):
        # The pinned wrappers are closed forms: with every solver failing
        # they still return, and return what they did before.
        inst = _instance("subsidy_example.json")
        y, u = np.ones(inst.N), np.zeros((inst.N, inst.T))
        dispatch = lambda: robust.dispatch_at_capacity(inst, y, None)
        welfare = lambda: subsidy.solve_fixed_capacity_welfare(inst, y, u)
        value, x = dispatch()
        result = welfare()
        for status in ("infeasible", "unbounded"):
            _fail_solvers(monkeypatch, status)
            failed_value, failed_x = dispatch()
            failed_result = welfare()
            assert failed_value == value
            assert_array_equal(failed_x, x)
            for name in ("x", "pi", "mu", "phi", "chi", "value"):
                assert_array_equal(getattr(failed_result, name),
                                   getattr(result, name), err_msg=status)

    @pytest.mark.parametrize("status", ["infeasible", "unbounded"])
    @pytest.mark.parametrize("solver, instance", [
        ("solve_lp", "box_fixed.json"),
        ("solve_qp", "subsidy_example.json"),
    ])
    def test_nominal_cli_exits_two(self, capsys, monkeypatch, solver, instance,
                                   status):
        load = cli.load_instance

        def load_then_fail(path):
            loaded = load(path)
            _fail_solvers(monkeypatch, status, (solver,))
            return loaded

        monkeypatch.setattr(cli, "load_instance", load_then_fail)
        code, out, err = run_cli(capsys, "solve", "--instance",
                                 str(INSTANCES / instance), "--mode", "nominal")
        assert code == 2 and status in err and not out

    def test_min_norm_duals_rejects_max_sense(self):
        spec = LpSpec("max", [1.0], [[1.0]], [1.0], ["<="])
        with pytest.raises(ValueError, match="min-sense"):
            robust._min_norm_duals(spec, None, [])


# Runs in a fresh interpreter: the package import and four commands through
# the LP, elastic QP, subsidy and set-geometry paths, then lists every scipy
# module that got loaded.
_NUMPY_ONLY_RUN = """
import contextlib, io, json, sys
from robust_peakload import cli
runs = [["solve", "--instance", "instances/subsidy_example.json", "--mode", "robust-cp"],
        ["poa", "--instance", "instances/subsidy_example.json"],
        ["subsidy", "--instance", "instances/subsidy_example.json"],
        ["tau", "--instance", "instances/box_fixed.json"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv + ["--format", "json"]) for argv in runs]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules
                                  if m == "scipy" or m.startswith("scipy."))}))
"""


def test_runtime_loads_no_scipy():
    """The package and its commands run on numpy alone: scipy is a test
    dependency (the HiGHS oracle), not a runtime one."""
    root = INSTANCES.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", _NUMPY_ONLY_RUN], cwd=root, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    found = json.loads(done.stdout.splitlines()[-1])
    assert found == {"codes": [0, 0, 0, 0], "scipy": []}
