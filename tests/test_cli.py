"""Command-line surface: instance files, reports, exit codes.

Exit-code contract: 0 success, 1 input error, 2 infeasible or unbounded
program, 3 failed subsidy verification.  JSON reports must round-trip
byte-identically and be deterministic apart from the timing field.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from robust_peakload import cli, market, robust, subsidy
from robust_peakload.geometry import simplex, tau
from robust_peakload.instancefile import (SCHEMA_VERSION, SchemaError,
                                          canonical_dumps, format_number,
                                          instance_digest, instance_to_data,
                                          load_instance, parse_instance_data,
                                          write_instance)
from robust_peakload.market import AffineElastic, Fixed
from robust_peakload.robust import Infeasible, Unbounded
from robust_peakload.solver import LpSpec, SolveOutcome

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
        assert options["grid"] is None

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
        _, _, digest_a, _, _ = load_instance(str(compact))
        _, _, digest_b, _, _ = load_instance(str(spaced))
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
        (lambda d: d.update(options={"grid": 1}), "options.grid"),
        (lambda d: d.update(options={"speed": 1}), "unknown key 'speed'"),
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
        reloaded, _, _, _, _ = load_instance(str(path))
        assert reloaded.N == inst.N and reloaded.T == inst.T
        t_a, _ = tau(inst.uncertainty)
        t_b, _ = tau(reloaded.uncertainty)
        assert_allclose(t_a, t_b, atol=1e-9)


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
        _, _, digest, _, _ = load_instance(str(path))
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
        assert table[0]["scenario"] == [0, 0]
        assert_allclose(table[0]["prices"], [3.2], atol=VALUE_TOL)
        assert_allclose(sorted(row["prices"][0] for row in table),
                        [3.2, 3.2, 4.0, 4.0], atol=VALUE_TOL)

    def test_eta_override_fails_verification(self, capsys):
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

    def test_eta_override_length_checked(self, capsys):
        code, _, err = run_cli(capsys, "subsidy", "--instance",
                               str(INSTANCES / "subsidy_example.json"),
                               "--eta", "0,0,0")
        assert code == 1 and "--eta" in err

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
        monkeypatch.setenv(cli.SEED_ENV, "soon")
        code, _, err = run_cli(capsys, "subsidy", "--instance",
                               str(INSTANCES / "subsidy_example.json"))
        assert code == 1 and cli.SEED_ENV in err

    def test_grid_flag_echoed(self, capsys):
        _, report = run_json(capsys, "subsidy", "--instance",
                             str(INSTANCES / "subsidy_example.json"),
                             "--grid", "11")
        assert report["results"]["grid"] == 11
        assert report["flags"]["grid"] == 11

    def test_fixed_demand_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "subsidy", "--instance",
                               str(INSTANCES / "prices_reform.json"))
        assert code == 1 and "elastic" in err


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


def _solver_returning(status):
    """Stand-in for solve_lp/solve_qp that reports `status` for every spec."""
    def solve(spec):
        return SolveOutcome(status, None, None, None, None, [], 0, {})
    return solve


def _instance(name):
    return load_instance(str(INSTANCES / name))[0]


def _nominal_fixed():
    market.solve_nominal_fixed(_instance("box_fixed.json"))


def _nominal_elastic():
    market.solve_nominal_elastic(_instance("subsidy_example.json"))


def _elastic_dispatch():
    inst = _instance("subsidy_example.json")
    robust.dispatch_at_capacity(inst, np.ones(inst.N), None)


def _pinned_welfare():
    inst = _instance("subsidy_example.json")
    subsidy.solve_fixed_capacity_welfare(inst, np.ones(inst.N),
                                         np.zeros((inst.N, inst.T)))


class TestNonOptimalSolves:
    """A solve that does not come back optimal raises the typed error of its
    status, under -O as well, and the CLI maps it to exit code 2."""

    @pytest.mark.parametrize("status, error", [("infeasible", Infeasible),
                                               ("unbounded", Unbounded)])
    @pytest.mark.parametrize("module, solver, call", [
        (market, "solve_lp", _nominal_fixed),
        (market, "solve_qp", _nominal_elastic),
        (robust, "solve_qp", _elastic_dispatch),
        (subsidy, "solve_qp", _pinned_welfare),
    ])
    def test_typed_error(self, monkeypatch, module, solver, call, status, error):
        monkeypatch.setattr(module, solver, _solver_returning(status))
        with pytest.raises(error, match=status):
            call()

    @pytest.mark.parametrize("status", ["infeasible", "unbounded"])
    @pytest.mark.parametrize("solver, instance", [
        ("solve_lp", "box_fixed.json"),
        ("solve_qp", "subsidy_example.json"),
    ])
    def test_nominal_cli_exits_two(self, capsys, monkeypatch, solver, instance,
                                   status):
        monkeypatch.setattr(market, solver, _solver_returning(status))
        code, out, err = run_cli(capsys, "solve", "--instance",
                                 str(INSTANCES / instance), "--mode", "nominal")
        assert code == 2 and status in err and not out

    def test_min_norm_duals_rejects_max_sense(self):
        spec = LpSpec("max", [1.0], [[1.0]], [1.0], ["<="])
        with pytest.raises(ValueError, match="min-sense"):
            robust._min_norm_duals(spec, None, [])
