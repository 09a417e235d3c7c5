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
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import robust_peakload
from robust_peakload import cli, market, robust, solver, subsidy
from robust_peakload.geometry import Polytope, box, simplex, tau
from robust_peakload.instancefile import (SCHEMA_VERSION, SchemaError,
                                          canonical_dumps, format_number,
                                          instance_digest, instance_to_data,
                                          load_instance, parse_instance_data,
                                          write_instance)
from robust_peakload.market import AffineElastic, Fixed, MarketInstance, Producer
from robust_peakload.poa import poa_fixed
from robust_peakload.risk import DegenerateScenario
from oracles import compose_lifted, per_period_index
from robust_peakload.geometry import enumerate_vertices
from robust_peakload.robust import Infeasible, SaddleViolated, Unbounded
from robust_peakload.solver import LpSpec, NumericBreakdown, SolveOutcome

VALUE_TOL = 1e-7
CERT_TOL = 1e-6

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
RISK_FILES = ("mvar_example.json", "coherent_example.json")

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=80,
                    suppress_health_check=[HealthCheck.too_slow])


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


def assert_same_market(got, want):
    """Producers, demand arrays and (P, r) equal exactly."""
    assert got.T == want.T
    assert [(p.c_inv, p.c_var, p.a, p.a_by_period) for p in got.producers] == \
        [(p.c_inv, p.c_var, p.a, p.a_by_period) for p in want.producers]
    assert type(got.demand) is type(want.demand)
    for name in ("d", "alpha", "beta"):
        if hasattr(want.demand, name):
            assert_array_equal(getattr(got.demand, name),
                               getattr(want.demand, name))
    assert_array_equal(got.uncertainty.P, want.uncertainty.P)
    assert_array_equal(got.uncertainty.r, want.uncertainty.r)


positive = st.floats(0.01, 10.0)


@st.composite
def markets(draw):
    """Markets of 1-4 producers and 1-3 periods, fixed or elastic demand,
    over the box, the simplex or the box cut by one halfspace w'u <= b that
    keeps the origin and the unit axis points (a valid set)."""
    N = draw(st.integers(1, 4))
    T = draw(st.integers(1, 3))
    producers = [Producer(c_inv=draw(positive), c_var=draw(st.floats(0.0, 10.0)),
                          a=draw(st.floats(0.0, 10.0))) for _ in range(N)]
    periods = st.lists(positive, min_size=T, max_size=T)
    if draw(st.booleans()):
        demand = Fixed(draw(periods))
    else:
        demand = AffineElastic(draw(periods), draw(periods))
    form = draw(st.sampled_from(["box", "simplex", "inequalities"]))
    if form == "inequalities":
        w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=N, max_size=N)))
        b = draw(st.floats(max(float(w.max()), 1e-3), float(w.sum()) + 1.0))
        U = Polytope(N, np.vstack([np.eye(N), w]), np.append(np.ones(N), b))
    else:
        U = box(N) if form == "box" else simplex(N)
    return MarketInstance(producers=producers, demand=demand, T=T, uncertainty=U)


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
        inst = parse_instance_data(minimal_data())
        assert inst.N == 2 and inst.T == 1
        assert isinstance(inst.demand, Fixed)
        assert_array_equal(inst.uncertainty.P, simplex(2).P)
        assert [p.a for p in inst.producers] == [1.0, 1.0]

    def test_parses_elastic_instance(self):
        data = minimal_data(
            demand={"mode": "elastic", "alpha": [5.0], "beta": [1.0]})
        inst = parse_instance_data(data)
        assert isinstance(inst.demand, AffineElastic)

    def test_vertices_form_matches_simplex(self):
        data = minimal_data(uncertainty={
            "form": "vertices",
            "list": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]})
        inst = parse_instance_data(data)
        t_hull, _ = tau(inst.uncertainty)
        t_simplex, _ = tau(simplex(2))
        assert_allclose(t_hull, t_simplex, atol=1e-9)

    def test_digest_ignores_formatting(self, tmp_path):
        data = minimal_data()
        compact = tmp_path / "compact.json"
        spaced = tmp_path / "spaced.json"
        compact.write_text(json.dumps(data, separators=(",", ":")))
        spaced.write_text(json.dumps(data, indent=4))
        _, digest_a = load_instance(str(compact))
        _, digest_b = load_instance(str(spaced))
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
        (lambda d: d.update(demand={"mode": "fixed", "d": [-1.0]}),
         "demand.d"),
        (lambda d: d.update(demand={"mode": "elastic", "alpha": [5.0],
                                    "beta": [0.0]}), "demand: beta"),
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
        (lambda d: d.update(risk={"var": {"alpha": 0.95,
                                          "marginal_var": [1.0, 1.0]}},
                            demand={"mode": "elastic", "alpha": [5.0],
                                    "beta": [1.0]}), "risk: "),
        # Run settings are not part of a market: a file has no options.
        (lambda d: d.update(options={"seed": 2024}), "unknown key 'options'"),
        # The nested sections are closed too.
        (lambda d: d["producers"][1].update(grid=101), "unknown key 'grid'"),
        (lambda d: d.update(risk={"var": {"alpha": 0.95, "speed": 1,
                                          "marginal_var": [1.0, 1.0]}}),
         "unknown key 'speed'"),
        (lambda d: d.update(risk={"coherent": {
            "scenarios": [[0.0, 0.0]],
            "Q": {"P": [], "r": [], "tolerances": {"value": 1e-7}}}}),
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
        # A risk section replaces the file's set and scalings: the VaR box
        # is the unit box with a_i = VaR_i.  The coherent hull of (0, 0) and
        # (1, 0) is [0, 1] on the first coordinate with scale 1; the second
        # carries no risk, so it keeps a free [0, 1] factor with scale 0.
        data = minimal_data(risk={"var": {"alpha": 0.95,
                                          "marginal_var": [0.3, 0.6]}})
        inst = parse_instance_data(data)
        assert [p.a for p in inst.producers] == [0.3, 0.6]
        assert_array_equal(inst.uncertainty.P, box(2).P)
        assert_array_equal(inst.uncertainty.r, box(2).r)
        data = minimal_data(risk={"coherent": {
            "scenarios": [[0.0, 0.0], [1.0, 0.0]],
            "Q": {"P": [], "r": []}}})
        with pytest.warns(DegenerateScenario):
            inst = parse_instance_data(data)
        assert [p.a for p in inst.producers] == [1.0, 0.0]
        assert inst.uncertainty.contains([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert not inst.uncertainty.contains([1.0 + 1e-6, 0.0])

    def test_emitted_instance_reloads(self, tmp_path):
        inst = parse_instance_data(minimal_data())
        path = tmp_path / "emitted.json"
        write_instance(str(path), instance_to_data(inst))
        reloaded, _ = load_instance(str(path))
        assert_same_market(reloaded, inst)
        assert tau(reloaded.uncertainty)[0] == tau(inst.uncertainty)[0]

    @PROPERTY
    @given(markets())
    def test_emitted_market_round_trips(self, inst):
        text = canonical_dumps(instance_to_data(inst))
        assert_same_market(parse_instance_data(json.loads(text)), inst)

    @pytest.mark.parametrize("name", RISK_FILES)
    def test_emitted_risk_market_reloads(self, tmp_path, name):
        # The loaded market of a risk file, written out, is the same market:
        # the set in inequality form and the scale as the scalings a.
        inst, _ = load_instance(str(INSTANCES / name))
        path = tmp_path / name
        write_instance(str(path), instance_to_data(inst))
        reloaded, _ = load_instance(str(path))
        assert_same_market(reloaded, inst)
        want, got = poa_fixed(inst), poa_fixed(reloaded)
        for field in ("E", "C", "ratio", "tau", "bound", "rho"):
            assert getattr(got, field) == getattr(want, field), field

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

    @pytest.mark.parametrize("family", [
        ("tight-fixed", "--delta", "0.3"),
        ("tight-restricted", "--delta", "0.3", "--rho", "2"),
    ], ids=lambda v: v[0])
    def test_tight_families_default_to_two_producers(self, capsys, family):
        code, default = run_json(capsys, "poa", "--generate", *family)
        assert code == 0 and default["flags"]["producers"] is None
        code, two = run_json(capsys, "poa", "--generate", *family, "--producers", "2")
        assert code == 0 and two["flags"]["producers"] == 2
        for report in (default, two):
            del report["flags"], report["timing"]
        assert default == two
        assert "closed_form" in default["certificates"]

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
        # The VaR box with a = (0.3, 0.6), not the file's unit box with
        # a = 1, whose market worst case is 6.
        assert_allclose(report["results"]["C"], 4.6, atol=VALUE_TOL)
        assert_allclose(report["results"]["tau"], 1.0, atol=1e-9)
        assert_allclose(report["results"]["ratio"], 1.0, atol=VALUE_TOL)

    def test_coherent_risk_instance(self, capsys):
        code, report = run_json(capsys, "poa", "--instance",
                                str(INSTANCES / "coherent_example.json"))
        assert code == 0
        # The scenario hull, not the file's box (tau 1, C 6).
        assert_allclose(report["results"]["C"], 5.5, atol=VALUE_TOL)
        assert_allclose(report["results"]["tau"], 0.75, atol=1e-7)
        assert report["results"]["within_bound"] is True

    def test_emit_instance_round_trips(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        code, report = run_json(capsys, "poa", "--generate", "tight-fixed",
                                "--delta", "0.25", "--emit-instance",
                                str(path))
        assert code == 0
        _, digest = load_instance(str(path))
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

    # Each poa source reads only its own flags: --instance none of the
    # generator flags, each generator its parameters and --emit-instance.
    @pytest.mark.parametrize("source, flag", [
        (("--instance", str(INSTANCES / "box_fixed.json")), "--delta"),
        (("--instance", str(INSTANCES / "box_fixed.json")), "--rho"),
        (("--instance", str(INSTANCES / "box_fixed.json")), "--alpha"),
        (("--instance", str(INSTANCES / "box_fixed.json")), "--emit-instance"),
        (("--generate", "tight-fixed", "--delta", "0.5"), "--rho"),
        (("--generate", "tight-fixed", "--delta", "0.5"), "--alpha"),
        (("--generate", "tight-restricted", "--delta", "0.5", "--rho", "1"), "--alpha"),
        (("--generate", "elastic-family", "--alpha", "2"), "--delta"),
        (("--generate", "elastic-family", "--alpha", "2"), "--rho"),
        (("--instance", str(INSTANCES / "box_fixed.json")), "--producers"),
        (("--generate", "elastic-family", "--alpha", "2"), "--producers"),
    ], ids=lambda v: v.lstrip("-") if isinstance(v, str) else v[1].split("/")[-1])
    def test_unread_flag_is_input_error(self, capsys, tmp_path, source, flag):
        path = tmp_path / "emitted.json"
        value = {"--emit-instance": str(path), "--producers": "3"}.get(flag, "0.5")
        code, out, err = run_cli(capsys, "poa", *source, flag, value)
        assert code == cli.EXIT_INPUT and out == ""
        assert err.startswith("error:") and f"{flag} is not read" in err
        assert not path.exists()

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

    def test_seed_resolution_order(self, capsys):
        instance = str(INSTANCES / "subsidy_example.json")
        # The library default.
        _, report = run_json(capsys, "subsidy", "--instance", instance)
        assert report["results"]["audit"]["seed"] == 2024
        assert report["flags"]["seed"] == 2024
        assert report["results"]["audit"]["samples"] == \
            subsidy.DEFAULT_AUDIT_SAMPLES
        # The flag beats the default.
        _, report = run_json(capsys, "subsidy", "--instance", instance,
                             "--seed", "99", "--samples", "8")
        assert report["results"]["audit"]["seed"] == 99
        assert report["results"]["audit"]["samples"] == 8

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

    def test_hull_counts_only_extreme_points(self, capsys, tmp_path):
        # The five generators are the vertices.  Facets of the converted
        # hull repeat coordinate planes up to 1e-17, and a basis of such
        # nearly parallel planes must not add a point to the count.
        generators = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0.7, 0.7, 0.7]]
        producer = {"c_inv": 1.0, "c_var": 1.0, "a": 1.0}
        path = tmp_path / "hull.json"
        path.write_text(json.dumps(minimal_data(
            producers=[producer] * 3,
            uncertainty={"form": "vertices", "list": generators})))
        code, report = run_json(capsys, "tau", "--instance", str(path))
        assert code == 0
        assert report["results"]["vertex_count"] == 5

    def test_four_producer_vertex_file(self, capsys, tmp_path):
        generators = [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                      [0, 0, 0, 1], [0.1, 0.1, 0.1, 0.1]]
        producer = {"c_inv": 1.0, "c_var": 1.0, "a": 1.0}
        path = tmp_path / "hull4.json"
        path.write_text(json.dumps(minimal_data(
            producers=[producer] * 4,
            uncertainty={"form": "vertices", "list": generators})))
        code, report = run_json(capsys, "tau", "--instance", str(path))
        assert code == 0
        assert report["results"]["vertex_count"] == 5
        assert_allclose(report["results"]["tau"], 0.25, atol=1e-9)

    @pytest.mark.parametrize("command", ["tau", "validate-set"])
    def test_vertex_count_null_above_the_guard(self, capsys, tmp_path, command):
        producer = {"c_inv": 1.0, "c_var": 1.0, "a": 1.0}
        path = tmp_path / "box13.json"
        path.write_text(json.dumps(minimal_data(producers=[producer] * 13,
                                                uncertainty={"form": "box"})))
        code, report = run_json(capsys, command, "--instance", str(path))
        assert code == 0
        assert report["results"]["vertex_count"] is None
        assert_allclose(report["results"]["tau"], 1.0, atol=1e-9)


class TestParserReuse:
    """main builds its parser once per process; no call leaves state in it."""

    @staticmethod
    def _report(capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        report = json.loads(out) if out else None
        if report is not None:
            report.pop("timing")
        return code, report, err

    def test_reports_match_a_first_call(self, capsys):
        box_file = str(INSTANCES / "box_fixed.json")
        sequence = [
            ("poa", "--instance", box_file, "--delta", "0.5"),
            ("poa", "--instance", box_file),
            ("solve", "--instance", box_file, "--mode", "nominal"),
            ("solve", "--instance", box_file),
            ("tau", "--instance", str(INSTANCES / "coherent_example.json")),
            ("poa", "--generate", "tight-restricted", "--delta", "0.25", "--rho", "2"),
            ("poa", "--generate", "tight-fixed", "--delta", "0.25"),
            ("solve", "--mode", "robust-cp"),
            ("validate-set", "--instance", box_file),
        ]
        first = []
        for argv in sequence:
            cli._build_parser.cache_clear()
            first.append(self._report(capsys, argv))
        parser = cli._build_parser()
        again = [self._report(capsys, argv) for argv in sequence]
        assert cli._build_parser() is parser
        assert [code for code, _, _ in first] == [1, 0, 0, 0, 0, 0, 0, 1, 0]
        for argv, (code, report, err), (code2, report2, err2) in zip(sequence, first, again):
            assert code2 == code and err2 == err, argv
            if report is not None:
                assert canonical_dumps(report2) == canonical_dumps(report), argv
        assert again[2][1]["results"]["mode"] == "nominal"
        assert again[3][1]["results"]["mode"] == "robust"
        assert again[6][1]["flags"]["rho"] is None


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

    @pytest.mark.parametrize("name", sorted(p.name for p in INSTANCES.glob("*.json")))
    def test_commands_act_on_one_market(self, capsys, name):
        # solve, tau and poa read a file as the same market, the risk set
        # installed where the file has one: E is the market's worst case, C
        # the planner's optimum and tau the set's.
        path = str(INSTANCES / name)
        values = {}
        for mode in ("robust", "robust-cp"):
            code, report = run_json(capsys, "solve", "--instance", path,
                                    "--mode", mode)
            assert code == 0
            values[mode] = report["results"]["worst_case_value"]
        code, report = run_json(capsys, "tau", "--instance", path)
        assert code == 0
        values["tau"] = report["results"]["tau"]
        code, out, err = run_cli(capsys, "poa", "--instance", path,
                                 "--format", "json")
        if code != 0:
            # Only a zero planner cost stops poa, and solve agrees on it.
            assert code == 1 and "planner cost is zero" in err
            assert values["robust-cp"] == 0.0
            return
        results = json.loads(out)["results"]
        assert results["E"] == values["robust"]
        assert results["C"] == values["robust-cp"]
        assert results["tau"] == values["tau"]

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

    # Validating a file's set maximizes each coordinate over it
    # (Polytope.maximize): an empty set raises EmptySet and an unbounded one
    # ValueError, both input errors.
    @pytest.mark.parametrize("P, r, message", [
        ([[1.0, 0.0], [-1.0, 0.0]], [1.0, -2.0], "no feasible point"),
        ([[1.0, 0.0]], [1.0], "unbounded"),
    ], ids=["empty", "unbounded"])
    @pytest.mark.parametrize("command", ["tau", "solve"])
    def test_bad_set_is_input_error(self, capsys, tmp_path, P, r, message, command):
        path = tmp_path / "set.json"
        path.write_text(json.dumps(minimal_data(
            uncertainty={"form": "inequalities", "P": P, "r": r})))
        code, out, err = run_cli(capsys, command, "--instance", str(path))
        assert code == cli.EXIT_INPUT == 1 and not out
        assert err.startswith("error:") and message in err

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
        # robust.solve_qp runs here (the file's twin producers tie, so the
        # planner proves no unique optimum); a non-optimal projection has no
        # fallback.
        monkeypatch.setattr(robust, "solve_qp", _solver_returning("infeasible"))
        code, out, err = run_cli(capsys, "solve", "--instance",
                                 str(INSTANCES / "subsidy_example.json"),
                                 "--mode", "robust-cp")
        assert code == cli.EXIT_SOLVER and not out
        assert err.startswith("error:") and "projection" in err
        assert err.count("\n") == 1

    def test_numeric_breakdown_maps_to_exit_four(self, capsys, monkeypatch):
        # The coherent file's set is a scenario hull with negative entries,
        # so tau poses its LP; a down-closed set would pose none.
        load = cli.load_instance

        def breakdown(spec):
            raise NumericBreakdown("forced for the exit-code contract")

        def load_then_break(path):
            loaded = load(path)
            _replace_solvers(monkeypatch, breakdown, ("solve_lp",))
            return loaded

        monkeypatch.setattr(cli, "load_instance", load_then_break)
        code, out, err = run_cli(capsys, "tau", "--instance",
                                 str(INSTANCES / "coherent_example.json"))
        assert code == cli.EXIT_SOLVER and not out
        assert err.startswith("error:") and "forced" in err
        assert err.count("\n") == 1

    def test_failed_certificate_maps_to_exit_four(self, capsys, monkeypatch):
        # A QP kernel that reports "optimal" with a primal entry moved by
        # 1e-3: the certificate gate of every optimal solve refuses it.  The
        # instance has elastic demand, so its planner is a QP.
        self._perturbed_kernel_exits_four(capsys, monkeypatch, "_qp_internal",
                                          "subsidy_example.json")

    def test_failed_lp_certificate_maps_to_exit_four(self, capsys, monkeypatch):
        # The same through the simplex, on a fixed-demand instance whose
        # simplex set lacks its greatest element, so the planner is an LP.
        self._perturbed_kernel_exits_four(capsys, monkeypatch, "_lp_internal",
                                          "prices_reform.json")

    @staticmethod
    def _perturbed_kernel_exits_four(capsys, monkeypatch, kernel, instance):
        load = cli.load_instance
        original = getattr(solver, kernel)

        def perturbed(*args):
            status, iterations, found = original(*args)
            if status == "optimal":
                # (v, duals), and for the QP its uniqueness proof after them.
                v, *rest = found
                found = (v + np.eye(v.size)[0] * 1e-3, *rest)
            return status, iterations, found

        def load_then_perturb(path):
            loaded = load(path)
            monkeypatch.setattr(solver, kernel, perturbed)
            return loaded

        monkeypatch.setattr(cli, "load_instance", load_then_perturb)
        code, out, err = run_cli(capsys, "solve", "--instance", str(INSTANCES / instance),
                                 "--mode", "robust-cp")
        assert code == cli.EXIT_SOLVER and not out
        assert err.startswith("error:") and "certificate" in err
        assert err.count("\n") == 1


def _solver_returning(status):
    """Stand-in for solve_lp/solve_qp that reports `status` for every spec."""
    def solve(spec, start=None):
        return SolveOutcome(status, 0)
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
# solve under test, to run once the solvers are replaced.  At costs constant
# over the periods fixed demand poses no LP and elastic demand no QP
# (screening curves), so each call takes a mean that varies over the periods.
def _expected_fixed():
    inst = _instance("prices_reform.json")
    return lambda: market.solve_expected(inst, [[0.0, 1.0], [1.0, 0.0]])


def _expected_elastic():
    inst = _instance("box_elastic.json")
    return lambda: market.solve_expected(inst, [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])


class TestNonOptimalSolves:
    """A solve that does not come back optimal raises the typed error of its
    status, under -O as well, and the CLI maps it to exit code 2."""

    @pytest.mark.parametrize("status, error", [("infeasible", Infeasible),
                                               ("unbounded", Unbounded)])
    @pytest.mark.parametrize("call", [_expected_fixed, _expected_elastic])
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
    def test_expected_cli_exits_two(self, capsys, monkeypatch, status):
        # An elastic nominal solve poses no QP (screening curves); at a mean
        # scenario that varies over the periods the welfare QP still runs.
        self._cli_exits_two(capsys, monkeypatch, "solve_qp", status, "box_elastic.json",
                            "--mode", "expected", "--mean-u", "0,1,0,1,0,1")

    @pytest.mark.parametrize("status", ["infeasible", "unbounded"])
    def test_planner_lp_cli_exits_two(self, capsys, monkeypatch, status):
        # A fixed-demand nominal solve poses no LP (screening curves); the
        # robust planner over a simplex set, which lacks its greatest
        # element, still does.
        self._cli_exits_two(capsys, monkeypatch, "solve_lp", status,
                            "prices_reform.json", "--mode", "robust-cp")

    @staticmethod
    def _cli_exits_two(capsys, monkeypatch, solver, status, instance, *argv):
        load = cli.load_instance

        def load_then_fail(path):
            loaded = load(path)
            _fail_solvers(monkeypatch, status, (solver,))
            return loaded

        monkeypatch.setattr(cli, "load_instance", load_then_fail)
        code, out, err = run_cli(capsys, "solve", "--instance",
                                 str(INSTANCES / instance), *argv)
        assert code == 2 and status in err and not out

    def test_min_norm_duals_rejects_max_sense(self):
        spec = LpSpec("max", [1.0], [[1.0]], [1.0], ["<="])
        with pytest.raises(ValueError, match="min-sense"):
            robust._min_norm_duals(spec, None, [])


def _count_lps(monkeypatch):
    """Route every binding of solve_lp in the package through a recorder;
    returns the list of posed specs."""
    posed = []
    solve_lp = solver.solve_lp

    def record(spec):
        posed.append(spec)
        return solve_lp(spec)

    _replace_solvers(monkeypatch, record, ("solve_lp",))
    return posed


def _count_qps(monkeypatch):
    """Route every binding of solve_qp in the package through a recorder;
    returns the list of posed specs."""
    posed = []
    solve_qp = solver.solve_qp

    def record(spec, start=None):
        posed.append(spec)
        return solve_qp(spec, start=start)

    _replace_solvers(monkeypatch, record, ("solve_qp",))
    return posed


class TestClosedFormPaths:
    """Fixed demand at costs constant over the periods is planned by
    screening curves, and a per-period set that contains its greatest
    element has that element as the worst case of every plan: on box and
    VaR-box files, solve and poa pose no LP, load included, and on an
    elastic box file no program over adversary variables."""

    @pytest.mark.parametrize("argv", [("solve", "--mode", "nominal"),
                                      ("solve", "--mode", "robust"),
                                      ("solve", "--mode", "robust-cp"),
                                      ("poa",)],
                             ids=["nominal", "robust", "robust-cp", "poa"])
    @pytest.mark.parametrize("instance", ["box_fixed.json", "mvar_example.json"])
    def test_box_files_pose_no_lp(self, capsys, monkeypatch, instance, argv):
        posed = _count_lps(monkeypatch)
        code, report = run_json(capsys, argv[0], "--instance",
                                str(INSTANCES / instance), *argv[1:])
        assert code == 0 and posed == []
        if argv[0] == "poa":
            assert report["results"]["ratio"] == 1.0
            assert report["results"]["E"] == report["results"]["C"]
        elif argv[-1] != "nominal":
            assert np.all(np.array(report["certificates"]["worst_scenario"]) == 1.0)

    def test_simplex_planner_poses_its_lp(self, capsys, monkeypatch):
        posed = _count_lps(monkeypatch)
        code, _ = run_json(capsys, "solve", "--instance",
                           str(INSTANCES / "prices_reform.json"), "--mode", "robust-cp")
        assert code == 0 and len(posed) == 1

    def test_period_varying_scalings_pose_the_planner_lp(self, monkeypatch):
        # Over a box the worst case is still the corner, but the costs at it
        # vary over the periods, so each planner is the LP.
        inst = MarketInstance([Producer(1.0, 1.0, a_by_period=[0.5, 1.0]),
                               Producer(0.5, 1.5, a=1.0)], Fixed([1.0, 2.0]), 2, box(2))
        posed = _count_lps(monkeypatch)
        _, C, worst_u = robust.solve_robust_cp_fixed(inst)
        assert len(posed) == 1 and posed[0].n_vars == inst.N * inst.T + inst.N
        assert_array_equal(worst_u, np.ones((2, 2)))
        report = poa_fixed(inst)
        assert len(posed) == 3
        assert report.C == C and report.ratio == 1.0

    @pytest.mark.parametrize("argv", [("solve", "--mode", "robust-cp"), ("poa",)],
                             ids=["robust-cp", "poa"])
    def test_elastic_box_poses_no_adversary(self, capsys, monkeypatch, argv):
        # The planner is the welfare program at the corner and the market
        # the same program, at costs constant over the periods: screening
        # curves, which prove the plan unique, so neither poses a QP and no
        # tie-break runs.
        lps, qps = _count_lps(monkeypatch), _count_qps(monkeypatch)
        code, report = run_json(capsys, argv[0], "--instance",
                                str(INSTANCES / "box_elastic.json"), *argv[1:])
        assert code == 0 and lps == [] and qps == []
        if argv[0] == "poa":
            assert report["results"]["ratio"] == 1.0
            assert report["results"]["E"] == report["results"]["C"]
        else:
            assert np.all(np.array(report["certificates"]["worst_scenario"]) == 1.0)

    def test_elastic_poa_off_the_corner_poses_the_planner_alone(self, capsys, monkeypatch,
                                                                tmp_path):
        # On a simplex the market is screening curves at the strict costs
        # and its worst case a vertex table: no solver.  The dualized
        # planner poses its crash LP and its QP, which proves its optimum
        # unique, as no two producers tie.
        path = tmp_path / "elastic_3x2.json"
        path.write_text(json.dumps(minimal_data(
            periods=2,
            producers=[{"c_inv": 0.2, "c_var": 0.1, "a": 3.0},
                       {"c_inv": 0.3, "c_var": 0.0, "a": 4.0},
                       {"c_inv": 0.25, "c_var": 0.2, "a": 2.0}],
            demand={"mode": "elastic", "alpha": [5.0, 4.0], "beta": [1.0, 0.5]})))
        inst = load_instance(str(path))[0]
        lps, qps = _count_lps(monkeypatch), _count_qps(monkeypatch)
        code, _ = run_json(capsys, "poa", "--instance", str(path))
        assert code == 0 and len(lps) == 1 and len(qps) == 1
        N, T, m = inst.N, inst.T, inst.uncertainty.P.shape[0]
        assert qps[0].n_vars == N * T + N + m * T
        assert lps[0].n_vars == qps[0].n_vars

    def test_twin_producers_split_evenly(self, capsys, monkeypatch):
        # Two identical producers free of uncertainty: any split of their
        # output is optimal, so the planner QP proves no unique optimum and
        # the minimum-norm tie-break, the second QP, splits them evenly.
        posed = _count_qps(monkeypatch)
        code, report = run_json(capsys, "solve", "--instance",
                                str(INSTANCES / "twin_elastic.json"), "--mode", "robust-cp")
        capacities = report["results"]["capacities"]
        assert code == 0 and len(posed) == 2
        assert capacities[0] > 1.0 and abs(capacities[0] - capacities[1]) <= 1e-9

    def test_box_scenario_form_poses_the_nominal_planner(self, monkeypatch):
        # The corner dominates every vertex, so the form is the nominal
        # planner there: screening curves at constant scalings, else its LP.
        inst = MarketInstance([Producer(1.0, 1.0, a=0.5), Producer(0.5, 1.5, a=1.0)],
                              Fixed([1.0, 2.0]), 2, box(2))
        posed = _count_lps(monkeypatch)
        robust.adjustable_scenario_form_fixed(inst)
        assert posed == []
        inst.producers[0].a_by_period = np.array([0.5, 1.0])
        robust.adjustable_scenario_form_fixed(inst)
        assert len(posed) == 1 and posed[0].n_vars == inst.N * inst.T + inst.N


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
