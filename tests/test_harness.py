"""Tests for the experiment harness: config validation, deterministic
reports, refinement scaling, snapshot I/O, and the command-line front end."""

import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from difflab import (
    ConfigError,
    DomainMask,
    GeneralSystemSpec,
    GridSpec,
    PRESET_SYSTEMS,
    ParameterError,
    StructuralError,
    Trajectory,
    admissible_graph_domain,
    ball_mask,
    full_mask,
    kernel_calibration,
    kernel_evolve,
    load_trajectory,
    save_trajectory,
    source_ball_center,
)
from difflab import harness
from difflab.cli import main
from difflab.harness import (
    ExperimentConfig,
    preset_config,
    preset_names,
    run_experiment,
    run_with_refinement,
)

SMALL_CONFIGS = {
    "heatkernel": {"experiment": "heatkernel", "seed": 1,
                   "grid": {"n": 33}, "time": {"t_end": 0.2, "n_frames": 48}},
    "oscdecay": {"experiment": "oscdecay", "seed": 2, "grid": {"n": 25}},
    "skt": {"experiment": "skt", "seed": 3,
            "grid": {"n": 17}, "time": {"t_end": 0.1}},
    "general": {"experiment": "general", "seed": 5, "grid": {"n": 17}},
    "interp": {"experiment": "interp", "seed": 6, "grid": {"n": 17}},
}
# the quadratic quartet, a network the general preset runs
GENERAL_QUAD4 = {"experiment": "general", "seed": 4, "grid": {"n": 17},
                 "time": {"t_end": 0.25}, "system": {"name": "quad4"}}

EXPECTED_CHECKS = {
    "heatkernel": ["kernel_mass_conservation", "kernel_decay_slopes",
                   "kernel_moment_slope"],
    "oscdecay": ["oscillation_decay", "supremum_bound"],
    "skt": ["skt_positivity", "skt_v_ceiling", "skt_clipping_audit",
            "skt_nu_bounds", "skt_evolution_identity", "lp_energy",
            "one_sided_interpolation"],
    "general": ["structural_assumptions", "transformed_system_residual",
                "transform_roundtrip", "quad_mass_conservation",
                "quad_mu_bounds", "quad_integral_identities"],
    "interp": ["one_sided_interpolation", "cut_ball_estimate"],
}


# ---------------------------------------------------------------------------
# config loading and validation


def test_preset_catalogue():
    assert preset_names() == sorted(EXPECTED_CHECKS)
    with pytest.raises(ConfigError, match="valid presets"):
        preset_config("nope")
    # presets are deep copies: mutating one must not leak into the next
    preset_config("skt")["system"]["d1"] = 99.0
    assert preset_config("skt")["system"]["d1"] == 0.1


def test_quad4_is_a_network_of_general_not_a_preset():
    with pytest.raises(ConfigError, match="valid presets: general, "
                                          "heatkernel, interp, oscdecay, skt$"):
        ExperimentConfig({"experiment": "quad4", "seed": 0})


def test_config_requires_experiment_and_seed():
    with pytest.raises(ConfigError, match="experiment"):
        ExperimentConfig({"seed": 0})
    with pytest.raises(ConfigError, match="experiment"):
        ExperimentConfig({"experiment": ["skt"], "seed": 0})
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig({"experiment": "skt"})


@pytest.mark.parametrize("override, fragment", [
    ({"grid": {"dim": 5}}, "grid.dim"),
    ({"grid": {"n": 2}}, "grid.n"),
    ({"grid": {"n": [17, 17, 17]}}, "grid.n has 3 entries"),
    ({"grid": {"extent": 0.0}}, "grid.extent"),
    ({"time": {"t_end": -1.0}}, "time.t_end"),
    ({"time": {"dt": 0.0}}, "time.dt"),
    ({"time": {"n_frames": 1}}, "time.n_frames"),
    ({"estimate": {"alpha": 1.0}}, "estimate.alpha"),
    ({"estimate": {"p": 0.5}}, "estimate.p"),
    ({"experiment": "heatkernel", "estimate": {"eps": 0.7}}, "estimate.eps"),
    ({"experiment": "oscdecay", "estimate": {"c0": 0.5}}, "estimate.c0"),
    ({"estimate": {"C": -1.0}}, "estimate.C"),
    ({"seed": 1.5}, "seed"),
    ({"output": {"stem": ""}}, "output.stem"),
    ({"grid": "tiny"}, "grid"),
    ({"grid": {"N": 65}}, "grid.N"),
    ({"sytem": {"d1": 0.2}}, "sytem"),
    ({"system": {"n_bumps": 2.5}}, "system.n_bumps"),
    ({"system": {"n_bumps": True}}, "system.n_bumps"),
    ({"system": {"n_bumps": 0}}, "system.n_bumps"),
    ({"system": {"d1": "x"}}, "system.d1"),
    ({"experiment": "interp", "system": {"domain_radius": -0.1}},
     "system.domain_radius must be > 0"),
    ({"experiment": "heatkernel", "system": {"source": ["a", 1]}},
     "system.source"),
    ({"experiment": "heatkernel", "system": {"source": [0.5]}},
     "system.source has 1 entries"),
    ({"experiment": "general", "system": {"box": [0.0, 10.0]}},
     "unknown config field system.box"),
    ({"experiment": "general", "system": {"samples": 0}},
     "system.samples must be >= 1"),
    # a leaf the preset's pipeline does not read is not in its schema
    ({"estimate": {"a0": 0.25}}, "unknown config field estimate.a0"),
    ({"experiment": "general", "estimate": {"alpha": 0.9}},
     "unknown config field estimate"),
    ({"experiment": "interp", "time": {"t_end": 1.0}},
     "unknown config field time"),
    ({"experiment": "oscdecay", "estimate": {"eps": 0.25}},
     "unknown config field estimate.eps"),
])
def test_config_errors_name_the_offending_field(override, fragment):
    data = {"experiment": "skt", "seed": 0, **override}
    with pytest.raises(ConfigError, match=fragment.replace(".", r"\.")):
        ExperimentConfig(data)


@pytest.mark.parametrize("experiment, block, fragment", [
    ("oscdecay", '"estimate": {"a0": NaN}', "estimate.a0"),
    ("oscdecay", '"estimate": {"p": NaN}', "estimate.p"),
    ("oscdecay", '"grid": {"extent": Infinity}', "grid.extent"),
    ("oscdecay", '"grid": {"n": Infinity}', "grid.n"),
    ("oscdecay", '"grid": {"extent": 1' + "0" * 400 + "}", "grid.extent"),
    ("oscdecay", '"time": {"t_end": -Infinity}', "time.t_end"),
    ("general", '"system": {"b": [1, Infinity]}', "system.b[1]"),
    ("heatkernel", '"system": {"p_list": [1.0, NaN]}', "system.p_list[1]"),
])
def test_config_rejects_non_finite_numbers(experiment, block, fragment,
                                           tmp_path):
    # json parses NaN and Infinity; a NaN a0 would give beta = A = NaN and
    # an infinite extent would fail mid-pipeline
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"experiment": "{experiment}", "seed": 0, {block}}}')
    with pytest.raises(ConfigError, match=re.escape(fragment) + " must be"):
        ExperimentConfig.from_json(path)


def test_config_keeps_infinite_exponents(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"experiment": "oscdecay", "seed": 0, '
                    '"estimate": {"p": Infinity, "q": Infinity}}')
    cfg = ExperimentConfig.from_json(path)
    assert math.isinf(cfg.p) and math.isinf(cfg.q)
    path.write_text('{"experiment": "heatkernel", "seed": 0, '
                    '"system": {"p_list": [1.0, Infinity]}}')
    cfg = ExperimentConfig.from_json(path)
    assert cfg.system["p_list"] == [1.0, math.inf]


@pytest.mark.parametrize("experiment, key, value", [
    ("heatkernel", "slope_tol", -1.0),
    ("skt", "sigma", -0.5),
    ("skt", "r_u", -1.0),
    ("general", "amp", -1.0),
    ("interp", "margin", -1.0),
])
def test_negative_system_numbers_are_config_errors(experiment, key, value):
    # each used to run (a FAIL row) or die mid-pipeline
    data = {"experiment": experiment, "seed": 0, "system": {key: value}}
    with pytest.raises(ConfigError, match=rf"system\.{key} must be >= 0"):
        ExperimentConfig(data)


def test_zero_skt_rates_stay_valid():
    cfg = ExperimentConfig({"experiment": "skt", "seed": 0,
                            "system": {"sigma": 0, "r_u": 0}})
    assert cfg.system["sigma"] == 0.0 and cfg.system["r_u"] == 0.0


def test_interp_rejects_nonpositive_domain_radius_before_any_solve():
    # a negative radius kept one domain node, on which both checks passed
    data = {"experiment": "interp", "seed": 0, "grid": {"n": 9},
            "system": {"domain_radius": -0.1}}
    with pytest.raises(ConfigError, match=r"system\.domain_radius"):
        run_experiment(data)


def test_config_rejects_nonpositive_gamma_before_any_solve():
    # 3-D oscdecay at p = 2, q = 3: gamma = 2 - 2/p - d/q = 0
    data = {"experiment": "oscdecay", "seed": 0, "grid": {"dim": 3},
            "estimate": {"p": 2, "q": 3}}
    fields = r"grid\.dim = 3, estimate\.p = 2 and estimate\.q = 3"
    with pytest.raises(ConfigError, match=fields):
        ExperimentConfig(data)
    with pytest.raises(ConfigError, match="gamma"):
        run_experiment(data)


def test_config_checks_interpolation_hypotheses_before_any_solve():
    # q = 5 is below (3 - alpha)/(2 - alpha) p = 6, which the skt
    # pipeline's interpolation check needs
    data = {"experiment": "skt", "seed": 0, "estimate": {"p": 4, "q": 5}}
    fields = (r"grid\.dim = 2, estimate\.p = 4, estimate\.q = 5 and "
              r"estimate\.alpha = 0 fail the interpolation hypotheses")
    with pytest.raises(ConfigError, match=fields):
        ExperimentConfig(data)


def test_general_rejects_fractional_reactant_exponents():
    # uum takes integer exponents; 1.5 must not run as 1
    data = {"experiment": "general", "seed": 0, "system": {"b": [1.5, 2]}}
    with pytest.raises(ConfigError, match=r"system\.b\[0\] must be an "
                                          r"integer, got 1\.5"):
        ExperimentConfig(data)


def test_config_resolves_auto_exponent():
    cfg = ExperimentConfig({"experiment": "interp", "seed": 0})
    alpha = cfg.alpha
    assert cfg.q == pytest.approx(cfg.p * (3.0 - alpha) / (2.0 - alpha))
    echo = cfg.echo()
    assert echo["estimate"]["q"] == cfg.q
    assert "constants" not in echo       # interp reads no constants bundle
    with pytest.raises(ConfigError, match="estimate.q"):
        ExperimentConfig({"experiment": "interp", "seed": 0,
                          "estimate": {"p": "inf"}})


def test_config_infinite_exponents_echo_as_strings():
    cfg = ExperimentConfig({"experiment": "oscdecay", "seed": 0})
    assert math.isinf(cfg.p) and math.isinf(cfg.q)
    text = json.dumps(cfg.echo())      # must be JSON-serializable
    assert '"inf"' in text


def test_only_oscdecay_builds_and_echoes_the_constants_bundle():
    for name in preset_names():
        cfg = ExperimentConfig({"experiment": name, "seed": 0})
        assert (cfg.constants is not None) == (name == "oscdecay"), name
        assert ("constants" in cfg.echo()) == (name == "oscdecay"), name
    assert "gamma" in ExperimentConfig(
        {"experiment": "oscdecay", "seed": 0}).echo()["constants"]


def _forced_oscdecay_at_a0_half():
    """The preset forced at estimate.q = 4 and a0 = 1/2, with its config."""
    cfg = ExperimentConfig({"experiment": "oscdecay", "seed": 0,
                            "estimate": {"a0": 0.5, "q": 4},
                            "system": {"forcing": "random"}})
    return cfg, run_experiment(cfg)


def test_forced_oscdecay_supremum_applies_the_kernel_fit_over_its_horizon():
    # the bound integrates over (0, t_end], t_end/a0 = 0.12 in the time unit
    # a0; the fit over the cylinder window beta R^2 it applied before was
    # 0.4494
    cfg, report = _forced_oscdecay_at_a0_half()
    sup = report.checks[1]
    assert sup.check == "supremum_bound" and sup.passed
    mask = full_mask(cfg.grid_spec())
    assert sup.params["kernel_prefactor"] == \
        kernel_calibration(mask, cfg.t_end / cfg.a0, 4.0)
    assert sup.params["kernel_prefactor"] == pytest.approx(0.5796, abs=1e-4)


def test_oscdecay_echoes_the_bundle_its_checks_apply():
    # at a0 = 1/2 the echo printed the bundle at a0 (K1 1.1212, beta
    # 0.06125) while the rows applied the one at a0 = 1 (K1 1.3333, beta
    # 0.1225)
    cfg, report = _forced_oscdecay_at_a0_half()
    echo = report.to_dict()["config"]["constants"]
    osc, sup = report.checks
    assert (echo["K1"], echo["beta"]) == (sup.params["K1"],
                                          osc.params["beta"])
    assert echo["a0"] == 1.0 and cfg.a0 == 0.5


class _ReadLog(dict):
    """A ``system`` block that records each key a pipeline reads."""

    def __init__(self, data):
        super().__init__(data)
        self.reads = set()

    def __getitem__(self, key):
        self.reads.add(f"system.{key}")
        return super().__getitem__(key)


def _pipeline_reads(data) -> set:
    """The grid, time, estimate and system leaves one pipeline run reads:
    attribute reads on the config, ``system[key]`` reads, and the leaves
    the constants bundle is built from when the pipeline reads it."""
    cfg = ExperimentConfig(data)
    attrs = set()
    system = cfg.system = _ReadLog(cfg.system)

    class Recording(ExperimentConfig):
        def __getattribute__(self, key):
            attrs.add(key)
            return object.__getattribute__(self, key)

    cfg.__class__ = Recording
    harness._PIPELINES[cfg.experiment](cfg, np.random.default_rng(cfg.seed))
    if "constants" in attrs:
        attrs |= {"dim", "p", "q", "a0", "c0"}
    return system.reads | {
        f"{block}.{key}" for block in ("grid", "time", "estimate")
        for key in cfg.resolved.get(block, {}) if key in attrs}


def test_every_preset_leaf_is_read_by_its_pipeline():
    variants = {name: [{}] for name in preset_names()}
    variants["oscdecay"] = [{"system": {"forcing": f}}
                            for f in ("none", "random")]
    variants["general"] = [{"system": {"name": key, "samples": 500}}
                           for key in sorted(PRESET_SYSTEMS)]
    for name, overrides in variants.items():
        preset = preset_config(name)
        leaves = {f"{block}.{key}"
                  for block in ("grid", "time", "estimate", "system")
                  for key in preset.get(block, {})}
        read = set()
        for override in overrides:
            read |= _pipeline_reads({**SMALL_CONFIGS[name], **override})
        assert leaves - read == set(), name


def _another(value):
    """A valid value other than a numeric ``system`` default."""
    return [v + 1 for v in value] if isinstance(value, list) else value + 1


def test_a_leaf_the_run_does_not_read_is_a_config_error():
    # an unread leaf would be echoed as if it had run: a network leaf the
    # factory general names does not take, and an unforced oscdecay's f_amp
    variants = {name: [{}] for name in preset_names()}
    variants["general"] = [{"system": {"name": key, "samples": 500}}
                           for key in sorted(PRESET_SYSTEMS)]
    unread = set()
    for name, overrides in variants.items():
        defaults = preset_config(name)["system"]
        for override in overrides:
            data = {**SMALL_CONFIGS[name], **override}
            system = data.get("system", {})
            read = _pipeline_reads(data)
            for key in defaults:
                if f"system.{key}" in read:
                    continue
                unread.add((system.get("name", name), key))
                bad = {**data,
                       "system": {**system, key: _another(defaults[key])}}
                with pytest.raises(ConfigError, match=rf"system\.{key} = .* "
                                   r"is read only when system\.\w+ is '"):
                    ExperimentConfig(bad)
    assert unread == {("oscdecay", "f_amp"), ("uum", "sp"), ("uum", "sq"),
                      ("p_q_2s3", "m"), ("p_q_2s3", "b")} | {
        (network, key) for network in ("quad4", "s1_2s2")
        for key in ("m", "b", "sp", "sq")}


def test_a_resolved_network_echo_loads_and_refines_again():
    # the echo holds every default, the leaves p_q_2s3 does not read too
    cfg = ExperimentConfig({**SMALL_CONFIGS["general"],
                            "system": {"name": "p_q_2s3"}})
    again = ExperimentConfig(cfg.echo())
    assert again.resolved == cfg.resolved
    reports = run_with_refinement(again, levels=1)
    assert [r.config["grid"]["n"] for r in reports] == [17, 33]
    assert all(r.passed() for r in reports)


def test_refined_scales_mesh_frames_and_dt():
    cfg = ExperimentConfig({"experiment": "general", "seed": 0,
                            "grid": {"n": 17},
                            "time": {"t_end": 0.1, "dt": 1e-4,
                                     "n_frames": 33}})
    fine = cfg.refined(1)
    assert fine.n == (33, 33)
    assert fine.n_frames == 65
    assert fine.dt == pytest.approx(2.5e-5)
    same = cfg.refined(0)
    assert same.n == cfg.n and same.dt == cfg.dt
    finer = cfg.refined(2)
    assert finer.n == (65, 65)
    assert finer.stem == "report_r2"
    with pytest.raises(ConfigError):
        cfg.refined(-1)
    # interp has no time block: only its mesh refines
    interp = ExperimentConfig({"experiment": "interp", "seed": 0,
                               "grid": {"n": 9}}).refined(1)
    assert interp.n == (17, 17, 17) and "time" not in interp.resolved


def test_config_from_json_reads_a_path(tmp_path):
    payload = {"experiment": "skt", "seed": 7, "grid": {"n": 17}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    for where in (path, str(path)):
        assert ExperimentConfig.from_json(where).resolved \
            == ExperimentConfig(payload).resolved
    path.write_text("{broken")
    with pytest.raises(ConfigError, match="not valid JSON"):
        ExperimentConfig.from_json(path)


def test_unreadable_config_path_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        ExperimentConfig.from_json(tmp_path / "missing.json")
    # JSON text is a file name to from_json, and run_experiment takes a
    # dict or an ExperimentConfig only
    with pytest.raises(ConfigError, match="cannot read config"):
        ExperimentConfig.from_json(json.dumps(SMALL_CONFIGS["oscdecay"]))
    for config in (str(tmp_path / "missing.json"),
                   json.dumps(SMALL_CONFIGS["oscdecay"])):
        with pytest.raises(ConfigError, match="JSON object, got str"):
            run_experiment(config)


# ---------------------------------------------------------------------------
# running experiments


@pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
def test_preset_pipelines_pass_at_small_size(name):
    report = run_experiment(SMALL_CONFIGS[name])
    assert [c.check for c in report.checks] == EXPECTED_CHECKS[name]
    assert report.passed(), [c.check for c in report.checks if not c.passed]


def test_3d_skt_runs_from_its_preset():
    # with no constants bundle to build, the 2-D exponents p = 2, q = 3
    # meet the interpolation hypotheses in 3-D too
    report = run_experiment({"experiment": "skt", "seed": 0,
                             "grid": {"dim": 3, "n": 17}})
    assert [c.check for c in report.checks] == EXPECTED_CHECKS["skt"]
    assert report.passed(), [c.check for c in report.checks if not c.passed]


def test_reports_are_deterministic():
    first = run_experiment(SMALL_CONFIGS["oscdecay"]).to_json()
    second = run_experiment(SMALL_CONFIGS["oscdecay"]).to_json()
    assert first == second
    other_seed = dict(SMALL_CONFIGS["oscdecay"], seed=99)
    assert run_experiment(other_seed).to_json() != first


def test_report_csv_has_a_header_and_one_line_per_check():
    report = run_experiment(GENERAL_QUAD4)
    lines = report.to_csv().strip().split("\n")
    assert lines[0].startswith("check,lhs,rhs,margin,pass")
    assert len(lines) == 1 + len(report.checks)


def _reject_constant(token):
    raise ValueError(f"bare {token} is not JSON")


@pytest.fixture(scope="module")
def preset_reports():
    """Every preset at seeds 0-2, and interp at q = inf, with its JSON."""
    configs = [{"experiment": name, "seed": seed}
               for name in preset_names() for seed in range(3)]
    configs.append({"experiment": "interp", "seed": 0, "grid": {"n": 17},
                    "estimate": {"q": "inf"}})
    return [(cfg, run_experiment(cfg)) for cfg in configs]


def test_preset_reports_are_strict_json(preset_reports):
    for _, report in preset_reports:
        json.loads(report.to_json(), parse_constant=_reject_constant)
    # the q = inf run spells its exponent, in the echo and in the rows
    report = preset_reports[-1][1]
    assert '"q": "inf"' in report.to_json()
    assert "Infinity" not in report.to_csv()


def test_every_preset_row_passes_iff_lhs_le_rhs(preset_reports):
    for cfg, report in preset_reports:
        for c in report.checks:
            assert c.passed == (c.lhs <= c.rhs) == (c.margin >= 0), \
                (cfg, c.check)


def test_a1_violation_raises_where_the_harness_runs_a_network(monkeypatch):
    sink = GeneralSystemSpec((1.0,), [[(-1.0, (0,))]], (1.0,), [[1.0]],
                             K=1.0)
    monkeypatch.setitem(PRESET_SYSTEMS, "quad4", lambda **kw: sink)
    with pytest.raises(StructuralError) as exc:
        run_experiment({"experiment": "general", "seed": 0,
                        "grid": {"n": 9}, "system": {"name": "quad4"}})
    assert exc.value.witness["condition"] == "A1"


def test_emit_writes_byte_identical_files(tmp_path):
    cfg = dict(SMALL_CONFIGS["interp"])
    cfg["output"] = {"dir": str(tmp_path), "stem": "rep"}
    run_experiment(cfg)
    first = {suffix: (tmp_path / f"rep{suffix}").read_bytes()
             for suffix in (".json", ".csv")}
    run_experiment(cfg)
    for suffix, payload in first.items():
        assert (tmp_path / f"rep{suffix}").read_bytes() == payload


def test_run_with_refinement_halves_the_mesh():
    reports = run_with_refinement(GENERAL_QUAD4, levels=1)
    assert len(reports) == 2
    assert reports[0].config["grid"]["n"] == 17
    assert reports[1].config["grid"]["n"] == 33
    assert all(r.passed() for r in reports)


def test_frozen_constant_gates_verification():
    cfg = dict(SMALL_CONFIGS["interp"])
    cal = run_experiment(cfg)
    fitted = next(c for c in cal.checks
                  if c.check == "one_sided_interpolation")
    assert fitted.params["mode"] == "calibration"
    cfg["estimate"] = {"C": 1e-9}
    assert not run_experiment(cfg).passed()


# ---------------------------------------------------------------------------
# snapshot I/O


def test_trajectory_round_trip(tmp_path):
    mask = ball_mask(GridSpec.make((1.0, 1.0), 21), (0.5, 0.5), 0.4)
    rng = np.random.default_rng(0)
    path = tmp_path / "traj.bin"
    for n_frames in (4, 1):                 # a single snapshot is one frame
        times = 0.05 * np.arange(n_frames)
        values = rng.standard_normal((n_frames, mask.active_count))
        save_trajectory(path, Trajectory(mask, times, values))
        back = load_trajectory(path)
        assert back.n_frames == n_frames
        assert back.grid.n == mask.grid.n
        assert back.grid.h == pytest.approx(mask.grid.h)
        np.testing.assert_array_equal(back.mask.active, mask.active)
        np.testing.assert_array_equal(back.values, values)
        np.testing.assert_allclose(back.times, times, atol=1e-15)


def test_graph_domain_kernel_round_trip_keeps_times_origin_and_ghosts(
        tmp_path):
    grid = GridSpec.make((2.0, 2.0), 33, origin=(-1.0, -1.0))
    mask = admissible_graph_domain(grid, 1.0, 0.0)
    assert mask.dirichlet.any()
    kern = kernel_evolve(mask, tuple(source_ball_center(1.0, None, 2)),
                         t_end=0.02, n_frames=16)    # geometric frame times
    path = tmp_path / "kernel.bin"
    save_trajectory(path, kern)
    back = load_trajectory(path)
    assert back.grid == grid
    np.testing.assert_array_equal(back.times, kern.times)
    np.testing.assert_array_equal(back.mask.active, mask.active)
    np.testing.assert_array_equal(back.mask.dirichlet, mask.dirichlet)
    np.testing.assert_array_equal(back.values, kern.values)


def test_truncated_or_foreign_snapshot_raises(tmp_path):
    mask = full_mask(GridSpec.make((1.0,), 9))
    path = tmp_path / "traj.bin"
    save_trajectory(path, Trajectory(mask, np.array([0.0, 0.1]),
                                     np.ones((2, mask.active_count))))
    data = path.read_bytes()
    for bad in (data[:-1], data[:12], data + b"\0", b"not a snapshot",
                b"\0" * len(data)):
        path.write_bytes(bad)
        with pytest.raises(ParameterError):
            load_trajectory(path)


def test_snapshot_with_unordered_or_nan_times_raises(tmp_path):
    mask = full_mask(GridSpec.make((1.0,), 9))
    times = np.array([0.0, 0.1, 0.2])
    path = tmp_path / "traj.bin"
    save_trajectory(path, Trajectory(mask, times,
                                     np.ones((3, mask.active_count))))
    data = path.read_bytes()
    assert data.count(times.tobytes()) == 1
    for bad in ([0.0, 0.2, 0.1], [0.0, np.nan, 0.2]):
        path.write_bytes(data.replace(times.tobytes(),
                                      np.array(bad).tobytes()))
        with pytest.raises(ParameterError, match="strictly increasing"):
            load_trajectory(path)


# ---------------------------------------------------------------------------
# command line


def test_cli_run_passes_and_prints_verdicts(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL_CONFIGS["oscdecay"]))
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] oscillation_decay" in out
    assert "overall: PASS" in out


def test_cli_run_reads_a_config_file_named_like_json_text(
        tmp_path, monkeypatch, capsys):
    # a file name whose first character is a brace is still a file name
    monkeypatch.chdir(tmp_path)
    pathlib.Path("{run}.json").write_text(
        json.dumps(SMALL_CONFIGS["oscdecay"]))
    assert main(["run", "{run}.json"]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_cli_run_reports_failure_with_exit_two(tmp_path, capsys):
    cfg = dict(SMALL_CONFIGS["interp"])
    cfg["estimate"] = {"C": 1e-9}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 2
    assert "overall: FAIL" in capsys.readouterr().out


def test_cli_rejects_broken_configs_with_exit_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 1
    assert "config error" in capsys.readouterr().err
    path.write_text(json.dumps({"experiment": "nope", "seed": 0}))
    assert main(["run", str(path)]) == 1
    assert "valid presets" in capsys.readouterr().err
    path.write_text(json.dumps({"experiment": "oscdecay", "seed": 0,
                                "system": {"w_amp": "x"}}))
    assert main(["run", str(path)]) == 1
    assert "config error: system.w_amp" in capsys.readouterr().err


def test_cli_run_of_a_config_that_is_not_utf8_is_a_config_error(tmp_path):
    # the bytes once escaped from lab run as a UnicodeDecodeError traceback
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00bad")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-m", "difflab.cli", "run",
                          str(path)], capture_output=True, text=True,
                         env=env)
    assert out.returncode == 1
    assert out.stderr.startswith("config error: cannot read config")
    assert "Traceback" not in out.stderr


def test_cli_run_refine_and_out(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(GENERAL_QUAD4))
    out_dir = tmp_path / "reports"
    assert main(["run", str(path), "--refine", "1",
                 "--out", str(out_dir)]) == 0
    assert (out_dir / "report.json").exists()
    assert (out_dir / "report_r1.json").exists()
    text = capsys.readouterr().out
    assert "level 0" in text and "level 1" in text


def test_negative_refinement_is_a_config_error(tmp_path, capsys):
    with pytest.raises(ConfigError, match="levels must be >= 0"):
        run_with_refinement(GENERAL_QUAD4, levels=-1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(GENERAL_QUAD4))
    assert main(["run", str(path), "--refine", "-1"]) == 1
    assert "config error: refinement levels" in capsys.readouterr().err


def test_cli_seed_override_changes_the_run(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL_CONFIGS["oscdecay"]))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", str(path), "--out", str(out_a)]) == 0
    assert main(["run", str(path), "--out", str(out_b),
                 "--seed", "123"]) == 0
    assert (out_a / "report.json").read_text() \
        != (out_b / "report.json").read_text()


def test_cli_presets_subcommand(capsys):
    assert main(["presets"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert sorted(table) == preset_names()
    assert table["skt"]["system"]["d1"] == 0.1


def test_cli_constants_subcommand(capsys):
    assert main(["constants", "--d", "2", "--p", "inf", "--q", "inf"]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert bundle["gamma"] == 2.0
    assert 0.0 < bundle["delta"] < 1.0


def test_import_loads_no_heavy_scipy_submodule():
    """``import difflab`` and its CLI need numpy and scipy.sparse only; the
    sparse solver and graph routines load on first use."""
    heavy = ["scipy.stats", "scipy.ndimage", "scipy.sparse.linalg",
             "scipy.sparse.csgraph", "scipy.linalg"]
    code = ("import sys, difflab, difflab.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
