"""Config parsing, preset fidelity, the pipeline, CLI."""

import json
import os

import numpy as np
import pytest

from emdsm import checks, cli, em_core, harness
from emdsm.errors import ConfigError, StageError
from emdsm.forward import SolverSpec

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)
SQRT6 = np.sqrt(6.0)


def small_config_dict(**overrides):
    base = {
        "wave": {"dimension": 2, "wavelength": 1.0},
        "incidents": [
            {"direction": [1 / SQRT2, 1 / SQRT2], "polarization": [1 / SQRT2, -1 / SQRT2]},
        ],
        "shapes": [{"kind": "axis_square", "center": [-0.25, 0.0], "outer_side": 0.3, "eta": 1.0}],
        "surface": {"kind": "circle", "radius": 5.0, "count": 30},
        "forward": {"h": 0.05},
        "sampling": {"box": [[-1.0, 1.0], [-1.0, 1.0]], "spacing": 0.1},
    }
    base.update(overrides)
    return base


def set_value(raw, path, value):
    """raw with raw[path[0]]...[path[-1]] = value, making missing sections."""
    target = raw
    for key in path[:-1]:
        target = target[key] if isinstance(key, int) else target.setdefault(key, {})
    target[path[-1]] = value
    return raw


class TestConfigParsing:
    def test_defaults_applied(self):
        raw = small_config_dict()
        del raw["forward"], raw["sampling"]
        config = harness.config_from_dict(raw)
        assert config.forward_h == 0.02
        assert config.sampling_spacing == 0.01
        assert config.noise_epsilon == 0.0
        assert config.solver == SolverSpec()

    def test_3d_defaults(self):
        config = harness.preset("example3d")
        assert config.forward_h == 0.04
        assert config.sampling_spacing == 0.05

    def test_missing_key_named_in_error(self):
        raw = small_config_dict()
        del raw["surface"]
        with pytest.raises(ConfigError, match="'surface'"):
            harness.config_from_dict(raw)

    def test_non_orthogonal_incident_rejected(self):
        raw = small_config_dict()
        raw["incidents"] = [{"direction": [1.0, 0.0], "polarization": [0.1, 0.994987437106620]}]
        with pytest.raises(ConfigError):
            harness.config_from_dict(raw)

    def test_non_list_incidents_named(self):
        raw = small_config_dict(incidents=5)
        with pytest.raises(ConfigError, match="'incidents'"):
            harness.config_from_dict(raw)

    def test_unknown_solver_named(self):
        # the forward solve is always GMRES: any solver key is rejected
        for value in ("cg", "gmres", "dense", "auto"):
            raw = small_config_dict(forward={"h": 0.05, "solver": value})
            with pytest.raises(ConfigError, match="'forward.solver'"):
                harness.config_from_dict(raw)

    @pytest.mark.parametrize("key", ["restart", "maxiter"])
    @pytest.mark.parametrize("value", [0, -3, 2.7])
    def test_solver_counts_must_be_positive_integers(self, key, value):
        raw = small_config_dict(forward={"h": 0.05, key: value})
        with pytest.raises(ConfigError, match=f"'forward.{key}'"):
            harness.config_from_dict(raw)

    @pytest.mark.parametrize("dimension,path,value,key", [
        (2, ("surface", "radius"), "x", "'surface.radius'"),
        (2, ("wave", "dimension"), "two", "'wave.dimension'"),
        (2, ("sampling", "spacing"), "a", "'sampling.spacing'"),
        (2, ("noise", "seed"), "a", "'noise.seed'"),
        (2, ("sampling", "box"), [1, 2], "'sampling.box'"),
        (2, ("surface",), 5, "'surface'"),
        (2, ("shapes",), [5], r"'shapes\[0\]'"),
        (2, ("surface", "count"), 2.7, "'surface.count'"),
        (2, ("surface", "count"), 2, "'surface.count'"),
        (2, ("surface", "radius"), -5.0, "'surface.radius'"),
        (3, ("surface", "edge"), -10.0, "'surface.edge'"),
        (3, ("surface", "per_face"), 2.5, "'surface.per_face'"),
        (2, ("outputs", "formats"), "csv", "'outputs.formats' must be a list"),
        (2, ("wave", "wavelength"), True, "'wave.wavelength' must be a number"),
        (2, ("wave", "wavelength"), "1.5", "'wave.wavelength' must be a number, got '1.5'"),
        (2, ("noise", "epsilon"), "0.2", "'noise.epsilon' must be a number, got '0.2'"),
        (2, ("forward", "h"), "0.05", "'forward.h' must be a number"),
        (2, ("surface", "radius"), "5", "'surface.radius' must be a number"),
        (2, ("shapes", 0, "outer_side"), "0.3", r"'shapes\[0\]\.outer_side' must be a number"),
        (2, ("shapes", 0, "eta"), ["1", 0.0], r"'shapes\[0\]\.eta' must be a number"),
        (2, ("incidents", 0, "direction"), ["0.7071067811865476", "0.7071067811865476"],
         r"'incidents\[0\]\.direction' must be a number, got '0.7071067811865476'"),
        (2, ("incidents", 0, "polarization", 1), "-0.7071067811865476", r"'incidents\[0\]\.polarization' must be a number"),
        (2, ("incidents", 0, "direction"), 0.7, r"'incidents\[0\]\.direction' must be a list of numbers, got 0.7"),
        (2, ("shapes", 0, "center"), ["-0.25", "0"], r"'shapes\[0\]\.center' must be a number, got '-0.25'"),
        (2, ("sampling", "box", 1, 0), "-1.0", "'sampling.box' must be a number"),
        (3, ("shapes", 1, "center", 2), "0.3", r"'shapes\[1\]\.center' must be a number"),
        (2, ("noise", "epsilon"), True, "'noise.epsilon' must be a number"),
        (2, ("shapes", 0, "eta"), False, r"'shapes\[0\]\.eta' must be a number"),
        (2, ("shapes", 0, "outer_side"), True, r"'shapes\[0\]\.outer_side' must be a number"),
        (2, ("shapes", 0, "kind"), "disk", r"'shapes\[0\]\.kind': unknown shape kind 'disk'"),
        (2, ("shapes", 0, "kind"), ["axis_square"], r"'shapes\[0\]\.kind': unknown shape kind"),
        (2, ("shapes", 0, "kind"), "axis_cube", r"'shapes\[0\]\.kind': axis_cube does not match"),
        (2, ("shapes", 0, "center"), [0.0, 0.0, 0.0], r"'shapes\[0\]\.center' must be a 2-vector"),
        (3, ("shapes", 1, "center"), [0.0, 0.0], r"'shapes\[1\]\.center' must be a 3-vector"),
        (2, ("shapes", 0, "inner_side"), 0.1, r"'shapes\[0\]\.inner_side' is only meaningful for square_ring"),
        (3, ("shapes", 0, "inner_side"), 0.1, r"'shapes\[0\]\.inner_side' is only meaningful for square_ring"),
    ])
    def test_bad_values_raise_config_error_naming_the_key(self, dimension, path, value, key):
        raw = small_config_dict() if dimension == 2 else harness.preset("example3d").to_dict()
        with pytest.raises(ConfigError, match=key):
            harness.config_from_dict(set_value(raw, path, value))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name, path, key", [
        ("custom", ("wave", "wavelength"), "'wave.wavelength'"),
        ("custom", ("noise", "epsilon"), "'noise.epsilon'"),
        ("custom", ("forward", "tol"), "'forward.tol'"),
        ("custom", ("sampling", "box", 0, 1), "'sampling.box'"),
        ("fig1", ("diagnostic", "x_q", 0), "'diagnostic.x_q'"),
        ("custom", ("shapes", 0, "eta"), r"'shapes\[0\]\.eta'"),
        ("custom", ("shapes", 0, "eta", 1), r"'shapes\[0\]\.eta'"),
        ("custom", ("incidents", 0, "direction", 0), r"'incidents\[0\]\.direction'"),
        ("custom", ("shapes", 0, "center", 1), r"'shapes\[0\]\.center'"),
    ])
    def test_non_finite_values_rejected_naming_the_key(self, tmp_path, name, path, key, value):
        # Python's json reads NaN and Infinity, so they reach the parser
        raw = small_config_dict() if name == "custom" else harness.preset(name).to_dict()
        if name == "custom":
            raw["shapes"][0]["eta"] = [1.0, 0.0]  # a [re, im] pair, so that a path can reach either part
        target = raw
        for step in path[:-1]:
            target = target[step] if isinstance(step, int) else target.setdefault(step, {})
        target[path[-1]] = value
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=key):
            harness.load_config(config_path)

    def test_shape_kinds_written_back(self):
        # the kind follows the geometry: a ring without a hole is a square
        raw = small_config_dict()
        raw["shapes"] += [{"kind": "square_ring", "center": [0.5, 0.5], "outer_side": 0.3, "inner_side": 0.1},
                          {"kind": "square_ring", "center": [0.5, -0.5], "outer_side": 0.3, "inner_side": 0.0}]
        shapes = harness.config_from_dict(raw).to_dict()["shapes"]
        assert [s["kind"] for s in shapes] == ["axis_square", "square_ring", "axis_square"]
        assert [s["kind"] for s in harness.preset("example3d").to_dict()["shapes"]] == ["axis_cube"] * 2

    def test_complex_eta_pair(self):
        raw = small_config_dict()
        raw["shapes"][0]["eta"] = [1.0, 0.5]
        config = harness.config_from_dict(raw)
        assert config.contrast.shapes[0].eta == 1.0 + 0.5j

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(small_config_dict()))
        config = harness.load_config(path)
        assert config.name == "config"
        assert config.surface.count == 30

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            harness.load_config(tmp_path / "nope.json")

    def test_garbage_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            harness.load_config(path)


class TestPresetFidelity:
    """Table-driven audit: every preset number matches the published setup."""

    def test_2d_incident_table(self):
        for name in ("example1", "example2a", "example2b", "example3", "example4"):
            config = harness.preset(name)
            d1, d2 = (w.direction for w in config.incidents)
            p1, p2 = (w.polarization for w in config.incidents)
            np.testing.assert_allclose(d1, [1 / SQRT2, 1 / SQRT2])
            np.testing.assert_allclose(d2, [-1 / SQRT2, 1 / SQRT2])
            np.testing.assert_allclose(p1, [1 / SQRT2, -1 / SQRT2])
            np.testing.assert_allclose(p2, [1 / SQRT2, 1 / SQRT2])
            assert config.surface.to_dict() == {"kind": "circle", "radius": 5.0, "count": 30}
            assert config.sampling_box == ((-2.0, 2.0), (-2.0, 2.0))
            assert config.sampling_spacing == 0.01
            for shape in config.contrast.shapes:
                assert shape.eta == 1.0 + 0.0j

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("example1", [("axis_square", (-0.25, 0.0), 0.3, 0.0)]),
            ("example2a", [("axis_square", (-0.8, -0.7), 0.2, 0.0),
                           ("axis_square", (0.3, 0.8), 0.2, 0.0)]),
            ("example2b", [("axis_square", (-0.45, -0.35), 0.3, 0.0),
                           ("axis_square", (0.05, 0.15), 0.3, 0.0)]),
            ("example3", [("axis_square", (-5 / 8, -5 / 8), 0.15, 0.0),
                          ("axis_square", (-17 / 40, -17 / 40), 0.15, 0.0),
                          ("axis_square", (-21 / 40, 1 / 8), 0.15, 0.0)]),
            ("example4", [("square_ring", (0.0, 0.0), 0.6, 0.4)]),
        ],
    )
    def test_2d_geometry_table(self, name, expected):
        config = harness.preset(name)
        got = [
            (s["kind"], tuple(s["center"]), s["outer_side"], s["inner_side"])
            for s in config.to_dict()["shapes"]
        ]
        assert got == expected

    def test_3d_preset_table(self):
        config = harness.preset("example3d")
        assert config.ctx.dimension == 3
        d1, d2 = (w.direction for w in config.incidents)
        np.testing.assert_allclose(d1, np.ones(3) / SQRT3)
        np.testing.assert_allclose(d2, np.ones(3) / SQRT3)
        np.testing.assert_allclose(config.incidents[0].polarization, [1 / SQRT6, -2 / SQRT6, 1 / SQRT6])
        np.testing.assert_allclose(config.incidents[1].polarization, [1 / SQRT6, 1 / SQRT6, -2 / SQRT6])
        got = sorted((tuple(s.center), s.outer_side) for s in config.contrast.shapes)
        assert got == [((-0.4, 0.3, 0.3), 0.2), ((0.4, 0.3, 0.3), 0.2)]
        assert config.surface.to_dict() == {"kind": "cube_faces", "edge": 10.0, "per_face": 10}
        assert config.sampling_box == ((-2.0, 2.0),) * 3

    def test_fig_presets(self):
        for name in ("fig1", "fig2"):
            config = harness.preset(name)
            assert config.diagnostic == name
            assert config.diagnostic_point == (-0.25, 0.0)
            assert config.sampling_box == ((-2.0, 2.0), (-2.0, 2.0))

    def test_sampling_override(self):
        config = harness.preset("example3d", sampling_spacing=0.02)
        assert config.sampling_spacing == 0.02

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            harness.preset("example9")


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("run")
    raw = small_config_dict(outputs={"directory": str(outdir)})
    raw["incidents"].append(
        {"direction": [-1 / SQRT2, 1 / SQRT2], "polarization": [1 / SQRT2, 1 / SQRT2]}
    )
    config = harness.config_from_dict(raw)
    report = harness.run_experiment(config)
    return config, report, outdir


class TestRunExperiment:
    def test_report_structure(self, small_run):
        _, report, _ = small_run
        labels = [entry["label"] for entry in report.indices]
        assert labels == ["single_polarization:0", "single_polarization:1", "combined"]
        assert set(report.stage_seconds) == {"forward", "synthesis", "sweep", "export"}
        assert len(report.solver_info) == 2

    def test_stage_resources_and_residual_history(self, small_run):
        config, report, outdir = small_run
        parsed = json.loads((outdir / "report.json").read_text())
        assert set(parsed["stage_resources"]) == set(report.stage_seconds)
        for usage in parsed["stage_resources"].values():
            assert usage["peak_rss_mb"] > 0.0
            if os.path.exists("/proc/self/statm"):
                assert isinstance(usage["rss_mb"], float) and usage["rss_mb"] > 0.0
            else:
                assert usage["rss_mb"] is None
            assert isinstance(usage["minor_faults"], int) and usage["minor_faults"] >= 0
        for info in parsed["solver_info"]:
            assert info["method"] == "gmres"
            assert len(info["residual_history"]) == info["iterations"] > 0
            assert info["residual_history"][-1] <= config.solver.tol
            # the incidents were solved as one run of em_core.run_tasks
            assert (info["threads"], info["blas_pinned"]) == (
                (min(em_core._thread_count(), 2), True) if em_core._blas_threads() is not None else (1, False))

    def test_sweep_info_in_report(self, small_run):
        _, _, outdir = small_run
        parsed = json.loads((outdir / "report.json").read_text())
        # a 21 x 21 grid and a 30-point circle: both flips and no diagonal
        # swap, 11 x 11 representatives; one chunk runs on the calling
        # thread whatever the worker count
        expected = {"group_order": 4, "orbits": 121, "kernel_pairs": 121 * 30, "grid_pairs": 441 * 30,
                    "chunks": 1, "threads": 1, "blas_pinned": em_core._blas_threads() is not None}
        for entry in parsed["indices"]:
            assert entry["sweep_info"] == expected

    def test_outputs_written(self, small_run):
        _, report, outdir = small_run
        names = {p.split("/")[-1] for p in report.output_files}
        assert "scattered_incident1.csv" in names
        assert "index_combined.csv" in names
        assert "index_combined.pgm" in names
        assert "report.json" in names
        parsed = json.loads((outdir / "report.json").read_text())
        assert parsed["indices"][-1]["label"] == "combined"

    def test_report_files_are_the_grid_outputs(self, small_run):
        _, report, outdir = small_run
        files = [name for entry in report.indices for name in entry["files"]]
        assert files == [f"index_{stem}.{fmt}" for stem in
                         ("single_polarization_0", "single_polarization_1", "combined")
                         for fmt in ("csv", "pgm")]
        assert all((outdir / name).is_file() for name in files)
        data = ["scattered_incident1.csv", "scattered_incident2.csv"]
        assert sorted(p.split("/")[-1] for p in report.output_files) == sorted(files + data + ["report.json"])
        parsed = json.loads((outdir / "report.json").read_text())
        assert [entry["files"] for entry in parsed["indices"]] == [entry["files"] for entry in report.indices]

    def test_maxima_sorted_descending(self, small_run):
        _, report, _ = small_run
        for entry in report.indices:
            vals = [m["value"] for m in entry["maxima"]]
            assert vals == sorted(vals, reverse=True)

    def test_coarse_argmax_near_scatterer(self, small_run):
        _, report, _ = small_run
        loc = np.array(report.argmax["location"])
        assert np.linalg.norm(loc - np.array([-0.25, 0.0])) <= 0.25  # coarse 0.1 lattice

    def test_seed_ignored_without_noise(self, tmp_path):
        raw = small_config_dict(outputs={"directory": str(tmp_path / "a")},
                                noise={"epsilon": 0.0, "seed": 1})
        rep1 = harness.run_experiment(harness.config_from_dict(raw))
        raw["noise"]["seed"] = 99
        raw["outputs"]["directory"] = str(tmp_path / "b")
        rep2 = harness.run_experiment(harness.config_from_dict(raw))
        assert rep1.argmax == rep2.argmax
        csv_a = (tmp_path / "a" / "index_combined.csv").read_bytes()
        csv_b = (tmp_path / "b" / "index_combined.csv").read_bytes()
        assert csv_a == csv_b

    def test_deterministic_with_noise(self, tmp_path):
        for sub in ("a", "b"):
            raw = small_config_dict(outputs={"directory": str(tmp_path / sub)},
                                    noise={"epsilon": 0.2, "seed": 5})
            harness.run_experiment(harness.config_from_dict(raw))
        for name in ("index_combined.csv", "scattered_incident1_noisy.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_failure_names_its_stage(self, tmp_path):
        raw = small_config_dict(outputs={"directory": str(tmp_path)},
                                forward={"h": 0.05, "tol": 1e-14,
                                         "maxiter": 1, "restart": 2})
        with pytest.raises(StageError, match="^forward: GMRES") as info:
            harness.run_experiment(harness.config_from_dict(raw))
        assert info.value.stage == "forward"

    @pytest.mark.parametrize("dimension,box", [
        (2, [[1.0, -1.0], [-1.0, 1.0]]),    # inverted
        (2, [[0.5, 0.5], [-1.0, 1.0]]),     # zero extent
        (2, [[-4.0, 4.0], [-4.0, 4.0]]),    # corners outside the radius-5 circle
        (3, [[-1.0, 1.0]] * 2 + [[0.0, 5.0]]),  # reaches the cube's face
    ])
    def test_bad_sampling_box_fails_before_any_output(self, tmp_path, dimension, box):
        raw = small_config_dict() if dimension == 2 else harness.preset("example3d").to_dict()
        raw.update(sampling={"box": box, "spacing": 0.25}, outputs={"directory": str(tmp_path / "out")})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="'sampling.box'"):
            harness.run_experiment(harness.load_config(path))
        assert not (tmp_path / "out" / "scattered_incident1.csv").exists()

    @pytest.mark.parametrize("name,index,center", [
        ("example1", 0, [8.0, 0.0]),               # outside the radius-5 circle
        ("example1", 0, [5.0, 0.0]),               # straddling it
        ("example3d", 1, [-4.95, 0.3, 0.3]),       # through the cube's face
    ])
    def test_shape_outside_surface_fails_before_any_output(self, tmp_path, name, index, center):
        raw = harness.preset(name, out=str(tmp_path / "out"), sampling_spacing=0.1).to_dict()
        raw["shapes"][index]["center"] = center
        with pytest.raises(ConfigError, match=rf"'shapes\[{index}\]' must lie strictly inside"):
            harness.run_experiment(harness.config_from_dict(raw))
        assert not (tmp_path / "out").exists()

    def test_noisy_csv_written_only_with_noise(self, small_run):
        _, report, _ = small_run
        assert not any("noisy" in p for p in report.output_files)

    def test_data_csvs_are_written_at_export_in_order(self, tmp_path, monkeypatch):
        raw = small_config_dict(outputs={"directory": str(tmp_path / "a")}, noise={"epsilon": 0.2, "seed": 5})
        raw["incidents"].append(
            {"direction": [-1 / SQRT2, 1 / SQRT2], "polarization": [1 / SQRT2, 1 / SQRT2]}
        )
        report = harness.run_experiment(harness.config_from_dict(raw))
        assert [p.split("/")[-1] for p in report.output_files[:5]] == [
            "scattered_incident1.csv", "scattered_incident1_noisy.csv",
            "scattered_incident2.csv", "scattered_incident2_noisy.csv", "index_single_polarization_0.csv"]

        def refuse(samples, path):
            raise OSError("no space left")

        # the synthesis stage no longer writes, so a failed write is the export's
        monkeypatch.setattr(harness, "write_field_samples_csv", refuse)
        raw["outputs"]["directory"] = str(tmp_path / "b")
        with pytest.raises(StageError, match="^export: no space left") as info:
            harness.run_experiment(harness.config_from_dict(raw))
        assert info.value.stage == "export"


class TestDiagnosticRun:
    @pytest.mark.parametrize("name,edit,key", [
        ("fig2", lambda raw: raw["incidents"].pop(), "'incidents'"),
        ("fig1", lambda raw: raw["diagnostic"].update(x_q=[9.0, 0.0]), "'diagnostic.x_q'"),
        ("fig1", lambda raw: raw["diagnostic"].update(x_q=[5.0, 0.0]), "'diagnostic.x_q'"),
        ("fig1", lambda raw: raw["diagnostic"].update(x_q=["-0.25", 0.0]), "'diagnostic.x_q' must be a number"),
        ("fig1", lambda raw: raw.update(shapes=[{"kind": "axis_square", "center": [-0.25, 0.0], "outer_side": 0.3}]),
         "'shapes' cannot be given with 'diagnostic'"),
        ("fig1", lambda raw: raw["noise"].update(epsilon=0.3), "'noise.epsilon'"),
    ])
    def test_bad_diagnostic_fails_at_parse_time(self, tmp_path, name, edit, key):
        raw = harness.preset(name, out=str(tmp_path / "out")).to_dict()
        edit(raw)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=key):
            harness.run_experiment(harness.load_config(path))
        assert not (tmp_path / "out").exists()

    def test_seed_without_noise_is_valid(self):
        assert harness.preset("fig1", seed=1).noise_seed == 1

    def test_fig2_maps_and_ratios(self, tmp_path):
        config = harness.preset("fig2", out=str(tmp_path))
        config = harness.config_from_dict(
            {**config.to_dict(), "sampling": {"box": [[-2, 2], [-2, 2]], "spacing": 0.1}},
            name="fig2",
        )
        report = harness.run_experiment(config)
        labels = [e["label"] for e in report.indices]
        assert labels == ["cross:polarization_1", "cross:polarization_2", "cross:polarization_sum"]
        assert all("off_peak_ratio" in e for e in report.indices)
        assert set(report.stage_resources) == {"sweep", "export"}
        assert (tmp_path / "map_polarization_sum.pgm").exists()


    def test_sampling_within_half_a_wavelength_of_x_q_fails_at_export(self, tmp_path):
        config = harness.preset("fig1", out=str(tmp_path))
        config = harness.config_from_dict(
            {**config.to_dict(), "sampling": {"box": [[-0.4, -0.1], [-0.15, 0.15]], "spacing": 0.05}},
            name="fig1",
        )
        with pytest.raises(StageError, match="^export: no sampling point lies beyond half a wavelength") as info:
            harness.run_experiment(config)
        assert info.value.stage == "export"

    def test_fig1_sweep_info(self, tmp_path):
        config = harness.preset("fig1", out=str(tmp_path))
        config = harness.config_from_dict(
            {**config.to_dict(), "sampling": {"box": [[-1, 1], [-1, 1]], "spacing": 0.25}},
            name="fig1",
        )
        report = harness.run_experiment(config)
        parsed = json.loads((tmp_path / "report.json").read_text())
        assert len(parsed["indices"]) == 4
        for entry in parsed["indices"]:
            info = entry["sweep_info"]
            assert set(info) == {"group_order", "orbits", "kernel_pairs", "grid_pairs",
                                 "chunks", "threads", "blas_pinned"}
            # 512 points on a square box: flips and the diagonal swap, and
            # the representatives 0 <= k1 <= k2 <= 4 of the 9 x 9 grid
            assert (info["group_order"], info["orbits"]) == (8, 15)
            assert (info["kernel_pairs"], info["grid_pairs"]) == (15 * 512, 81 * 512)
        assert report.indices == parsed["indices"]


class TestCli:
    def test_preset_dump_config(self, capsys):
        assert cli.main(["preset", "example1", "--dump-config"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["name"] == "example1"
        assert parsed["shapes"][0]["center"] == [-0.25, 0.0]

    def test_verify_exit_code(self, capsys):
        assert cli.main(["verify", "trace"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "trace: PASS" in out

    def test_verify_json_is_the_verify_results(self, capsys):
        assert cli.main(["verify", "trace", "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        expected = json.loads(json.dumps([checks.verify("trace")]))
        for result in printed + expected:
            del result["seconds"]
        assert printed == expected

    @pytest.mark.parametrize("under_file", [False, True])
    def test_unusable_output_directory_reports_error(self, tmp_path, capsys, under_file):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "out" if under_file else blocker
        assert cli.main(["preset", "fig1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: key 'outputs.directory'")

    def test_run_subcommand(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        raw = small_config_dict(outputs={"directory": str(tmp_path / "out")})
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path)]) == 0
        assert (tmp_path / "out" / "report.json").exists()

    def test_bad_config_reports_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        raw = small_config_dict()
        del raw["incidents"]
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path)]) == 2
        assert "incidents" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_config_reports_error(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"name": "caf\xe9"}')
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: configuration file {path} cannot be read")

    def test_bad_config_value_reports_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(set_value(small_config_dict(), ("surface", "radius"), "x")))
        assert cli.main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: key 'surface.radius'")
