import json

import numpy as np
import pytest

from quditmeas.cli import main


def write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


Z_FACTOR = {"qudit": 0, "axis": "z"}
SPIN_Z = {"coeff": 1.0, "factors": [Z_FACTOR]}


@pytest.fixture
def z_observable(tmp_path):
    return write(
        tmp_path / "obs.json",
        {"dims": [2], "terms": [{"re": 1.0, "im": 0.0, "paulis": [[0, 1]]}]},
    )


@pytest.fixture
def zero_state(tmp_path):
    return write(tmp_path / "state.json", {"dims": [2], "qudits": [[[1, 0], [0, 0]]]})


@pytest.fixture
def fast_settings_file(tmp_path):
    return write(
        tmp_path / "settings.json",
        {
            "budget": 600,
            "mode": "gc",
            "adaptive": True,
            "mcmc": {"n_chains": 2, "min_samples": 100, "max_samples": 200},
        },
    )


class TestDecompose:
    def test_spin_file_single_term(self, tmp_path, capsys):
        spin = write(
            tmp_path / "spin.json",
            {"dims": [2], "terms": [{"coeff": 1.0, "factors": [{"qudit": 0, "axis": "z"}]}]},
        )
        assert main(["decompose", spin, "--out", str(tmp_path / "out")]) == 0
        data = json.loads((tmp_path / "out" / "observable.json").read_text())
        assert len(data["terms"]) == 1
        assert data["terms"][0]["paulis"] == [[0, 1]]
        assert "terms: 1" in capsys.readouterr().out

    def test_dense_x_matrix(self, tmp_path):
        dense = write(
            tmp_path / "x.json",
            {"dims": [2], "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
        )
        assert main(["decompose", dense, "--out", str(tmp_path / "out")]) == 0
        data = json.loads((tmp_path / "out" / "observable.json").read_text())
        assert data["terms"] == [{"re": 1.0, "im": 0.0, "paulis": [[1, 0]]}]

    def test_spin_zz_qutrits(self, tmp_path):
        spin = write(
            tmp_path / "spin.json",
            {
                "dims": [3, 3],
                "terms": [
                    {"coeff": 1.0, "factors": [{"qudit": 0, "axis": "z"}, {"qudit": 1, "axis": "z"}]}
                ],
            },
        )
        assert main(["decompose", spin, "--out", str(tmp_path / "out")]) == 0
        data = json.loads((tmp_path / "out" / "observable.json").read_text())
        assert len(data["terms"]) == 4
        for t in data["terms"]:
            assert all(r == 0 for r, s in t["paulis"])

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["decompose", str(bad), "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "message" in err


class TestPlan:
    def test_x_z_two_singletons(self, tmp_path):
        obs = write(
            tmp_path / "obs.json",
            {
                "dims": [2],
                "terms": [
                    {"re": 1.0, "im": 0.0, "paulis": [[1, 0]]},
                    {"re": 0.5, "im": 0.0, "paulis": [[0, 1]]},
                ],
            },
        )
        assert main(["plan", "--observable", obs, "--mode", "gc", "--out", str(tmp_path / "p")]) == 0
        plan = json.loads((tmp_path / "p" / "plan.json").read_text())
        assert len(plan["graph"]["cliques"]) == 2
        kinds = sorted(len(c["gates"]) for c in plan["circuits"])
        assert kinds == [0, 1]  # empty circuit for Z, one H for X

    def test_bitwise_circuits_local_only(self, tmp_path):
        obs = write(
            tmp_path / "obs.json",
            {
                "dims": [2, 2],
                "terms": [
                    {"re": 1.0, "im": 0.0, "paulis": [[1, 0], [1, 0]]},
                    {"re": 0.8, "im": 0.0, "paulis": [[0, 1], [0, 1]]},
                ],
            },
        )
        assert main(["plan", "--observable", obs, "--mode", "bc", "--out", str(tmp_path / "p")]) == 0
        plan = json.loads((tmp_path / "p" / "plan.json").read_text())
        assert all(c["n_ent"] == 0 for c in plan["circuits"])
        assert all(c["depth"] <= 1 for c in plan["circuits"])

    def test_general_mode_entangles_xx_zz(self, tmp_path):
        obs = write(
            tmp_path / "obs.json",
            {
                "dims": [2, 2],
                "terms": [
                    {"re": 1.0, "im": 0.0, "paulis": [[1, 0], [1, 0]]},
                    {"re": 0.8, "im": 0.0, "paulis": [[0, 1], [0, 1]]},
                ],
            },
        )
        assert main(["plan", "--observable", obs, "--mode", "gc", "--out", str(tmp_path / "p")]) == 0
        plan = json.loads((tmp_path / "p" / "plan.json").read_text())
        assert any(c["n_ent"] >= 1 for c in plan["circuits"])


class TestRun:
    def test_noiseless_run(self, tmp_path, z_observable, zero_state, fast_settings_file):
        out = tmp_path / "run"
        code = main(
            [
                "run",
                "--observable", z_observable,
                "--state", zero_state,
                "--settings", fast_settings_file,
                "--seed", "3",
                "--budget", "1000",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert abs(report["o_est_re"] - 1.0) <= 3 * np.sqrt(report["var_stat"]) + 0.05
        csv = (out / "history.csv").read_text().splitlines()
        assert csv[1] == "m_total,O_est_re,O_est_im,var_stat,dev_sys_sq,var_noise_aware,selected_clique"
        assert "manifest_hash" in csv[0] and "seed=3" in csv[0]

    def test_rerun_byte_identical(self, tmp_path, z_observable, zero_state, fast_settings_file):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(
                [
                    "run",
                    "--observable", z_observable,
                    "--state", zero_state,
                    "--settings", fast_settings_file,
                    "--seed", "9",
                    "--out", str(out),
                ]
            ) == 0
            outs.append((out / "history.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_manifest_run_and_hash_embedding(self, tmp_path, z_observable, zero_state, fast_settings_file):
        manifest = write(
            tmp_path / "manifest.json",
            {
                "observable": z_observable,
                "state": zero_state,
                "settings": fast_settings_file,
                "seed": 4,
                "out": str(tmp_path / "m"),
            },
        )
        assert main(["run", "--manifest", manifest]) == 0
        report = json.loads((tmp_path / "m" / "report.json").read_text())
        csv_head = (tmp_path / "m" / "history.csv").read_text().splitlines()[0]
        assert report["manifest_hash"] in csv_head
        assert report["seed"] == 4
        assert report["mcmc_unconverged"] == 0  # one string: no pairs
        # --out overrides the manifest's output directory
        assert main(["run", "--manifest", manifest, "--out", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "history.csv").read_bytes() == (tmp_path / "m" / "history.csv").read_bytes()

    def test_noise_aware_history_columns(self, tmp_path, z_observable, zero_state, fast_settings_file):
        noise = write(tmp_path / "noise.json", {"xi_detect": 0.2})
        out = tmp_path / "na"
        assert main(
            [
                "run",
                "--observable", z_observable,
                "--state", zero_state,
                "--settings", fast_settings_file,
                "--noise", noise,
                "--probe-split", "0.5",
                "--seed", "8",
                "--out", str(out),
            ]
        ) == 0
        rows = (out / "history.csv").read_text().splitlines()[2:]
        assert rows
        for row in rows:
            fields = row.split(",")
            assert len(fields) == 7
            assert float(fields[5]) >= float(fields[3])  # var_e >= var_stat
        report = json.loads((out / "report.json").read_text())
        assert report["xi"] is not None
        assert report["probes_per_clique"][0] > 0

    def test_round_trip_decompose_plan_run(self, tmp_path, zero_state, fast_settings_file):
        spin = write(
            tmp_path / "spin.json",
            {"dims": [2], "terms": [{"coeff": 1.0, "factors": [{"qudit": 0, "axis": "z"}]}]},
        )
        assert main(["decompose", spin, "--out", str(tmp_path / "d")]) == 0
        obs_path = str(tmp_path / "d" / "observable.json")
        assert main(["plan", "--observable", obs_path, "--out", str(tmp_path / "p")]) == 0
        assert main(
            [
                "run",
                "--observable", obs_path,
                "--state", zero_state,
                "--settings", fast_settings_file,
                "--out", str(tmp_path / "r"),
            ]
        ) == 0

    def test_missing_inputs_error(self, tmp_path, capsys):
        assert main(["run", "--out", str(tmp_path)]) == 2

    def test_dump_shots_debug_log(self, tmp_path, z_observable, zero_state, fast_settings_file):
        noise = write(tmp_path / "noise.json", {"xi_detect": 0.5})
        out = tmp_path / "sl"
        assert main(
            [
                "run",
                "--observable", z_observable,
                "--state", zero_state,
                "--settings", fast_settings_file,
                "--noise", noise,
                "--budget", "200",
                "--dump-shots",
                "--out", str(out),
            ]
        ) == 0
        lines = (out / "shots.csv").read_text().splitlines()
        assert lines[1] == "clique,digits,error_injected"
        rows = [ln.split(",") for ln in lines[2:]]
        assert len(rows) == 200
        assert any(r[2] == "1" for r in rows)  # xi_detect=0.5 injects errors

    def test_dump_chains(self, tmp_path, fast_settings_file, zero_state):
        obs = write(
            tmp_path / "obs2.json",
            {
                "dims": [2],
                "terms": [
                    {"re": 1.0, "im": 0.0, "paulis": [[0, 1]]},
                    {"re": 0.5, "im": 0.0, "paulis": [[0, 0]]},
                ],
            },
        )
        out = tmp_path / "dc"
        assert main(
            [
                "run",
                "--observable", obs,
                "--state", zero_state,
                "--settings", fast_settings_file,
                "--budget", "300",
                "--dump-chains",
                "--out", str(out),
            ]
        ) == 0
        lines = (out / "chains.csv").read_text().splitlines()
        assert lines[1] == "pair_i,pair_j,chain,sample,q_re,q_im,accepted"
        assert len(lines) > 10

    def test_dump_chains_replays_the_run_seed(self, tmp_path, monkeypatch, fast_settings_file, zero_state):
        import quditmeas.cli as cli

        reports = []
        real = cli.run_estimation

        def keep_report(*args):
            reports.append(real(*args))
            return reports[-1]

        monkeypatch.setattr(cli, "run_estimation", keep_report)
        obs = write(
            tmp_path / "obs2.json",
            {
                "dims": [2],
                "terms": [
                    {"re": 1.0, "im": 0.0, "paulis": [[0, 1]]},
                    {"re": 0.5, "im": 0.0, "paulis": [[0, 0]]},
                ],
            },
        )
        out = tmp_path / "dc"
        assert main(
            [
                "run",
                "--observable", obs,
                "--state", zero_state,
                "--settings", fast_settings_file,
                "--seed", "77",
                "--dump-chains",
                "--out", str(out),
            ]
        ) == 0
        (report,) = reports
        edges = list(report.graph.edges())
        assert edges
        rows = np.loadtxt(out / "chains.csv", delimiter=",", skiprows=2, ndmin=2)
        d_p, offsets = report.graph.tallies.d_p, report.graph.offsets
        for i, j in edges:
            q_run = report.estimates.q[i, j]
            mine = rows[(rows[:, 0] == i) & (rows[:, 1] == j)]
            q = (mine[:, 4] + 1j * mine[:, 5]).reshape(int(mine[:, 2].max()) + 1, -1)
            burn = int(report.settings.mcmc.burn_in * q.shape[1])
            # q holds the model-frame value rotated into the strings' phase frame
            phase = np.exp(1j * np.pi * ((int(offsets[j]) - int(offsets[i])) % (2 * d_p)) / d_p)
            assert abs(phase * q[:, burn:].mean() - q_run) <= 1e-12

    @pytest.mark.parametrize(
        "settings, noise, flags, manifest, observable",
        [
            ({"refresh_cadence": 0}, None, [], None, None),
            ({"batch_size": 0}, None, [], None, None),
            ({"budjet": 50}, None, [], None, None),
            ({"budget": "50"}, None, [], None, None),
            ({"mcmc": {"nchains": 2}}, None, [], None, None),
            ({"mcmc": {"n_chains": 0}}, None, [], None, None),
            ({"mcmc": {"min_samples": 300, "max_samples": 200}}, None, [], None, None),
            ({"mcmc": {"target_acceptance": 0.5}}, None, [], None, None),
            ({"mcmc": [2]}, None, [], None, None),
            ([1, 2], None, [], None, None),
            ({}, {"xi_lok": 0.1}, [], None, None),
            ({}, {"xi_loc": "0.1"}, [], None, None),
            ({}, None, ["--budget", "0"], None, None),
            ({}, None, [], {"sed": 5}, None),
            ({}, None, ["--observable", "obs.json", "--noise", "noise.json"], {}, None),
            ({"mcmc": {"min_samples": 10, "max_samples": 60}}, None, [], None, None),
            ({}, None, [], None, ({"dims": [2], "dimz": [2], "terms": [SPIN_Z]}, ["dimz"])),
            ({}, None, [], None, ({"dims": [2], "terms": [dict(SPIN_Z, coef=2.0)]}, ["coef"])),
            ({}, None, [], None, ({"dims": [2], "terms": [dict(SPIN_Z, coeff={"Re": 1.0})]}, ["Re"])),
            ({}, None, [], None, ({"dims": [2], "terms": [{"coeff": 1.0, "factors": [dict(Z_FACTOR, wieght=3.0)]}]}, ["wieght"])),
            ({}, None, [], None, ({"dims": [2], "dimz": [2], "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}, ["dimz"])),
        ],
        ids=[
            "zero-cadence",
            "zero-batch",
            "unknown-key",
            "string-budget",
            "unknown-mcmc-key",
            "zero-chains",
            "min-above-max",
            "target-above-window",
            "mcmc-not-object",
            "settings-not-object",
            "unknown-noise-key",
            "string-noise-rate",
            "zero-budget-flag",
            "unknown-manifest-key",
            "manifest-with-input-flags",
            "too-few-retained-samples",
            "unknown-spin-key",
            "unknown-spin-term-key",
            "unknown-spin-coeff-key",
            "unknown-spin-factor-key",
            "unknown-matrix-key",
        ],
    )
    def test_bad_inputs_fail_with_json_error(
        self, tmp_path, capsys, z_observable, zero_state, settings, noise, flags, manifest, observable
    ):
        if observable is not None:
            z_observable = write(tmp_path / "obs.json", observable[0])
        if manifest is None:
            argv = ["run", "--observable", z_observable, "--state", zero_state, "--out", str(tmp_path / "o")]
            argv += ["--settings", write(tmp_path / "settings.json", settings)]
            if noise is not None:
                argv += ["--noise", write(tmp_path / "noise.json", noise)]
        else:
            inputs = {"observable": z_observable, "state": zero_state, **manifest}
            argv = ["run", "--manifest", write(tmp_path / "manifest.json", inputs), "--out", str(tmp_path / "o")]
        assert main(argv + flags) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        message = json.loads(err)["message"]
        assert message
        if manifest is not None:  # the error names each unknown key and each ignored flag
            named = [repr(key) for key in manifest] + [f for f in flags if f.startswith("--")]
            assert all(name in message for name in named)
        if observable is not None:  # the error names the unknown observable key
            assert all(repr(key) in message for key in observable[1])
        assert not (tmp_path / "o").exists()

    def test_observable_unknown_key_fails_with_json_error(self, tmp_path, capsys, zero_state):
        obs = write(tmp_path / "obs.json", {"dims": [2], "terms": [{"Re": 0.5, "paulis": [[0, 1]]}]})
        assert main(["run", "--observable", obs, "--state", zero_state, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "'Re'" in json.loads(err)["message"]
        assert not (tmp_path / "o").exists()


class TestFitNoise:
    def test_synthetic_recovery(self, tmp_path):
        rng = np.random.default_rng(0)
        truth = (0.004, 0.08, 0.0)
        rows = ["n_loc,n_ent,error"]
        specs = [(4, 0), (0, 2), (4, 2), (0, 0)]
        for k in range(3000):
            nl, ne = specs[k % len(specs)]
            xi = 1 - (1 - truth[2]) * (1 - truth[1]) ** ne * (1 - truth[0]) ** nl
            rows.append(f"{nl},{ne},{int(rng.random() < xi)}")
        probes = tmp_path / "probes.csv"
        probes.write_text("\n".join(rows))
        assert main(["fit-noise", "--probes", str(probes), "--out", str(tmp_path / "f")]) == 0
        fit = json.loads((tmp_path / "f" / "noise_fit.json").read_text())
        assert abs(fit["mean"]["xi_ent"] - truth[1]) <= 3 * fit["sigma"]["xi_ent"] + 5e-3

    def test_unidentifiable_flag(self, tmp_path, capsys):
        probes = tmp_path / "probes.csv"
        probes.write_text("n_loc,n_ent,error\n" + "\n".join("3,0,0" for _ in range(50)))
        assert main(["fit-noise", "--probes", str(probes), "--out", str(tmp_path / "f")]) == 0
        fit = json.loads((tmp_path / "f" / "noise_fit.json").read_text())
        assert "xi_ent" in fit["unidentifiable"]

    def test_empty_log_fails(self, tmp_path):
        probes = tmp_path / "probes.csv"
        probes.write_text("n_loc,n_ent,error\n")
        assert main(["fit-noise", "--probes", str(probes), "--out", str(tmp_path)]) == 2
