import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditmeas.bayes import BURN_IN
from quditmeas.cli import main


def write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


Z_FACTOR = {"qudit": 0, "axis": "z"}
SPIN_Z = {"coeff": 1.0, "factors": [Z_FACTOR]}
# keys a settings file may not set: the run reads their values from module constants
REMOVED_KEYS = ("refresh_cadence", "prior", "target_acceptance", "burn_in", "geweke_threshold", "gelman_rubin_threshold")
# ZI, IZ, ZZ, XX and (XZ)(XZ) with the weights of acceptance criterion 6
FIVE_TERM = [
    {"re": c, "im": 0.0, "paulis": paulis}
    for c, paulis in [
        (1.0, [[0, 1], [0, 0]]),
        (0.8, [[0, 0], [0, 1]]),
        (0.6, [[0, 1], [0, 1]]),
        (0.5, [[1, 0], [1, 0]]),
        (-0.4, [[1, 1], [1, 1]]),
    ]
]


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

    def test_spin_polynomial_at_the_largest_admitted_qudit(self, tmp_path):
        # D = 2062 is within the cap of the total dimension; S_x on d = 1031
        # has every s at r in {1, 1030}
        spin = write(tmp_path / "spin.json", {"dims": [2, 1031], "terms": [{"coeff": 1.0, "factors": [{"qudit": 1, "axis": "x"}]}]})
        assert main(["decompose", spin, "--out", str(tmp_path / "out")]) == 0
        data = json.loads((tmp_path / "out" / "observable.json").read_text())
        assert len(data["terms"]) == 2 * 1031

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["decompose", str(bad), "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "message" in err


class TestPlan:
    def test_huge_dimension_fails_with_json_error(self, tmp_path, capsys):
        obs = write(tmp_path / "obs.json", {"dims": [2305843009213693951], "terms": [{"re": 1.0, "paulis": [[0, 1]]}]})
        assert main(["plan", "--observable", obs, "--out", str(tmp_path / "p")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "exceeds the cap" in json.loads(err)["message"]

    def test_large_d_p_register_plans_without_tallies(self, tmp_path):
        # d_P = 4093 * 4091 * 4079: a run's (p, p, d_P) pair tallies would take
        # 1.49 TiB, and planning never reads them
        dims = [4093, 4091, 4079]
        terms = [{"re": 1.0, "paulis": [[0, 1] if k == q else [0, 0] for k in range(3)]} for q in range(3)]
        obs = write(tmp_path / "obs.json", {"dims": dims, "terms": terms})
        assert main(["plan", "--observable", obs, "--out", str(tmp_path / "p")]) == 0
        plan = json.loads((tmp_path / "p" / "plan.json").read_text())
        assert plan["graph"]["dims"] == dims
        assert plan["graph"]["cliques"] == [[0, 1, 2]]

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
        # the five-term observable of acceptance criterion 6 on |00>: ZI, IZ
        # and ZZ tally alike, so edges (1,2) and (2,4) take the covariances
        # cached by (0,2) and (2,3), and their chains replay under those pairs
        five_term = write(tmp_path / "five.json", {"dims": [2, 2], "terms": FIVE_TERM})
        zero_2q = write(tmp_path / "zero2.json", {"dims": [2, 2], "qudits": [[[1, 0], [0, 0]]] * 2})
        cases = [(obs, zero_state, 77, [])] + [(five_term, zero_2q, s, ["--budget", "1000"]) for s in (0, 1, 2)]
        for k, (observable, state, seed, flags) in enumerate(cases):
            out = tmp_path / f"dc{k}"
            assert main(
                [
                    "run",
                    "--observable", observable,
                    "--state", state,
                    "--settings", fast_settings_file,
                    "--seed", str(seed),
                    "--dump-chains",
                    "--out", str(out),
                ]
                + flags
            ) == 0
            report = reports[k]
            edges = list(report.graph.edges())
            assert edges
            if observable == five_term:  # the premise above: two edges replay another pair's chains
                assert report.pairs[edges.index((1, 2))].pair_id == edges.index((0, 2))
                assert report.pairs[edges.index((2, 4))].pair_id == edges.index((2, 3))
                assert any(mc.start is not None for mc in report.pairs)  # warm chains replay too
            rows = np.loadtxt(out / "chains.csv", delimiter=",", skiprows=2, ndmin=2)
            d_p, offsets = report.graph.tallies.d_p, report.graph.offsets
            for i, j in edges:
                q_run = report.estimates.q[i, j]
                mine = rows[(rows[:, 0] == i) & (rows[:, 1] == j)]
                q = (mine[:, 4] + 1j * mine[:, 5]).reshape(int(mine[:, 2].max()) + 1, -1)
                burn = int(BURN_IN * q.shape[1])
                # q holds the model-frame value rotated into the strings' phase frame
                phase = np.exp(1j * np.pi * ((int(offsets[j]) - int(offsets[i])) % (2 * d_p)) / d_p)
                assert abs(phase * q[:, burn:].mean() - q_run) <= 1e-12, (seed, i, j)

    @pytest.mark.parametrize(
        "settings, noise, flags, manifest, bad_file",
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
            ({}, None, ["--seed", "-1"], None, None),
            ({}, None, [], {"sed": 5}, None),
            ({}, None, ["--observable", "obs.json", "--noise", "noise.json"], {}, None),
            # a None drops the key from the manifest
            ({}, None, [], {"observable": None}, None),
            ({"mcmc": {"min_samples": 10, "max_samples": 60}}, None, [], None, None),
            ({}, None, [], None, ("observable", {"dims": [2], "dimz": [2], "terms": [SPIN_Z]}, ["'dimz'"])),
            ({}, None, [], None, ("observable", {"dims": [2], "terms": [dict(SPIN_Z, coef=2.0)]}, ["'coef'"])),
            ({}, None, [], None, ("observable", {"dims": [2], "terms": [dict(SPIN_Z, coeff={"Re": 1.0})]}, ["'Re'"])),
            ({}, None, [], None, ("observable", {"dims": [2], "terms": [{"coeff": 1.0, "factors": [dict(Z_FACTOR, wieght=3.0)]}]}, ["'wieght'"])),
            ({}, None, [], None, ("observable", {"dims": [2], "dimz": [2], "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}, ["'dimz'"])),
            ({}, None, [], None, ("observable", {"dims": [2], "terms": [{"re": 1.0, "paulis": 5}]}, ["observable.terms[0].paulis"])),
            ({}, None, [], None, ("observable", {"dims": [2], "terms": [{"coeff": 1.0, "factors": 5}]}, ["observable.terms[0].factors"])),
            ({}, None, [], None, ("observable", {"dims": [2], "matrix": 5}, ["observable.matrix"])),
            ({}, None, [], None, ("observable", {"dims": 2, "terms": [{"re": 1.0, "paulis": [[0, 1]]}]}, ["observable.dims"])),
            ({}, None, [], None, ("observable", {"dims": [2], "matrix": [[[1, 0], [0, 0]], {"re": 0}]}, ["observable.matrix[1]"])),
            ({}, None, [], None, ("observable", {"dims": "2", "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}, ["observable.dims"])),
            ({}, None, [], None, ("observable", {"dims": [2], "matrix": [[[1, 0, 0], [0, 0]], [[0, 0], [-1, 0]]]}, ["observable.matrix[0][0]"])),
            ({}, None, [], None, ("observable", {"dims": [2], "terms": [{"re": float("inf"), "paulis": [[0, 1]]}]}, ["observable.terms[0].re"])),
            ({"seed": 7}, None, [], None, None),
            ({"mcmc": {"n_chains": 2, "seed": 99}}, None, [], None, None),
            ({}, None, [], None, ("observable", {"dims": [3], "terms": [{"re": 1.0, "paulis": [[0, 1]]}]}, ["registers differ"])),
            ({}, None, [], None, ("observable", {"dims": [2], "terms": [{"re": 0.0, "paulis": [[0, 1]]}]}, ["no terms"])),
            ({"mcmc": {"prior": 1.0}}, None, [], None, None),
            ({"mcmc": {"burn_in": 0.2}}, None, [], None, None),
            ({"mcmc": {"geweke_threshold": 2.0}}, None, [], None, None),
            ({"mcmc": {"gelman_rubin_threshold": 1.1}}, None, [], None, None),
            # a product state checked against the cap before any amplitude is allocated
            ({}, None, [], None, ("state", {"dims": [2] * 40, "qudits": [[[1, 0], [0, 0]]] * 40}, ["exceeds cap"])),
            # JSON true is no count and 1 no flag
            ({}, None, [], None, ("settings", {"budget": True}, ["settings.budget"])),
            ({}, None, [], None, ("settings", {"adaptive": 1}, ["settings.adaptive"])),
            ({}, None, [], None, ("settings", {"probe_split": True}, ["settings.probe_split"])),
            ({}, None, [], None, ("observable", {"dims": [2], "terms": [{"re": 1.0, "paulis": [[0, 1]]}], "hermitian": 5}, ["observable.hermitian"])),
            ({}, None, [], None, ("observable", {"dims": [2], "matrix": [[[1, 0], [0, 0]], [[0, 0]]]}, ["observable.matrix[1]", "expected 2 entries"])),
            # a noise-aware run without probes would keep every error rate at its prior mean
            ({}, None, ["--probe-split", "0"], None, None),
            # Z + I/2 has one edge, whose first refresh cannot allocate its 8 x 1e14 chain samples
            (
                {"budget": 20, "mcmc": {"max_samples": 10**14}},
                None,
                [],
                None,
                ("observable", {"dims": [2], "terms": [{"re": 1.0, "paulis": [[0, 1]]}, {"re": 0.5, "paulis": [[0, 0]]}]}, ["Unable to allocate"]),
            ),
            # a probe split is read only by a noise-aware run
            ({}, None, [], None, ("settings", {"budget": 40, "probe_split": 0.3}, ["'probe_split'", "'noise_aware'"])),
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
            "negative-seed-flag",
            "unknown-manifest-key",
            "manifest-with-input-flags",
            "missing-manifest-key",
            "too-few-retained-samples",
            "unknown-spin-key",
            "unknown-spin-term-key",
            "unknown-spin-coeff-key",
            "unknown-spin-factor-key",
            "unknown-matrix-key",
            "paulis-not-list",
            "factors-not-list",
            "matrix-not-list",
            "dims-not-list",
            "matrix-row-not-list",
            "matrix-dims-not-list",
            "matrix-entry-not-pair",
            "infinite-coefficient",
            "settings-seed",
            "settings-mcmc-seed",
            "registers-differ",
            "zero-coefficient",
            "mcmc-prior",
            "mcmc-burn-in",
            "mcmc-geweke-threshold",
            "mcmc-gelman-rubin-threshold",
            "state-over-cap",
            "bool-budget",
            "int-adaptive",
            "bool-probe-split",
            "hermitian-not-bool",
            "matrix-ragged-row",
            "noise-aware-without-probes",
            "mcmc-max-samples-unallocatable",
            "probe-split-without-noise-aware",
        ],
    )
    def test_bad_inputs_fail_with_json_error(
        self, tmp_path, capsys, z_observable, zero_state, settings, noise, flags, manifest, bad_file
    ):
        if bad_file is not None:  # (which input, its document, what the error must name)
            kind, doc, _ = bad_file
            if kind == "settings":
                settings = doc
            else:
                path = write(tmp_path / f"bad_{kind}.json", doc)
                z_observable, zero_state = (path, zero_state) if kind == "observable" else (z_observable, path)
        out = str(tmp_path / "o" / "run")  # a failed run removes every directory it created
        if manifest is None:
            argv = ["run", "--observable", z_observable, "--state", zero_state, "--out", out]
            argv += ["--settings", write(tmp_path / "settings.json", settings)]
            if noise is not None:
                argv += ["--noise", write(tmp_path / "noise.json", noise)]
        else:
            inputs = {"observable": z_observable, "state": zero_state, **manifest}
            inputs = {key: value for key, value in inputs.items() if value is not None}
            argv = ["run", "--manifest", write(tmp_path / "manifest.json", inputs), "--out", out]
        assert main(argv + flags) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        message = json.loads(err)["message"]
        assert message
        if manifest is not None:  # the error names each unknown key, each missing key and each ignored flag
            named = [f"manifest: missing key {key!r}" if value is None else repr(key) for key, value in manifest.items()]
            named += [f for f in flags if f.startswith("--")]
            assert all(name in message for name in named)
        if bad_file is not None:  # the error names the unknown key, the bad value's key path or the cap
            assert all(name in message for name in bad_file[2])
        if "Unable to allocate" in message:  # numpy's allocation failure is reported as such
            assert json.loads(err)["error"] == "MemoryError"
        if "seed" in json.dumps(settings):  # the run seed comes only from the manifest or --seed
            assert "'seed'" in message
        for key in REMOVED_KEYS:  # an unknown key, whatever its value
            if key in json.dumps(settings):
                assert repr(key) in message
        assert not (tmp_path / "o").exists()

    def test_observable_unknown_key_fails_with_json_error(self, tmp_path, capsys, zero_state):
        obs = write(tmp_path / "obs.json", {"dims": [2], "terms": [{"Re": 0.5, "paulis": [[0, 1]]}]})
        assert main(["run", "--observable", obs, "--state", zero_state, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "'Re'" in json.loads(err)["message"]
        assert not (tmp_path / "o").exists()


# -- fuzzed inputs: every case is invalid by construction --------------------

MCMC_DOC = {"n_chains": 2, "min_samples": 100, "max_samples": 200}
VALID_DOCS = {
    "settings": {
        "mode": "gc", "adaptive": True, "budget": 20, "batch_size": 10, "noise_aware": True, "probe_split": 0.5, "mcmc": MCMC_DOC,
    },
    "noise": {"xi_loc": 0.01, "xi_ent": 0.02, "xi_detect": 0.0},
    "state": {"dims": [2], "qudits": [[[1, 0], [0, 0]]]},
    "paulis": {"dims": [2], "terms": [{"re": 1.0, "im": 0.0, "paulis": [[0, 1]]}], "hermitian": True},
    "spin": {"dims": [2], "terms": [{"coeff": {"re": 1.0, "im": 0.0}, "factors": [dict(Z_FACTOR, weight=1.0)]}]},
    "matrix": {"dims": [2], "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]},
}
# JSON kinds of each value the loaders read, by key path; "?" allows null
KINDS = {
    "settings": {
        ("mode",): "str", ("adaptive",): "bool", ("budget",): "int", ("batch_size",): "int?",
        ("noise_aware",): "bool", ("probe_split",): "number",
        ("mcmc",): "object", **{("mcmc", k): "int" if isinstance(v, int) else "number" for k, v in MCMC_DOC.items()},
    },
    "noise": {("xi_loc",): "number", ("xi_ent",): "number", ("xi_detect",): "number"},
    "manifest": {
        ("observable",): "str", ("state",): "str", ("settings",): "str?", ("noise",): "str?", ("seed",): "int",
        ("out",): "str",
    },
    "state": {
        ("dims",): "list", ("dims", 0): "int", ("qudits",): "list", ("qudits", 0): "list",
        ("qudits", 0, 1): "pair", ("qudits", 0, 1, 0): "number",
    },
    "paulis": {
        ("dims",): "list", ("dims", 0): "int", ("terms",): "list", ("terms", 0): "object",
        ("terms", 0, "re"): "number", ("terms", 0, "im"): "number", ("terms", 0, "paulis"): "list",
        ("terms", 0, "paulis", 0): "pair", ("terms", 0, "paulis", 0, 1): "int",
    },
    "spin": {
        ("dims",): "list", ("dims", 0): "int", ("terms",): "list", ("terms", 0): "object",
        ("terms", 0, "coeff"): "number|object", ("terms", 0, "coeff", "re"): "number",
        ("terms", 0, "factors"): "list", ("terms", 0, "factors", 0): "object",
        ("terms", 0, "factors", 0, "axis"): "str", ("terms", 0, "factors", 0, "qudit"): "int",
        ("terms", 0, "factors", 0, "weight"): "number",
    },
    "matrix": {
        ("dims",): "list", ("dims", 0): "int", ("matrix",): "list", ("matrix", 1): "list",
        ("matrix", 1, 1): "pair", ("matrix", 1, 1, 0): "number",
    },
}
KIND_CHECKS = {
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and -1e308 < v < 1e308,
    "list": lambda v: isinstance(v, list),
    "pair": lambda v: isinstance(v, list) and len(v) == 2,
    "object": lambda v: isinstance(v, dict),
    "null": lambda v: v is None,
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**6), 10**6) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)
# values at the edges of each JSON kind, drawn often so that short pairs and
# non-finite numbers turn up in every run
EDGE_VALUES = st.sampled_from([None, True, 0.5, 1, "1", [], [1], [1, 0, 0], {}, float("inf"), -float("inf"), float("nan")])


def fits(value, kind: str) -> bool:
    return any(KIND_CHECKS[k](value) for k in kind.replace("?", "|null").split("|"))


def objects_of(doc, path=()):
    """Key paths of every JSON object inside ``doc``."""
    if isinstance(doc, dict):
        yield path
        for k, v in doc.items():
            yield from objects_of(v, path + (k,))
    elif isinstance(doc, list):
        for k, v in enumerate(doc):
            yield from objects_of(v, path + (k,))


def replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# a manifest names its input files by "@name"; the test writes them
BASE_MANIFEST = {"observable": "@observable", "state": "@state", "seed": 3}
# each file broken in one place: a non-object document, an unknown key in
# one of its objects, or a value of the wrong JSON type at one key path
FUZZ_CASES = (
    [(t, "document") for t in KINDS] + [(t, "unknown-key") for t in KINDS] + [(t, p) for t in KINDS for p in KINDS[t]]
)


def broken_doc(draw, target, how):
    doc = BASE_MANIFEST if target == "manifest" else VALID_DOCS[target]
    if how == "document":
        return draw(JSON_VALUES.filter(lambda v: not isinstance(v, dict)))
    if how == "unknown-key":
        path = draw(st.sampled_from(list(objects_of(doc))))
        node = replaced(doc, (), doc)
        for key in path:
            node = node[key]
        key = draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in node))
        return replaced(doc, path + (key,), draw(JSON_VALUES))
    kind = KINDS[target][how]
    return replaced(doc, how, draw((EDGE_VALUES | JSON_VALUES).filter(lambda v: not fits(v, kind))))


@pytest.mark.parametrize(
    "target, how", FUZZ_CASES, ids=[f"{t}-{h if isinstance(h, str) else '.'.join(map(str, h))}" for t, h in FUZZ_CASES]
)
@settings(derandomize=True, max_examples=15, deadline=None)
@given(data=st.data())
def test_fuzzed_bad_inputs_fail_with_json_error(target, how, data):
    doc = broken_doc(data.draw, target, how)
    files = {
        "observable": VALID_DOCS["paulis"], "state": VALID_DOCS["state"],
        "settings": VALID_DOCS["settings"], "noise": VALID_DOCS["noise"],
    }
    files["observable" if target in ("paulis", "spin", "matrix") else target] = doc
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = {name: write(tmp / f"{name}.json", data) for name, data in files.items() if name != "manifest"}
        if target == "manifest":
            if isinstance(doc, dict):
                doc = {k: paths[v[1:]] if isinstance(v, str) and v.startswith("@") else v for k, v in doc.items()}
            argv = ["run", "--manifest", write(tmp / "manifest.json", doc)]
        else:
            argv = ["run"] + [arg for name, path in paths.items() for arg in (f"--{name}", path)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(tmp / "out")])
        assert code == 2, (target, doc)
        assert "Traceback" not in err.getvalue()
        assert json.loads(err.getvalue())["message"]
        assert not (tmp / "out").exists()


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

    @pytest.mark.parametrize("row", ["1,0,-5,3", "1,0,5,-3", "-1,0,1", "1,0,2", "1,0,-1", "2,x,0", "2,1.5,0", "2,0,0,"])
    def test_negative_count_or_bad_flag_fails(self, tmp_path, capsys, row):
        probes = tmp_path / "probes.csv"
        probes.write_text(f"n_loc,n_ent,error\n2,1,1\n{row}\n")
        assert main(["fit-noise", "--probes", str(probes), "--out", str(tmp_path / "f")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "probe record" in json.loads(err)["message"]
        assert not (tmp_path / "f").exists()

    def test_directory_as_probe_log_fails(self, tmp_path, capsys):
        assert main(["fit-noise", "--probes", str(tmp_path), "--out", str(tmp_path / "f")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert str(tmp_path) in json.loads(err)["message"]


@pytest.mark.parametrize("command", ["decompose", "plan", "run", "fit-noise"])
def test_out_naming_a_file_fails_with_json_error(tmp_path, capsys, monkeypatch, command, z_observable, zero_state):
    import quditmeas.cli as cli

    def no_estimation(*args):
        raise AssertionError("the output directory is checked before the estimation runs")

    monkeypatch.setattr(cli, "run_estimation", no_estimation)
    probes = tmp_path / "probes.csv"
    probes.write_text("n_loc,n_ent,error\n2,1,1\n2,1,0\n")
    out = tmp_path / "taken"
    out.write_text("not a directory")
    argv = {
        "decompose": ["decompose", z_observable],
        "plan": ["plan", "--observable", z_observable],
        "run": ["run", "--observable", z_observable, "--state", zero_state, "--budget", "10"],
        "fit-noise": ["fit-noise", "--probes", str(probes)],
    }[command]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(out) in json.loads(err)["message"]
    assert out.read_text() == "not a directory"


# Runs the given CLI argv lists in one process and prints the top-level
# modules they load beyond numpy's own: numpy.random is used first, since
# its first use loads numpy's Cython runtime.
IMPORT_PROBE = """
import json, sys
import numpy

numpy.random.default_rng(0).random(1)
before = set(sys.modules)
from quditmeas.cli import main

for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} exited non-zero")
new = {name for name in set(sys.modules) - before if "." not in name}
print(json.dumps(sorted(new - set(sys.stdlib_module_names) - {"quditmeas"})))
"""


def test_runtime_loads_only_numpy_and_the_standard_library(tmp_path):
    """pyproject.toml declares numpy alone; the test extras (scipy among
    them) are installed wherever the suite runs, so an undeclared import
    would pass every other test."""
    import quditmeas

    spin = write(tmp_path / "spin.json", {"dims": [2, 2], "terms": [{"coeff": 1.0, "factors": [Z_FACTOR, {"qudit": 1, "axis": "z"}]}]})
    matrix = write(tmp_path / "matrix.json", {"dims": [3], "matrix": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [-1, 0]]]})
    mixed = write(
        tmp_path / "mixed.json",
        {"dims": [2, 3], "terms": [{"re": 1.0, "paulis": [[0, 1], [0, 0]]}, {"re": 0.5, "paulis": [[0, 0], [0, 1]]}, {"re": 0.5, "paulis": [[0, 0], [0, 2]]}]},
    )
    state = write(tmp_path / "state.json", {"dims": [2, 3], "qudits": [[[1, 0], [0, 0]], [[1, 0], [0, 0], [0, 0]]]})
    settings = write(tmp_path / "settings.json", {"budget": 40, "mcmc": {"n_chains": 2, "min_samples": 100, "max_samples": 200}})
    noise = write(tmp_path / "noise.json", {"xi_loc": 0.01, "xi_ent": 0.03, "xi_detect": 0.01})
    probes = tmp_path / "probes.csv"
    probes.write_text("n_loc,n_ent,error\n2,0,0\n2,1,1\n4,1,0\n0,2,0\n3,0,1\n")
    out = str(tmp_path / "o")
    argvs = [
        ["decompose", spin, "--out", out + "/spin"],
        ["decompose", matrix, "--out", out + "/matrix"],
        ["plan", "--observable", mixed, "--out", out + "/plan"],
        ["run", "--observable", mixed, "--state", state, "--settings", settings, "--noise", noise, "--probe-split", "0.5", "--dump-chains", "--out", out + "/run"],
        ["fit-noise", "--probes", str(probes), "--out", out + "/fit"],
    ]
    src = str(Path(quditmeas.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(argvs)], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "run" / "chains.csv").exists()
    assert json.loads(proc.stdout.splitlines()[-1]) == []


# Runs one CLI argv list under a 2 GiB address-space limit, so that a run
# which grows without bound fails inside the limit instead of taking the host.
LIMITED_RUN = """
import json, resource, sys

resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))
from quditmeas.cli import main

sys.exit(main(json.loads(sys.argv[1])))
"""


def test_unallocatable_chain_count_fails_at_once(tmp_path, zero_state):
    """The chain arrays are allocated before one generator per chain, so a
    huge ``n_chains`` fails with numpy's allocation error, not after a
    Python list of generators has filled the memory."""
    import quditmeas

    obs = write(tmp_path / "obs.json", {"dims": [2], "terms": [{"re": 1.0, "paulis": [[0, 1]]}, {"re": 0.5, "paulis": [[0, 0]]}]})
    settings = write(tmp_path / "settings.json", {"budget": 20, "mcmc": {"n_chains": 10**12}})
    argv = ["run", "--observable", obs, "--state", zero_state, "--settings", settings, "--out", str(tmp_path / "o")]
    src = str(Path(quditmeas.__file__).resolve().parent.parent)
    # one BLAS thread, so that its buffers take little of the limit
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", LIMITED_RUN, json.dumps(argv)], capture_output=True, text=True, env=env, timeout=60)
    elapsed = time.monotonic() - t0
    assert proc.returncode == 2, proc.stderr
    assert "Unable to allocate" in json.loads(proc.stderr)["message"]
    assert elapsed < 5, elapsed
    assert not (tmp_path / "o").exists()
