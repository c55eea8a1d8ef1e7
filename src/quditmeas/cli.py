"""Command-line front end: decompose, plan, run, fit-noise."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .bayes import MCMCConfig, covariance_mcmc
from .clifford import circuit_to_json, diagonalize_clique
from .engine import RunSettings, fit_noise_model, run_estimation
from .graph import build_graph, clique_cover, graph_to_json
from .observables import (
    Observable,
    decompose_matrix,
    decompose_spin,
    matrix_from_json,
    observable_from_json,
    observable_to_json,
    spin_poly_from_json,
)
from .simulator import NoiseModel, state_from_json

HISTORY_COLUMNS = "m_total,O_est_re,O_est_im,var_stat,dev_sys_sq,var_noise_aware,selected_clique"


@dataclass
class RunManifest:
    observable: str
    state: str
    settings: str | None = None
    noise: str | None = None
    seed: int = 0
    out: str = "."

    def content(self) -> dict:
        return {
            "observable": self.observable,
            "state": self.state,
            "settings": self.settings,
            "noise": self.noise,
            "seed": self.seed,
        }

    def hash(self) -> str:
        blob = json.dumps(self.content(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _load_json(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise CliError(f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(f"cannot parse {path}: line {exc.lineno}: {exc.msg}")


class CliError(RuntimeError):
    pass


def _load_observable_any(path: str) -> Observable:
    data = _load_json(path)
    if "matrix" in data:
        mat, register = matrix_from_json(data)
        return decompose_matrix(mat, register)
    if "terms" in data and data["terms"] and "factors" in data["terms"][0]:
        return decompose_spin(spin_poly_from_json(data))
    if "terms" in data:
        return observable_from_json(data)
    raise CliError(f"{path}: unrecognized observable format (need 'matrix', spin 'factors' or 'paulis' terms)")


SETTINGS_KEYS = ("mode", "adaptive", "budget", "batch_size", "refresh_cadence", "noise_aware", "probe_split", "seed")


def _config_from(cls, data, where: str, keys=None):
    """Build a config dataclass from a JSON object, rejecting unknown keys by name."""
    if not isinstance(data, dict):
        raise CliError(f"{where}: expected a JSON object")
    keys = keys or tuple(f.name for f in fields(cls))
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise CliError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}; known: {', '.join(keys)}")
    try:
        return cls(**data)
    except TypeError as exc:  # a value of the wrong JSON type, e.g. a string count
        raise CliError(f"{where}: {exc}")


def _settings_from(data) -> RunSettings:
    if not isinstance(data, dict):
        raise CliError("settings: expected a JSON object")
    mcmc = _config_from(MCMCConfig, data.get("mcmc", {}), "settings.mcmc")
    return _config_from(RunSettings, {**data, "mcmc": mcmc}, "settings", SETTINGS_KEYS + ("mcmc",))


def cmd_decompose(args) -> int:
    obs = _load_observable_any(args.input)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = observable_to_json(obs)
    payload["hermitian"] = obs.hermitian
    (out_dir / "observable.json").write_text(json.dumps(payload, indent=1))
    print(f"terms: {obs.p}  hermitian: {obs.hermitian}")
    for c, p in obs.terms:
        label = " ".join(f"x{r}z{s}" for r, s in p.exps)
        print(f"  |c|={abs(c):.6g}  c=({c.real:.6g},{c.imag:.6g})  {label}")
    return 0


def cmd_plan(args) -> int:
    obs = _load_observable_any(args.observable)
    mode = {"gc": "general", "bc": "bitwise"}[args.mode]
    graph = build_graph(obs, mode)
    cliques = clique_cover(graph)
    strings = obs.strings()
    circuits = []
    for c in cliques:
        c.circuit = diagonalize_clique([strings[v] for v in c.vertices], mode)
        circuits.append(circuit_to_json(c.circuit))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    bundle = {"graph": graph_to_json(graph), "circuits": circuits}
    (out_dir / "plan.json").write_text(json.dumps(bundle, indent=1))
    print(f"vertices: {graph.p}  cliques: {len(cliques)}")
    for k, (c, circ) in enumerate(zip(cliques, circuits)):
        print(f"  clique {k}: vertices={list(c.vertices)} n_loc={circ['n_loc']} n_ent={circ['n_ent']} depth={circ['depth']}")
    return 0


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_run(args) -> int:
    if args.manifest:
        clash = [f"--{name}" for name in ("observable", "state", "settings", "noise") if getattr(args, name)]
        if clash:
            raise CliError(f"--manifest names the run's inputs; drop {', '.join(clash)}")
        manifest = _config_from(RunManifest, _load_json(args.manifest), "manifest")
        if args.out:
            manifest.out = args.out
    else:
        if not (args.observable and args.state):
            raise CliError("run needs --manifest or both --observable and --state")
        manifest = RunManifest(
            observable=args.observable,
            state=args.state,
            settings=args.settings,
            noise=args.noise,
            seed=args.seed if args.seed is not None else 0,
            out=args.out or ".",
        )

    obs = _load_observable_any(manifest.observable)
    state = state_from_json(_load_json(manifest.state))
    settings = _settings_from(_load_json(manifest.settings)) if manifest.settings else RunSettings(budget=1000)
    noise = None
    if manifest.noise:
        noise = _config_from(NoiseModel, _load_json(manifest.noise), "noise")

    # explicit flags override file-provided settings
    overrides = {}
    if args.mode:
        overrides["mode"] = args.mode
    if args.adaptive:
        overrides["adaptive"] = args.adaptive == "on"
    if args.budget is not None:
        overrides["budget"] = args.budget
    if args.probe_split is not None:
        overrides["probe_split"] = args.probe_split
        overrides["noise_aware"] = True
    if args.seed is not None:
        manifest.seed = args.seed
    overrides["seed"] = manifest.seed
    if args.dump_shots:
        overrides["shot_log"] = True
    settings = replace(settings, **overrides)

    report = run_estimation(obs, state, settings, noise)

    out_dir = Path(manifest.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = manifest.hash()

    lines = [f"# manifest_hash={tag} seed={manifest.seed}", HISTORY_COLUMNS]
    for row in report.history:
        lines.append(
            ",".join(
                [
                    str(row.m_total),
                    _fmt(row.o_est.real),
                    _fmt(row.o_est.imag),
                    _fmt(row.var_stat),
                    _fmt(row.dev_sys_sq),
                    _fmt(row.var_noise_aware),
                    str(row.clique_id),
                ]
            )
        )
    (out_dir / "history.csv").write_text("\n".join(lines) + "\n")

    payload = {
        "manifest_hash": tag,
        "seed": manifest.seed,
        "o_est_re": report.o_est.real,
        "o_est_im": report.o_est.imag,
        "var_stat": report.var_stat,
        "dev_sys_re": report.dev_sys.real,
        "dev_sys_im": report.dev_sys.imag,
        "dev_sys_sq": report.dev_sys_sq,
        "var_noise_aware": report.var_noise_aware,
        "dev_sigma": report.dev_sigma,
        "worst_case": report.worst_case,
        "xi": None
        if report.xi is None
        else [{"mean": x.mean, "variance": x.variance, "n_probes": x.n_probes} for x in report.xi],
        "shots_per_clique": report.shots_per_clique,
        "probes_per_clique": report.probes_per_clique,
        "mcmc_unconverged": report.mcmc_unconverged,
        "settings": {
            "mode": settings.mode,
            "adaptive": settings.adaptive,
            "budget": settings.budget,
            "batch_size": settings.effective_batch,
            "refresh_cadence": settings.refresh_cadence,
            "noise_aware": settings.noise_aware,
            "probe_split": settings.probe_split,
        },
    }
    (out_dir / "report.json").write_text(json.dumps(payload, indent=1))

    if args.dump_chains:
        _dump_chains(report, out_dir, tag)
    if args.dump_shots and report.shot_log is not None:
        lines = [f"# manifest_hash={tag} seed={manifest.seed}", "clique,digits,error_injected"]
        lines += [f"{ci},{''.join(map(str, digits))},{int(flag)}" for ci, digits, flag in report.shot_log]
        (out_dir / "shots.csv").write_text("\n".join(lines) + "\n")
    print(f"O = {report.o_est.real:.6g}  var_stat = {report.var_stat:.6g}  out: {out_dir}")
    return 0


def _dump_chains(report, out_dir: Path, tag: str) -> None:
    graph = report.graph
    t = graph.tallies
    # the engine runs the chains under the run seed, not the config's own
    cfg = replace(report.settings.mcmc, seed=report.seed)
    lines = [f"# manifest_hash={tag} seed={report.seed}", "pair_i,pair_j,chain,sample,q_re,q_im,accepted"]
    for k, (i, j) in enumerate(graph.edges()):
        _, trace = covariance_mcmc(t.s[i], t.s[j], t.pair_s[i, j], t.d_p, cfg, pair_id=k, collect=True)
        q = trace["q"]
        acc = trace["accepted"]
        for c in range(q.shape[0]):
            for n in range(q.shape[1]):
                lines.append(f"{i},{j},{c},{n},{_fmt(q[c, n].real)},{_fmt(q[c, n].imag)},{int(acc[c, n])}")
    (out_dir / "chains.csv").write_text("\n".join(lines) + "\n")


def cmd_fit_noise(args) -> int:
    path = Path(args.probes)
    if not path.exists():
        raise CliError(f"file not found: {args.probes}")
    records = []
    for ln, line in enumerate(path.read_text().splitlines()):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("n_loc"):
            continue
        parts = line.split(",")
        if len(parts) not in (3, 4):
            raise CliError(f"{args.probes}:{ln + 1}: expected n_loc,n_ent,error[,ok]")
        records.append(tuple(int(x) for x in parts))
    if not records:
        raise CliError("probe log is empty")
    fit = fit_noise_model(records)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "map": {"xi_loc": fit.map_point[0], "xi_ent": fit.map_point[1], "xi_detect": fit.map_point[2]},
        "mean": {"xi_loc": fit.mean[0], "xi_ent": fit.mean[1], "xi_detect": fit.mean[2]},
        "sigma": {"xi_loc": fit.sigma[0], "xi_ent": fit.sigma[1], "xi_detect": fit.sigma[2]},
        "unidentifiable": fit.unidentifiable,
    }
    (out_dir / "noise_fit.json").write_text(json.dumps(payload, indent=1))
    for name, mu, sig in zip(("xi_loc", "xi_ent", "xi_detect"), fit.mean, fit.sigma):
        flag = "  [unidentifiable]" if name in fit.unidentifiable else ""
        print(f"{name}: mean={mu:.6g} sigma={sig:.6g}{flag}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="quditmeas", description="Adaptive estimation of qudit observables")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a matrix or spin polynomial into Pauli terms")
    p.add_argument("input")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("plan", help="build the commutation graph, clique cover and circuits")
    p.add_argument("--observable", required=True)
    p.add_argument("--mode", choices=("gc", "bc"), default="gc")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("run", help="run the adaptive estimation loop")
    p.add_argument("--manifest")
    p.add_argument("--observable")
    p.add_argument("--state")
    p.add_argument("--settings")
    p.add_argument("--noise")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--mode", choices=("gc", "bc"), default=None)
    p.add_argument("--adaptive", choices=("on", "off"), default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--probe-split", dest="probe_split", type=float, default=None)
    p.add_argument("--dump-chains", dest="dump_chains", action="store_true")
    p.add_argument("--dump-shots", dest="dump_shots", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("fit-noise", help="fit the error model from a probe log")
    p.add_argument("--probes", required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_fit_noise)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, KeyError) as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
