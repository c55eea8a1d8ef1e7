"""Command-line front end: decompose, plan, run, fit-noise."""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import shutil
import sys
import typing
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

from .bayes import MCMCConfig, covariance_mcmc
from .clifford import circuit_to_json
from .engine import RunSettings, fit_noise_model, plan_measurements, run_estimation
from .graph import graph_to_json
from .observables import (
    Observable,
    decompose_matrix,
    decompose_spin,
    json_object,
    json_value,
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
        """Every field but ``out``: the run's inputs, which the hash covers."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out"}

    def hash(self) -> str:
        blob = json.dumps(self.content(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except FileNotFoundError:
        raise CliError(f"file not found: {path}")
    except OSError as exc:  # a directory, no permission
        raise CliError(f"cannot read {path}: {exc.strerror}")


def _load_json(path: str) -> dict:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise CliError(f"cannot parse {path}: line {exc.lineno}: {exc.msg}")


@contextlib.contextmanager
def _out_dir(path: str):
    """The output directory ``path``, created if it does not exist yet.

    When the ``with`` body raises, the directories created here (``path``
    and any missing parents) are removed again, so a failed command leaves
    no empty output directory behind.
    """
    out = Path(path)
    created = [d for d in (out, *out.parents) if not d.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file of that name, no permission
        raise CliError(f"cannot create output directory {path}: {exc.strerror}")
    try:
        yield out
    except BaseException:
        if created:
            shutil.rmtree(created[-1], ignore_errors=True)
        raise


class CliError(RuntimeError):
    pass


def _load_observable_any(path: str) -> Observable:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise CliError(f"{path}: expected a JSON object")
    if "matrix" in data:
        mat, register = matrix_from_json(data)
        return decompose_matrix(mat, register)
    terms = data.get("terms")
    if isinstance(terms, list) and terms and isinstance(terms[0], dict) and "factors" in terms[0]:
        return decompose_spin(spin_poly_from_json(data))
    if "terms" in data:
        return observable_from_json(data)
    raise CliError(f"{path}: unrecognized observable format (need 'matrix', spin 'factors' or 'paulis' terms)")


# the keys a settings file may set besides ``mcmc``, which report.json echoes;
# the run seed is not among them: it comes from the manifest or --seed
SETTINGS_KEYS = ("mode", "adaptive", "budget", "batch_size", "noise_aware", "probe_split")


# each config class's resolved field annotations, evaluated once
_field_types = functools.cache(typing.get_type_hints)


def _config_from(cls, data, where: str, keys=None):
    """Build a config dataclass from a JSON object, rejecting unknown keys,
    missing required keys and values whose JSON type does not match the
    field's annotation."""
    data = json_object(data, keys or tuple(f.name for f in fields(cls)), where)
    missing = [repr(f.name) for f in fields(cls) if f.name not in data and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise CliError(f"{where}: missing key{'s' * (len(missing) > 1)} {', '.join(missing)}")
    hints = _field_types(cls)
    for key, value in data.items():
        kind, *optional = typing.get_args(hints[key]) or (hints[key],)  # ``X | None`` checks X
        if not (optional and value is None):
            json_value(value, kind, f"{where}.{key}")
    return cls(**data)


def _settings_from(data) -> RunSettings:
    data = json_object(data, SETTINGS_KEYS + ("mcmc",), "settings")
    mcmc = _config_from(MCMCConfig, data.get("mcmc", {}), "settings.mcmc")
    settings = _config_from(RunSettings, {**data, "mcmc": mcmc}, "settings", SETTINGS_KEYS + ("mcmc",))
    if "probe_split" in data and not settings.noise_aware:
        raise CliError("settings: 'probe_split' is read only with 'noise_aware': true")
    return settings


def cmd_decompose(args) -> int:
    obs = _load_observable_any(args.input)
    payload = observable_to_json(obs)
    payload["hermitian"] = obs.hermitian
    with _out_dir(args.out) as out_dir:
        (out_dir / "observable.json").write_text(json.dumps(payload, indent=1))
    print(f"terms: {obs.p}  hermitian: {obs.hermitian}")
    for c, p in obs.terms:
        label = " ".join(f"x{r}z{s}" for r, s in p.exps)
        print(f"  |c|={abs(c):.6g}  c=({c.real:.6g},{c.imag:.6g})  {label}")
    return 0


def cmd_plan(args) -> int:
    graph = plan_measurements(_load_observable_any(args.observable), args.mode)
    circuits = [circuit_to_json(c.circuit) for c in graph.cliques]
    bundle = {"graph": graph_to_json(graph), "circuits": circuits}
    with _out_dir(args.out) as out_dir:
        (out_dir / "plan.json").write_text(json.dumps(bundle, indent=1))
    print(f"vertices: {graph.p}  cliques: {len(graph.cliques)}")
    for k, (c, circ) in enumerate(zip(graph.cliques, circuits)):
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
    settings = replace(settings, **overrides)

    # created before the run, so that an --out naming a file fails at once;
    # input errors that only the run detects remove it again
    with _out_dir(manifest.out) as out_dir:
        report = run_estimation(obs, state, settings, noise)
    tag = manifest.hash()

    lines = [f"# manifest_hash={tag} seed={manifest.seed}", HISTORY_COLUMNS]
    for row in report.history:
        values = (row.o_est.real, row.o_est.imag, row.var_stat, row.dev_sys_sq, row.var_noise_aware)
        lines.append(",".join([str(row.m_total), *map(_fmt, values), str(row.clique_id)]))
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
        else [
            {"mean": float(m), "variance": float(v), "n_probes": int(n)}
            for m, v, n in zip(report.xi.mean, report.xi.variance, report.xi.n_probes)
        ],
        "shots_per_clique": report.shots_per_clique,
        "probes_per_clique": report.probes_per_clique,
        "mcmc_unconverged": report.mcmc_unconverged,
        "settings": {**{key: getattr(settings, key) for key in SETTINGS_KEYS}, "batch_size": settings.effective_batch},
    }
    (out_dir / "report.json").write_text(json.dumps(payload, indent=1))

    if args.dump_chains:
        _dump_chains(report, out_dir, tag)
    if args.dump_shots:
        lines = [f"# manifest_hash={tag} seed={manifest.seed}", "clique,digits,error_injected"]
        lines += [
            f"{ci},{''.join(map(str, row))},{int(flag)}"
            for ci, digits, flags in report.shot_log
            for row, flag in zip(digits, flags)
        ]
        (out_dir / "shots.csv").write_text("\n".join(lines) + "\n")
    print(f"O = {report.o_est.real:.6g}  var_stat = {report.var_stat:.6g}  out: {out_dir}")
    return 0


def _dump_chains(report, out_dir: Path, tag: str) -> None:
    """Replay each edge's chains on its final tallies under the run seed and
    the pair_id of the chains behind its covariance (another edge's, when
    the run took that edge's cached result)."""
    graph = report.graph
    t = graph.tallies
    seed = report.settings.seed
    lines = [f"# manifest_hash={tag} seed={seed}", "pair_i,pair_j,chain,sample,q_re,q_im,accepted"]
    for i, j in graph.edges():
        pair_id = report.mcmc_pair_ids[i, j]
        _, trace = covariance_mcmc(
            t.s[i], t.s[j], t.pair_s[i, j], t.d_p, report.settings.mcmc, seed, pair_id=pair_id, collect=True
        )
        q = trace["q"]
        acc = trace["accepted"]
        for c in range(q.shape[0]):
            for n in range(q.shape[1]):
                lines.append(f"{i},{j},{c},{n},{_fmt(q[c, n].real)},{_fmt(q[c, n].imag)},{int(acc[c, n])}")
    (out_dir / "chains.csv").write_text("\n".join(lines) + "\n")


def cmd_fit_noise(args) -> int:
    records = []
    for ln, line in enumerate(_read_text(args.probes).splitlines()):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("n_loc"):
            continue
        parts = line.split(",")
        if len(parts) not in (3, 4):
            raise CliError(f"{args.probes}:{ln + 1}: expected n_loc,n_ent,error[,ok]")
        try:
            records.append(tuple(int(x) for x in parts))
        except ValueError:
            raise CliError(f"{args.probes}:{ln + 1}: probe record {line!r}: counts must be integers")
    if not records:
        raise CliError("probe log is empty")
    fit = fit_noise_model(records)
    names = [f.name for f in fields(NoiseModel)]
    payload = {
        "map": dict(zip(names, fit.map_point)),
        "mean": dict(zip(names, fit.mean)),
        "sigma": dict(zip(names, fit.sigma)),
        "unidentifiable": fit.unidentifiable,
    }
    with _out_dir(args.out) as out_dir:
        (out_dir / "noise_fit.json").write_text(json.dumps(payload, indent=1))
    for name, mu, sig in zip(names, fit.mean, fit.sigma):
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
    except (CliError, ValueError, KeyError, MemoryError) as exc:
        err = {"error": type(exc).__name__, "message": str(exc) or type(exc).__name__}
        print(json.dumps(err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
