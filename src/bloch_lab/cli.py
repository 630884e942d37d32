"""Command-line entry point (installed as ``bloch-lab``).

Subcommands: basis, state, tensor, monotone, entropy, check, verify, sweep.
Exit codes: 0 success, 1 verification failure (violations found, or a
failed negation control), 2 usage or input errors (including malformed
state files, and a flag that the check or figure does not read).

A ``--config FILE`` of key=value lines supplies defaults for the options
named by the keys of ``_CONFIG_TYPES`` (option name with dashes as
underscores); explicit flags win, and any other key is an error.
Environment: BLOCH_LAB_SEED (default seed).  Campaigns run serially.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .basis import gellmann_basis, split_basis
from .correlation import bases_with_split, bloch_coefficients
from .entropy import _entropy, dim_ssa_vs_subadd, linear_entropy, renyi, tsallis
from .errors import BlochLabError
from .figures import sweep_fig1, sweep_figA, sweep_figB
from .io import (basis_to_jsonable, fig1_to_jsonable, figA_to_jsonable, figB_to_jsonable,
                 load_config, load_state, monotone_to_jsonable, report_to_jsonable,
                 state_to_jsonable, tensor_to_jsonable, write_fig1_csv, write_figA_csv,
                 write_figB_csv)
from .monotone import NormalizationPolicy, OptimizerConfig, correlation_monotone
from .states import EnsembleSpec, random_state
from .verify import _CHECKS, CHECK_ORDER, Campaign, _check_for, run_campaign

_CONFIG_TYPES = {
    "seed": int, "samples": int, "restarts": int, "points": int,
    "resolution": int, "index": int, "rank_cap": int, "d_e": int,
    "q": float, "alpha": float, "deterministic": "bool",
    "ensemble": str, "format": str, "case": str, "d_values": str, "dims": str, "policy": str,
}


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"invalid boolean {text!r} in config")


def _resolve(args, name: str, default):
    """Explicit flag > config file > built-in default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    config = getattr(args, "_config", None) or {}
    if name in config:
        conv = _CONFIG_TYPES[name]
        raw = config[name]
        return _parse_bool(raw) if conv == "bool" else conv(raw)
    return default


def _given(args, *names) -> dict:
    """The options among ``names`` that a flag or config key gave; the library
    supplies the defaults of the rest."""
    return {name: value for name in names if (value := _resolve(args, name, None)) is not None}


def _reject_unread(args, flags, read, target: str) -> None:
    """Exit 2 on an explicit flag that ``target`` does not read; config-file
    keys stay shared defaults and are never rejected."""
    for flag in flags:
        if getattr(args, flag) is not None and flag not in read:
            raise ValueError(f"--{flag.replace('_', '-')} does not apply to {target}")


def _default_seed() -> int:
    env = os.environ.get("BLOCH_LAB_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"invalid BLOCH_LAB_SEED value {env!r}")
    return 0


def _parse_dims(text: str) -> tuple[int, ...]:
    """Comma-separated integers; the library call they are passed to checks them."""
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"invalid dims {text!r}: expected comma-separated integers")


def _parse_partition(text: str, n_sites: int):
    """'A|BE' -> ((0,), (1, 2)).  Letter k of the alphabet is site k (A = 0); E is
    site 4 on states of five or more sites, and the last site on smaller ones."""
    if text.count("|") != 1:
        raise ValueError(f"invalid partition {text!r}: need exactly one '|'")
    sides = []
    for part in text.split("|"):
        sites = []
        for ch in part.strip():
            if not ch.isalpha():
                raise ValueError(f"invalid partition {text!r}: unexpected character {ch!r}")
            idx = ord(ch.upper()) - ord("A")
            if ch.upper() == "E" and idx >= n_sites:
                idx = n_sites - 1
            if not 0 <= idx < n_sites:
                raise ValueError(f"invalid partition {text!r}: site {ch!r} out of range "
                                 f"for {n_sites} sites")
            sites.append(idx)
        if not sites:
            raise ValueError(f"invalid partition {text!r}: empty side")
        sides.append(tuple(sites))
    return sides[0], sides[1]


def _parse_policy(text: str | None) -> NormalizationPolicy | None:
    if text is None:
        return None
    rule, colon, value = text.partition(":")
    return NormalizationPolicy(rule, float(value) if colon else None)


def _optimizer_from_args(args) -> OptimizerConfig:
    return OptimizerConfig(seed=_resolve(args, "seed", _default_seed()), **_given(args, "restarts"))


def _ensemble_from_args(args) -> EnsembleSpec:
    options = _given(args, "rank_cap")
    if (kind := _resolve(args, "ensemble", None)) is not None:
        options["kind"] = kind
    factors = getattr(args, "factors", None)
    return EnsembleSpec(seed=_resolve(args, "seed", _default_seed()),
                        factors=tuple(factors.split(",")) if factors else None, **options)


def _nonfinite(x, where: str = "output"):
    """(where, x) for the first NaN or infinity in a JSON payload, or None."""
    if isinstance(x, dict | list | tuple):
        items = x.items() if isinstance(x, dict) else enumerate(x)
        return next(filter(None, (_nonfinite(v, f"{where}[{k!r}]") for k, v in items)), None)
    return (where, x) if isinstance(x, float) and not math.isfinite(x) else None


def _emit(payload: dict, out: str | None) -> None:
    """Print or write strict JSON; ValueError naming a NaN or an infinity, which JSON cannot hold."""
    if bad := _nonfinite(payload):
        raise ValueError("cannot print %s = %r: JSON has no NaN or infinity" % bad)
    text = json.dumps(payload, indent=2, allow_nan=False)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_basis(args) -> int:
    d = args.dim
    b = split_basis(d, args.cut) if args.cut is not None else gellmann_basis(d)
    _emit(basis_to_jsonable(b), args.out)
    return 0


def _cmd_state(args) -> int:
    dims = _parse_dims(args.dims)
    spec = _ensemble_from_args(args)
    state = random_state(dims, spec, **_given(args, "index"))
    _emit(state_to_jsonable(state), args.out)
    return 0


def _cmd_tensor(args) -> int:
    state = load_state(args.state)
    if args.split:
        try:
            site_text, cut_text = args.split.split(":")
            site, cut = int(site_text), int(cut_text)
        except ValueError:
            raise ValueError(f"invalid --split {args.split!r}: expected SITE:CUT")
        bases = bases_with_split(state.dims, site, cut)
    else:
        bases = None
    _emit(tensor_to_jsonable(bloch_coefficients(state, bases)), args.out)
    return 0


def _cmd_monotone(args) -> int:
    state = load_state(args.state)
    partition = _parse_partition(args.partition, state.n_sites)
    result = correlation_monotone(state, partition, policy=_parse_policy(_resolve(args, "policy", None)),
                                  config=_optimizer_from_args(args))
    _emit(monotone_to_jsonable(result), args.out)
    return 0


def _cmd_entropy(args) -> int:
    state = load_state(args.state)
    q, alpha = _resolve(args, "q", 2.0), _resolve(args, "alpha", 2.0)
    _emit({"q": q, "alpha": alpha, "linear_entropy": linear_entropy(state),
           "tsallis": tsallis(state, q), "renyi": renyi(state, alpha),
           "site_linear_entropies": [_entropy(state, 2.0, (j,)) for j in range(state.n_sites)]}, args.out)
    return 0


def _cmd_check(args) -> int:
    state = load_state(args.state)
    # a negative margin is no violation, so dim-ssa-vs-subadd is not a campaign check
    check, _, takes = _CHECKS.get(args.inequality, (dim_ssa_vs_subadd, None, ()))
    # "config" means the check reads an OptimizerConfig, built from --restarts and --seed
    read = {*takes, *(("restarts", "seed") if "config" in takes else ())}
    _reject_unread(args, ("q", "d_e", "restarts", "seed"), read, args.inequality)
    if args.inequality in _CHECKS:
        # a config-file restarts or seed is a shared default: only a check that reads it checks it
        cfg = _optimizer_from_args(args) if "config" in takes else None
        check = _check_for(args.inequality, state.dims, config=cfg,
                           q=_resolve(args, "q", None), d_e=_resolve(args, "d_e", None))[0]
    _emit(report_to_jsonable(check(state)), args.out)
    return 0


def _cmd_verify(args) -> int:
    dims = _parse_dims(args.dims)
    # an empty --inequalities names no check, so the campaign rejects it
    names = ("all",) if args.inequalities is None else tuple(args.inequalities.split(","))
    campaign = Campaign(
        dims=dims,
        ensemble=_ensemble_from_args(args),
        inequalities=names,
        negate=bool(args.negate_control),
        out_dir=args.out_dir,
        **_given(args, "samples", "restarts"),
    )
    report = run_campaign(campaign)
    deterministic = bool(_resolve(args, "deterministic", False))
    _emit(report.to_jsonable(deterministic=deterministic), args.out)
    if campaign.negate:
        return 0 if report.control_tripped() else 1
    return 1 if report.total_violations > 0 else 0


# figure -> (sweep, JSON form, CSV writer, options it reads, passed on only when given)
_SWEEPS = {
    "fig1": (sweep_fig1, fig1_to_jsonable, write_fig1_csv, ("d_values", "case", "points")),
    "figa": (sweep_figA, figA_to_jsonable, write_figA_csv, ("dims", "resolution")),
    "figb": (sweep_figB, figB_to_jsonable, write_figB_csv, ("dims", "resolution")),
}


def _cmd_sweep(args) -> int:
    figure = args.figure.lower()
    fmt = _resolve(args, "format", "csv")
    if fmt not in ("csv", "json"):
        raise ValueError(f"invalid format {fmt!r}: use csv or json")
    deterministic = bool(_resolve(args, "deterministic", False))
    if figure not in _SWEEPS:
        raise ValueError(f"invalid figure {args.figure!r}: use fig1, figA or figB")
    sweep, to_jsonable, writer, names = _SWEEPS[figure]
    _reject_unread(args, dict.fromkeys(n for *_, ns in _SWEEPS.values() for n in ns), names,
                   args.figure)
    options = {name: _parse_dims(value) if name in ("dims", "d_values") else value
               for name, value in _given(args, *names).items()}
    data = sweep(**options)
    if fmt == "csv":
        if not args.out:
            raise ValueError("csv output needs --out FILE")
        writer(data, args.out, deterministic=deterministic)
    else:
        _emit(to_jsonable(data), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bloch-lab",
                                description="Operator-basis correlation toolbox")
    p.add_argument("--config", help="key=value defaults file")
    p.add_argument("--deterministic", action="store_const", const=True, default=None,
                   help="suppress timestamps and wall-clock fields in outputs")
    # accepted before or after the subcommand; SUPPRESS keeps the subparser
    # from clobbering a value parsed at the top level
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=argparse.SUPPRESS)
    shared.add_argument("--deterministic", action="store_const", const=True,
                        default=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("basis", help="emit an operator basis as JSON", parents=[shared])
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--cut", type=int, default=None,
                    help="low-block size; omit for the canonical basis")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_basis)

    sp = sub.add_parser("state", help="state generation", parents=[shared])
    ssub = sp.add_subparsers(dest="state_command", required=True)
    rp = ssub.add_parser("random", help="draw one ensemble sample", parents=[shared])
    rp.add_argument("--dims", required=True, help="comma-separated site dimensions")
    rp.add_argument("--ensemble", default=None,
                    help="pure-haar | hilbert-schmidt | induced | product-of")
    rp.add_argument("--seed", type=int, default=None)
    rp.add_argument("--index", type=int, default=None, help="sample index (default 0)")
    rp.add_argument("--rank-cap", dest="rank_cap", type=int, default=None)
    rp.add_argument("--factors", default=None,
                    help="per-site kinds for product-of, comma-separated")
    rp.add_argument("--out")
    rp.set_defaults(func=_cmd_state)

    sp = sub.add_parser("tensor", help="coefficient norms of a state", parents=[shared])
    sp.add_argument("--state", required=True, help="state JSON file")
    sp.add_argument("--split", default=None, help="SITE:CUT split basis on one site")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_tensor)

    sp = sub.add_parser("monotone", help="correlation monotone across a bipartition", parents=[shared])
    sp.add_argument("--state", required=True)
    sp.add_argument("--partition", required=True,
                    help="e.g. A|BE (A = site 0; E = the last site below five sites)")
    sp.add_argument("--policy", default=None,
                    help="unit-range | separable-bound | explicit:VALUE")
    sp.add_argument("--restarts", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_monotone)

    sp = sub.add_parser("entropy", help="entropies of a state", parents=[shared])
    sp.add_argument("--state", required=True)
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_entropy)

    sp = sub.add_parser("check", help="evaluate one inequality on a state", parents=[shared])
    sp.add_argument("--state", required=True)
    sp.add_argument("--inequality", required=True,
                    choices=[*CHECK_ORDER, "dim-ssa-vs-subadd"])
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--d-e", dest="d_e", type=int, default=None)
    sp.add_argument("--restarts", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("verify", help="Monte-Carlo campaign; exit 1 on violations", parents=[shared])
    sp.add_argument("--dims", required=True)
    sp.add_argument("--ensemble", default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--rank-cap", dest="rank_cap", type=int, default=None)
    sp.add_argument("--factors", default=None)
    sp.add_argument("--inequalities", default=None,
                    help="comma-separated check names, default all applicable")
    sp.add_argument("--restarts", type=int, default=None)
    sp.add_argument("--negate-control", action="store_true",
                    help="flip slack signs as a detection self-test; "
                         "exit 0 when the control trips as expected")
    sp.add_argument("--out")
    sp.add_argument("--out-dir", default=None, help="directory for counterexample dumps")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("sweep", help="figure data generation", parents=[shared])
    sp.add_argument("--figure", required=True, help="fig1 | figA | figB")
    sp.add_argument("--case", default=None, help="fig1: worst | best")
    sp.add_argument("--points", type=int, default=None)
    sp.add_argument("--d-values", dest="d_values", default=None)
    sp.add_argument("--dims", default=None)
    sp.add_argument("--resolution", type=int, default=None)
    sp.add_argument("--format", default=None, help="csv | json")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args._config = load_config(args.config) if args.config else {}
        for key in args._config:
            if key not in _CONFIG_TYPES:
                raise ValueError(f"unknown config key {key!r}")
        return args.func(args)
    except (ValueError, BlochLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
