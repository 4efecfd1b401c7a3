"""Command-line front end: generation, verification, rates, bounds, exact
identities, hash properties and simulation, with JSON output throughout.

Exit codes: 0 success, 1 property-check failure (with a witness in the JSON),
2 parameter/validation errors, unreadable files included, each naming its input.
Every flag that a subcommand takes is read by it: ``--seed`` belongs to
``bounds``, ``exact`` and ``simulate`` only, and no command takes a
tolerance, since ``bounds`` and ``exact`` judge with ``security.SLACK``.

``main`` builds its argument parser on its first call and reuses it for every
later call in the same process; each call parses into a fresh namespace.
The commands build F through ``Mosaic.color_matrix``: one gather over the
class and color tables for the families M1, M2 and M3, and one call of the
array-level f for M4.  Loaded member files set F directly from the member
matrices, and are certified as ``verify`` certifies them (``mosaics.certify``);
a file that fails exits 2 on other commands.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .designs import params_to_json
from .families import FAMILY_BUILDERS, build_family
from .hashprops import hashprops_report
from .mosaics import certify, rates
from .security import (
    SLACK,
    pa_report,
    prop41_check,
    prop42_check,
    wiretap_report,
)
from .serialize import content_hash, load_mosaic, save_mosaic
from .simkit import (
    SimConfig,
    channel_from_csv,
    constant_column_channel,
    identity_channel,
    independent_source,
    pa_roundtrip,
    random_channel,
    random_source,
    source_from_csv,
    symmetric_channel,
    wiretap_roundtrip,
)


class CliError(Exception):
    pass


def _emit(payload, out):
    text = json.dumps(payload, indent=2, default=_json_default)
    if out in (None, "-"):
        print(text)
    else:
        _write_out(out, lambda path: Path(path).write_text(text))


def _finish(payload, args, code):
    """Add the payload's ``inputs_hash``, emit it and return the exit code."""
    payload["inputs_hash"] = content_hash(payload)
    _emit(payload, args.out)
    return code


def _write_out(path, write):
    """``write(path)``; an OSError is an error of --out naming the path once."""
    try:
        return write(path)
    except OSError as exc:
        raise CliError(f"--out {path}: {exc.strerror}") from None


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


FAMILY_FLAGS = ("t", "l", "q", "k", "u")


def _family_params(args) -> dict:
    return {k: getattr(args, k) for k in FAMILY_FLAGS if getattr(args, k) is not None}


def _build(args):
    """The mosaic of --family or --mosaic.  A file of member matrices that fails
    ``certify`` is a validation error, except for ``verify``, which reports the
    failure.  A header without member files is rebuilt by ``build_family``, as
    --family is, and is not certified again."""
    path = getattr(args, "mosaic", None)
    if path:
        _check_opens("--mosaic", path)
        try:
            M = load_mosaic(path)
            # of the loaded mosaics, only those read from member files hold F
            fail = args.command != "verify" and M._colors is not None and certify(M)
        except (ValueError, OSError) as exc:
            raise CliError(f"--mosaic {path}: {exc}") from None
        if fail:
            stage, member, res = fail
            where = "" if member is None else f" at member {member}"
            raise CliError(f"--mosaic {path}: the {stage} check fails{where}: "
                           f"{res.reason} {list(res.witness)}")
        return M
    if not args.family:
        raise CliError("either --family with parameters or --mosaic is required")
    _, names, optional = FAMILY_BUILDERS[args.family]
    for name in _family_params(args):
        if name not in names + optional:
            raise CliError(f"--{name} is not a parameter of family {args.family}, which takes {names}")
    return build_family(args.family, **_family_params(args))


def _check_opens(flag, path):
    """A path that cannot be opened is an error of ``flag`` naming the path
    once; the OSError's own message would name it again."""
    try:
        with open(path, "rb"):
            pass
    except OSError as exc:
        raise CliError(f"{flag} {path}: {exc.strerror}") from None


def _read(flag, path, read, v):
    """``read(path)``, with a failure or a row count other than v reported as
    an error of ``flag``."""
    _check_opens(flag, path)
    try:
        law = read(path)
    except (ValueError, OSError) as exc:
        raise CliError(f"{flag} {path}: {exc}") from None
    if law.v != v:
        raise CliError(f"{flag} {path}: {law.v} rows, but the mosaic has {v} points")
    return law


def _parse_channel(spec, v, rng):
    if spec is None:
        raise CliError("--channel is required for this command")
    if spec == "identity":
        return identity_channel(v)
    if spec == "constant":
        return constant_column_channel(v)
    if spec == "random":
        return random_channel(v, max(2, v), rng)
    if spec.startswith("symmetric"):
        try:
            return symmetric_channel(v, float(spec.split(":", 1)[1]) if ":" in spec else 0.1)
        except ValueError as exc:
            raise CliError(f"--channel {spec}: {exc}") from None
    return _read("--channel", spec, channel_from_csv, v)


def _parse_source(spec, v, rng):
    if spec is None:
        raise CliError("--source is required for this command")
    if spec == "random":
        return random_source(v, max(2, v), rng)
    if spec == "independent":
        return independent_source(v, max(2, v))
    return _read("--source", spec, source_from_csv, v)


def _parse_pa(spec, a):
    if spec in (None, "uniform"):
        return None
    point = spec.startswith("point:")
    try:
        vals = int(spec[len("point:"):]) if point else np.array([float(t) for t in spec.split(",")])
    except ValueError:
        raise CliError(f"--pa {spec!r} is neither 'uniform', 'point:IDX' nor comma-separated weights")
    if point:
        if not 0 <= vals < a:
            raise CliError(f"--pa point index {vals} is out of range for {a} colors")
        p = np.zeros(a)
        p[vals] = 1.0
        return p
    if (len(vals) != a or not np.isfinite(vals).all() or (vals < 0).any()
            or abs(vals.sum() - 1) > 1e-9):
        raise CliError(f"--pa must name a distribution on {a} colors")
    return vals


def cmd_gen(args):
    M = _build(args)
    out = args.out or "mosaic.json"
    head = _write_out(out, lambda path: save_mosaic(M, path, members=args.members))
    print(json.dumps({"written": out, "header": head}, indent=2, default=_json_default))
    return 0


def cmd_verify(args):
    M = _build(args)
    result = {"params": _family_params(args), "v": M.v, "b": M.b, "a": M.a, "k": M.k}
    fail = certify(M)
    stage, member, res = fail or (None, None, None)
    why = fail and {"reason": res.reason, "witness": list(res.witness)}
    if stage == "members":
        result.update(member_check={"ok": False, "member": member, **why}, ok=False)
    elif stage != "mosaic":
        kind = M.member_kind
        result["member_check"] = ({"members": f"all {M.a} verify as {kind.upper()}s", "ok": True}
                                  if kind else {"ok": True})
    if stage in ("mosaic", "functional-form"):
        result.update(ok=False, stage=stage, **why)
    elif not fail:
        result["functional_form"] = "consistent"
        result["ok"] = True
        result["member_params"] = params_to_json(M.member_params) if M.member_params else None
        return _finish(result, args, 0)
    _emit(result, args.out)
    return 1


def cmd_rates(args):
    M = _build(args)
    rep = rates(M)
    payload = {
        "params": _family_params(args),
        "color_rate": rep.color_rate, "block_rate": rep.block_rate,
        "ratio": rep.ratio, "rho0": rep.rho0,
        "optimal": rep.optimal, "verdict": rep.verdict, "reason": rep.reason,
        "td_rate_floor": rep.td_rate_floor,
    }
    return _finish(payload, args, 0)


def cmd_bounds(args):
    M = _build(args)
    rng = np.random.default_rng(args.seed)
    if args.scenario == "wiretap":
        channel = _parse_channel(args.channel, M.v, rng)
        rep = wiretap_report(M, channel, _parse_pa(args.pa, M.a))
    else:
        source = _parse_source(args.source, M.v, rng)
        rep = pa_report(M, source)
    payload = rep.to_json()
    payload["scenario"] = args.scenario
    payload["params"] = _family_params(args)
    payload["seed"] = args.seed
    return _finish(payload, args, 0 if rep.dominates else 1)


def cmd_exact(args):
    M = _build(args)
    rng = np.random.default_rng(args.seed)
    member = M.member(0)
    params = M.member_params
    part = M.point_classes
    # a fixed channel or source is parsed once; 'random' (the default) draws one per trial
    if args.check == "prop41":
        check, spec, parse, draw = prop41_check, args.channel, _parse_channel, random_channel
    else:
        check, spec, parse, draw = prop42_check, args.source, _parse_source, random_source
    fixed = None if spec in (None, "random") else parse(spec, M.v, rng)
    worst = 0.0
    for _ in range(args.trials):
        law = fixed if fixed is not None else draw(M.v, int(rng.integers(2, M.v + 3)), rng)
        worst = max(worst, check(member, params, law, part).discrepancy)
    ok = worst < SLACK
    payload = {
        "check": args.check, "params": _family_params(args),
        "trials": args.trials, "seed": args.seed, "tol": SLACK,
        "max_discrepancy": worst, "ok": ok,
    }
    return _finish(payload, args, 0 if ok else 1)


def cmd_hashprops(args):
    M = _build(args)
    payload = hashprops_report(M)
    payload["params"] = _family_params(args)
    return _finish(payload, args, 0)


def cmd_simulate(args):
    M = _build(args)
    rng = np.random.default_rng(args.seed)
    cfg = SimConfig(mosaic=M, trials=args.trials, seed=args.seed, significance=args.significance)
    if args.scenario == "wiretap":
        cfg.channel = _parse_channel(args.channel, M.v, rng)
        cfg.p_a = _parse_pa(args.pa, M.a)
        res = wiretap_roundtrip(cfg)
    else:
        cfg.source = _parse_source(args.source, M.v, rng)
        res = pa_roundtrip(cfg)
    payload = res.to_json()
    payload["params"] = _family_params(args)
    return _finish(payload, args, 0 if res.passed else 1)


def _add_command(sub, name, fn, help):
    """A subcommand running ``fn``, with the flags that every command takes."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--family", choices=sorted(FAMILY_BUILDERS))
    for flag in FAMILY_FLAGS:
        p.add_argument(f"--{flag}", type=int)
    p.add_argument("--mosaic", help="mosaic JSON header written by gen")
    p.add_argument("--out", help="output path; '-' or omitted for stdout")
    p.set_defaults(fn=fn)
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="designmosaics",
                                 description="mosaics of combinatorial designs as security functions")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "gen", cmd_gen, "build a mosaic and write its JSON header (+CSV members)")
    p.add_argument("--members", action="store_true", help="also write one CSV per color")
    _add_command(sub, "verify", cmd_verify, "re-check partition, member and inverse properties")
    _add_command(sub, "rates", cmd_rates, "color/block rates and optimality verdict")

    p = _add_command(sub, "bounds", cmd_bounds, "exact metrics vs. theorem bounds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scenario", choices=("wiretap", "pa"), default="wiretap")
    p.add_argument("--channel")
    p.add_argument("--source")
    p.add_argument("--pa", help="uniform | point:IDX | comma-separated weights")

    p = _add_command(sub, "exact", cmd_exact, "exact-identity checks on random channels/sources")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check", choices=("prop41", "prop42"), required=True)
    p.add_argument("--channel")
    p.add_argument("--source")
    p.add_argument("--trials", type=int, default=100)
    _add_command(sub, "hashprops", cmd_hashprops, "collision spectrum and universality report")

    p = _add_command(sub, "simulate", cmd_simulate, "Monte Carlo roundtrips calibrated against exact laws")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scenario", choices=("wiretap", "pa"), default="wiretap")
    p.add_argument("--channel")
    p.add_argument("--source")
    p.add_argument("--pa")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--significance", type=float, default=1e-3)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _check_numeric_flags(args):
    """Reject numeric flags outside their domain; the parser checks only types."""
    if getattr(args, "seed", 0) < 0:
        raise CliError(f"--seed must be nonnegative, got {args.seed}")
    if getattr(args, "trials", 1) < 1:
        raise CliError(f"--trials must be at least 1, got {args.trials}")
    if not 0 < getattr(args, "significance", 0.5) < 1:
        raise CliError(f"--significance must lie in (0, 1), got {args.significance}")


READS = {"wiretap": ("channel", "pa"), "pa": ("source",), "prop41": ("channel",), "prop42": ("source",)}


def _check_unread_flags(args):
    """Reject a --channel, --source or --pa that the --scenario or --check does not read."""
    mode = "scenario" if hasattr(args, "scenario") else "check"
    value = getattr(args, mode, None)
    for flag in ("channel", "source", "pa"):
        if getattr(args, flag, None) is not None and flag not in READS[value]:
            raise CliError(f"--{flag} is not read by {args.command} --{mode} {value}")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_numeric_flags(args)
        _check_unread_flags(args)
        return args.fn(args)
    except (CliError, ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
