"""Command-line surface: every analysis as one scriptable subcommand.

Subcommands::

    macfeedback singlerate --channel ch.json
    macfeedback region     --channel ch.json [--weights 1:0,1:1] [--csv-out f]
    macfeedback check gain-condition|additive-classify|symmetry|additive|erasure-scaling ...
    macfeedback cfcurve    --channel ch.json [--xk-star S --xbar-k S] [--a-grid 0:0.2:0.005]

Results are JSON on stdout (CSV for curve and frontier data, to a file
via ``--csv-out`` or to stdout otherwise). Exit codes: 0 for success
including negative analysis outcomes, 1 for internal errors, 2 for
input or validation errors; errors are mirrored as machine-readable JSON
on stderr. Identical configuration and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from ._util import channel_mi_bits
from .channel import Pmf, partner_channels
from .channel_io import ChannelFile, load_channel_file
from .checkers import (_additive_evidence, _classify_user, compress_forward_curve,
                       compress_forward_rate, erasure_scaling_check,
                       gain_sufficient_condition, single_rate_capacity)
from .errors import InputError
from .groups import (channel_given_sum, conditional_mi_spread,
                     rows_are_permutations, verify_additive)
from .regions import (batch_pentagon, cover_leung_frontier, cutset_single_rate,
                      cutset_sum_rate, default_weight_fan, pentagon_corners)

VERIFY_TOL = 1e-9
MAX_A_POINTS = 100_000

# Defaults of the common numeric flags.
COMMON_DEFAULTS = {"seed": 0, "tol": 1e-9, "restarts": 25}


class VerificationError(RuntimeError):
    """A stored witness failed re-evaluation under --verify."""


def _emit(obj: dict, args) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if getattr(args, "json_out", None):
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(text: str, args) -> None:
    if getattr(args, "csv_out", None):
        with open(args.csv_out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_weights(spec: str) -> list[tuple[float, float]]:
    if not spec.strip():
        raise InputError("no weights given")
    out = []
    for chunk in spec.split(","):
        parts = chunk.strip().split(":")
        if len(parts) != 2:
            raise InputError(f"weight {chunk!r} is not of the form w1:w2")
        try:
            w1, w2 = float(parts[0]), float(parts[1])
        except ValueError:
            raise InputError(f"weight {chunk!r} is not numeric") from None
        out.append((w1, w2))
    return out


def _parse_a_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise InputError(f"a-grid {spec!r} is not of the form start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise InputError(f"a-grid {spec!r} is not numeric") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise InputError(f"a-grid {spec!r} must be finite")
    if step <= 0 or stop < start:
        raise InputError(f"a-grid {spec!r} must have positive step and stop >= start")
    if start != 0.0:
        raise InputError("a-grid must start at 0")
    if stop > 1.0:
        raise InputError(f"--a-grid {spec!r} must stop at or below 1")
    steps = (stop - start) / step
    if steps > MAX_A_POINTS - 1:
        raise InputError(f"a-grid {spec!r} has more than {MAX_A_POINTS} points")
    grid = [round(start + k * step, 12) for k in range(int(round(steps)) + 1)]
    return [a for a in grid if 0.0 <= a <= 1.0]


def _require_group(cf: ChannelFile):
    if cf.group is None:
        raise InputError("group specification required (no 'group' block in the file)")
    return cf.group


def cmd_singlerate(args) -> dict:
    cf = load_channel_file(args.channel)
    out = {"channel": cf.name, "tol": args.tol}
    for user in (1, 2):
        res = single_rate_capacity(cf.mac, user, tol=args.tol)
        out[f"user{user}"] = res.to_dict()
        if args.verify:
            rows = partner_channels(cf.mac, user)[res.xk_star].rows
            again = float(channel_mi_bits(res.p_star.probs, rows))
            if abs(again - res.value) > VERIFY_TOL:
                raise VerificationError(
                    f"user {user}: stored value {res.value!r} but witness "
                    f"re-evaluates to {again!r}"
                )
    return out


def cmd_region(args) -> tuple[dict, str]:
    cf = load_channel_file(args.channel)
    weights = default_weight_fan() if args.weights is None else _parse_weights(args.weights)
    frontier = cover_leung_frontier(
        cf.mac, weights=weights, restarts=args.restarts,
        u_card=args.u_card, seed=args.seed, tol=args.tol)
    c1 = cutset_single_rate(cf.mac, 1, args.model, tol=args.tol)
    c2 = cutset_single_rate(cf.mac, 2, args.model, tol=args.tol)
    csum = cutset_sum_rate(cf.mac, tol=args.tol)

    if args.verify:
        # Re-evaluated with the batched kernel, independently of the
        # named-axis evaluation that produced the stored value.
        for pt in frontier.points:
            q = pt.witness
            val, r1, r2 = pentagon_corners(
                *batch_pentagon(cf.mac.pmf, q.p_u.probs[None],
                                q.p_x1_given_u.rows[None], q.p_x2_given_u.rows[None]),
                *pt.weights)
            if (abs(val[0] - pt.value) > VERIFY_TOL
                    or abs(r1[0] - pt.rates.r1) > VERIFY_TOL
                    or abs(r2[0] - pt.rates.r2) > VERIFY_TOL):
                raise VerificationError(
                    f"frontier point at weights {pt.weights} re-evaluates to "
                    f"{val[0]!r}, stored {pt.value!r}"
                )

    csv_text = frontier.to_csv()
    csv_text += f"{1.0!r},{0.0!r},{c1!r},{0.0!r},outer_bound\n"
    csv_text += f"{0.0!r},{1.0!r},{0.0!r},{c2!r},outer_bound\n"
    csv_text += f"{1.0!r},{1.0!r},{csum / 2!r},{csum / 2!r},outer_bound\n"
    obj = {
        "channel": cf.name,
        "model": args.model,
        "frontier": frontier.to_dict(),
        "cutset": {"r1": c1, "r2": c2, "sum": csum},
    }
    return obj, csv_text


# The flags each check reads; any other flag given to `check` exits 2.
CHECK_FLAGS = {
    "gain-condition": ("tol",),
    "additive-classify": (),
    "symmetry": (),
    "additive": (),
    "erasure-scaling": ("erasure_p", "weights", "restarts", "seed", "tol"),
}


def _check_flags(args) -> None:
    """Reject a flag the chosen check does not read, then fill in defaults.

    `check` parses every common flag as None, so that a given flag is told
    apart from one left at its default.
    """
    reads = CHECK_FLAGS[args.which]
    for name in ("tol", "seed", "restarts", "weights", "erasure_p", "verify"):
        if getattr(args, name) is not None and name not in reads:
            flag = "--" + name.replace("_", "-")
            raise InputError(f"check {args.which} does not read {flag}")
    for name, default in COMMON_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)


def cmd_check(args) -> dict:
    _check_flags(args)
    cf = load_channel_file(args.channel)
    which = args.which
    out: dict = {"channel": cf.name, "check": which}
    if which == "additive":
        group = _require_group(cf)
        out["report"] = verify_additive(cf.mac, group).to_dict()
    elif which == "symmetry":
        group = _require_group(cf)
        add = verify_additive(cf.mac, group)
        if not add.additive:
            raise InputError("channel is not additive: " + "; ".join(add.violations[:3]))
        sum_ch = channel_given_sum(cf.mac, group)
        out["rows_are_permutations"] = rows_are_permutations(sum_ch)
        for user in (1, 2):
            alpha = cf.mac.x1_alphabet if user == 1 else cf.mac.x2_alphabet
            spread = conditional_mi_spread(cf.mac, user, Pmf.uniform(alpha))
            out[f"user{user}"] = spread.to_dict()
    elif which == "gain-condition":
        for user in (1, 2):
            out[f"user{user}"] = gain_sufficient_condition(
                cf.mac, user, tol=args.tol).to_dict()
    elif which == "additive-classify":
        group = _require_group(cf)
        evidence = _additive_evidence(cf.mac, group)
        for user in (1, 2):
            out[f"user{user}"] = _classify_user(cf.mac, group, user, evidence).to_dict()
    elif which == "erasure-scaling":
        if args.erasure_p is None:
            raise InputError("erasure-scaling requires --erasure-p")
        weights = None if args.weights is None else _parse_weights(args.weights)
        out["report"] = erasure_scaling_check(
            cf.mac, args.erasure_p, weights=weights, restarts=args.restarts,
            seed=args.seed, tol=args.tol).to_dict()
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown check {which!r}")
    return out


def cmd_cfcurve(args) -> tuple[dict, str]:
    cf = load_channel_file(args.channel)
    user = args.user
    a_grid = _parse_a_grid(args.a_grid)
    if (args.xk_star is None) != (args.xbar_k is None):
        raise InputError("--xk-star and --xbar-k must be given together")
    auto = args.xk_star is None
    if auto:
        gain = gain_sufficient_condition(cf.mac, user, tol=args.tol)
        if gain.witness is not None:
            p_star, xk_star, xbar_k = gain.witness
        else:
            sr = gain.single_rate
            xk_star = sr.xk_star
            others = [s for s in sr.inputs if s != xk_star]
            xbar_k = others[0] if others else xk_star
            p_star = sr.p_star
    else:
        xk_star, xbar_k = args.xk_star, args.xbar_k
        inputs = single_rate_capacity(cf.mac, user, tol=args.tol).inputs
        if xk_star not in inputs:
            raise InputError(f"symbol {xk_star!r} not in the partner alphabet")
        p_star = inputs[xk_star]
    curve = compress_forward_curve(cf.mac, user, xk_star, xbar_k, p_star, a_grid)

    if args.verify:
        for a, b, rate in zip(curve.a_grid, curve.b_values, curve.rates):
            again = compress_forward_rate(cf.mac, user, xk_star, xbar_k, p_star, a, b)
            if abs(again - rate) > VERIFY_TOL:
                raise VerificationError(
                    f"curve point at a={a!r}, b={b!r} re-evaluates to {again!r}, "
                    f"stored {rate!r}"
                )

    obj = {
        "channel": cf.name,
        "user": user,
        "xk_star": xk_star,
        "xbar_k": xbar_k,
        "auto_selected": auto,
        "p_star": {"alphabet": list(p_star.alphabet),
                   "probs": [float(v) for v in p_star.probs]},
        "curve": curve.to_dict(),
    }
    return obj, curve.to_csv()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse fills a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="macfeedback",
        description="Feedback-capacity bounds for two-user multiple-access channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, csv=False):
        p.add_argument("--channel", required=True, help="channel JSON file")
        p.add_argument("--seed", type=int, default=COMMON_DEFAULTS["seed"])
        p.add_argument("--tol", type=float, default=COMMON_DEFAULTS["tol"])
        p.add_argument("--restarts", type=int, default=COMMON_DEFAULTS["restarts"])
        p.add_argument("--json-out", default=None)
        p.add_argument("--verify", action="store_true",
                       help="re-evaluate all emitted witnesses")
        if csv:
            p.add_argument("--csv-out", default=None)

    p = sub.add_parser("singlerate", help="single-user capacities for both users")
    common(p)

    p = sub.add_parser("region", help="achievable frontier plus cut-set lines")
    common(p, csv=True)
    p.add_argument("--weights", default=None, help='e.g. "1:0,1:1,0:1"')
    p.add_argument("--u-card", type=int, default=None)
    p.add_argument("--model", choices=["PF", "IF", "DF"], default="PF")

    p = sub.add_parser("check", help="run one analysis and report JSON")
    p.add_argument("which", choices=["gain-condition", "additive-classify",
                                     "symmetry", "additive", "erasure-scaling"])
    common(p)
    p.add_argument("--weights", default=None)
    p.add_argument("--erasure-p", type=float, default=None)
    p.set_defaults(verify=None, **dict.fromkeys(COMMON_DEFAULTS))

    p = sub.add_parser("cfcurve", help="compress-forward rate curve")
    common(p, csv=True)
    p.add_argument("--user", type=int, choices=[1, 2], default=1)
    p.add_argument("--xk-star", default=None)
    p.add_argument("--xbar-k", default=None)
    p.add_argument("--a-grid", default="0:0.2:0.005")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "singlerate":
            _emit(cmd_singlerate(args), args)
        elif args.command == "region":
            obj, csv_text = cmd_region(args)
            if args.csv_out:
                _emit_csv(csv_text, args)
            _emit(obj, args)
        elif args.command == "check":
            _emit(cmd_check(args), args)
        elif args.command == "cfcurve":
            obj, csv_text = cmd_cfcurve(args)
            _emit_csv(csv_text, args)
            if args.json_out or args.csv_out:
                _emit(obj, args)
        return 0
    except InputError as exc:
        sys.stderr.write(json.dumps(
            {"error": "input", "message": str(exc)}) + "\n")
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
