"""Command-line surface: every analysis as one scriptable subcommand.

Subcommands, each with the flags it reads::

    macfeedback singlerate --channel ch.json [--tol X] [--verify]
    macfeedback region     --channel ch.json [--weights 1:0,1:1] [--restarts N] [--seed N]
                           [--tol X] [--u-card N] [--model PF|IF|DF] [--verify] [--csv-out f]
    macfeedback check gain-condition --channel ch.json [--tol X]
    macfeedback check additive-classify|symmetry|additive --channel ch.json
    macfeedback check erasure-scaling --channel ch.json --erasure-p P [--weights 1:1]
                           [--restarts N] [--seed N] [--tol X]
    macfeedback cfcurve    --channel ch.json [--user 1|2] [--xk-star S --xbar-k S]
                           [--a-grid 0:0.2:0.005] [--tol X] [--verify] [--csv-out f]

Every subcommand also reads ``--json-out``. Each parser declares only the
flags its handler reads, so any other flag is a usage error; a ``check``
analysis takes its flags after its name. Results are JSON, on stdout or
to ``--json-out``; ``region`` writes its frontier CSV only to
``--csv-out``. ``cfcurve`` writes its curve CSV to ``--csv-out``, else to
stdout, and its JSON to ``--json-out``, else to stdout only when the CSV
went to ``--csv-out``. An output path that is a directory, or whose
directory does not exist, is refused before any analysis runs. Exit
codes: 0 for success including negative analysis outcomes, 1 for internal
errors, 2 for usage, input or validation errors; errors are mirrored as
one line of machine-readable JSON on stderr.
Identical configuration and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .channel import JointDist, Pmf
from .channel_io import ChannelFile, load_channel_file
from .checkers import (classify_additive_gain, compress_forward_curve,
                       compress_forward_rate, erasure_scaling_check,
                       gain_sufficient_condition, single_rate_capacity)
from .errors import InputError
from .groups import (channel_given_sum, conditional_mi_spread,
                     rows_are_permutations, verify_additive)
from .infotheory import mutual_information
from .optimize import DEFAULT_TOL
from .regions import (DEFAULT_RESTARTS, DEFAULT_SEED, batch_pentagon, cover_leung_frontier,
                      cutset_single_rate, cutset_sum_rate, frontier_point)

VERIFY_TOL = 1e-9
MAX_A_POINTS = 100_000

# Flags read by more than one subcommand; a parser declares those it reads.
_SHARED_FLAGS = {
    "--seed": dict(type=int, default=DEFAULT_SEED),
    "--tol": dict(type=float, default=DEFAULT_TOL),
    "--restarts": dict(type=int, default=DEFAULT_RESTARTS),
    "--weights": dict(default=None, help='e.g. "1:0,1:1,0:1"'),
    "--verify": dict(action="store_true", help="re-evaluate all emitted witnesses"),
    "--csv-out": dict(default=None),
}


class VerificationError(RuntimeError):
    """A stored witness failed re-evaluation under --verify."""


def _check_output_path(path: str | None) -> None:
    """Refuse an output path that is a directory or whose directory does not exist."""
    if path and os.path.isdir(path):
        raise InputError(f"cannot write {path!r}: it is a directory")
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise InputError(f"cannot write {path!r}: its directory does not exist")


def _emit(out: dict | str, path: str | None) -> None:
    """Write a JSON report or CSV text to the file ``path``, else to stdout;
    a path that cannot be written is an input error."""
    if isinstance(out, dict):
        out = json.dumps(out, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            raise InputError(f"cannot write {path!r}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(out)


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
    """start, start + step, ... up to the last point that does not pass stop
    once rounded to 12 digits."""
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
    points = (round(start + k * step, 12) for k in range(math.floor(steps + 1e-9) + 1))
    return [a for a in points if a <= stop]


def _require_group(cf: ChannelFile):
    if cf.group is None:
        raise InputError("group specification required (no 'group' block in the file)")
    return cf.group


def cmd_singlerate(cf: ChannelFile, args) -> dict:
    out = {"channel": cf.mac.name, "tol": args.tol}
    for user in (1, 2):
        res = single_rate_capacity(cf.mac, user, tol=args.tol)
        out[f"user{user}"] = res.to_dict()
        if args.verify:
            # Re-evaluated on the named-axis joint p*(x) W(y|x), independently
            # of the channel_mi_bits kernel that produced the stored value.
            ch = res.channels[res.xk_star]
            again = mutual_information(JointDist(
                (("x", ch.input_alphabet), ("y", ch.output_alphabet)),
                res.p_star.probs[:, None] * ch.rows))
            if abs(again - res.value) > VERIFY_TOL:
                raise VerificationError(
                    f"user {user}: stored value {res.value!r} but witness "
                    f"re-evaluates to {again!r}"
                )
    return out


def cmd_region(cf: ChannelFile, args) -> tuple[dict, str]:
    weights = None if args.weights is None else _parse_weights(args.weights)
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
            _, rates, val = frontier_point(
                *batch_pentagon(cf.mac.pmf, q.p_u.probs[None],
                                q.p_x1_given_u.rows[None], q.p_x2_given_u.rows[None]),
                pt.weights)
            if (abs(val - pt.value) > VERIFY_TOL * sum(pt.weights)
                    or abs(rates.r1 - pt.rates.r1) > VERIFY_TOL
                    or abs(rates.r2 - pt.rates.r2) > VERIFY_TOL):
                raise VerificationError(
                    f"frontier point at weights {pt.weights} re-evaluates to "
                    f"{val!r}, stored {pt.value!r}"
                )

    csv_text = frontier.to_csv()
    csv_text += f"{1.0!r},{0.0!r},{c1!r},{0.0!r},outer_bound\n"
    csv_text += f"{0.0!r},{1.0!r},{0.0!r},{c2!r},outer_bound\n"
    csv_text += f"{1.0!r},{1.0!r},{csum / 2!r},{csum / 2!r},outer_bound\n"
    obj = {
        "channel": cf.mac.name,
        "model": args.model,
        "frontier": frontier.to_dict(),
        "cutset": {"r1": c1, "r2": c2, "sum": csum},
    }
    return obj, csv_text


def cmd_check(cf: ChannelFile, args) -> dict:
    which = args.which
    out: dict = {"channel": cf.mac.name, "check": which}
    if which == "additive":
        group = _require_group(cf)
        out["report"] = verify_additive(cf.mac, group).to_dict()
    elif which == "symmetry":
        group = _require_group(cf)
        verify_additive(cf.mac, group).require_additive()
        sum_ch = channel_given_sum(cf.mac, group)
        out["rows_are_permutations"] = rows_are_permutations(sum_ch)
        for user in (1, 2):
            alpha = cf.mac.x1_alphabet if user == 1 else cf.mac.x2_alphabet
            spread = conditional_mi_spread(cf.mac, user, Pmf.uniform(alpha))
            out[f"user{user}"] = spread.to_dict()
    elif which == "gain-condition":
        for user in (1, 2):
            out[f"user{user}"] = gain_sufficient_condition(
                single_rate_capacity(cf.mac, user, tol=args.tol)).to_dict()
    elif which == "additive-classify":
        group = _require_group(cf)
        for cls in classify_additive_gain(cf.mac, group):
            out[f"user{cls.user}"] = cls.to_dict()
    else:  # erasure-scaling
        weights = None if args.weights is None else _parse_weights(args.weights)
        out["report"] = erasure_scaling_check(
            cf.mac, args.erasure_p, weights=weights, restarts=args.restarts,
            seed=args.seed, tol=args.tol).to_dict()
    return out


def cmd_cfcurve(cf: ChannelFile, args) -> tuple[dict, str]:
    user = args.user
    a_grid = _parse_a_grid(args.a_grid)
    if (args.xk_star is None) != (args.xbar_k is None):
        raise InputError("--xk-star and --xbar-k must be given together")
    auto = args.xk_star is None
    sr = single_rate_capacity(cf.mac, user, tol=args.tol)
    if auto:
        gain = gain_sufficient_condition(sr)
        if gain.witness is not None:
            p_star, xk_star, xbar_k = gain.witness
        else:
            xk_star = sr.xk_star
            others = [s for s in sr.inputs if s != xk_star]
            xbar_k = others[0] if others else xk_star
            p_star = sr.p_star
    else:
        xk_star, xbar_k = args.xk_star, args.xbar_k
        p_star = sr.inputs.get(xk_star)  # an unknown symbol is the curve's to reject
    # The curve and its re-evaluation read the partner channels sr solved.
    curve = compress_forward_curve(sr.channels, xk_star, xbar_k, p_star, a_grid)

    if args.verify:
        for a, b, rate in zip(curve.a_grid, curve.b_values, curve.rates):
            again = compress_forward_rate(sr.channels, xk_star, xbar_k, p_star, a, b)
            if abs(again - rate) > VERIFY_TOL:
                raise VerificationError(
                    f"curve point at a={a!r}, b={b!r} re-evaluates to {again!r}, "
                    f"stored {rate!r}"
                )

    obj = {
        "channel": cf.mac.name,
        "user": user,
        "xk_star": xk_star,
        "xbar_k": xbar_k,
        "auto_selected": auto,
        "p_star": p_star.to_dict(),
        "curve": curve.to_dict(),
    }
    return obj, curve.to_csv()


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as an InputError: one JSON line on stderr, exit 2."""

    def error(self, message):
        raise InputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse fills a fresh Namespace."""
    parser = _Parser(
        prog="macfeedback",
        description="Feedback-capacity bounds for two-user multiple-access channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name, *flags, **kwargs):
        p = subparsers.add_parser(name, **kwargs)
        p.add_argument("--channel", required=True, help="channel JSON file")
        p.add_argument("--json-out", default=None)
        for flag in flags:
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        return p

    command(sub, "singlerate", "--tol", "--verify",
            help="single-user capacities for both users")

    p = command(sub, "region", "--weights", "--restarts", "--seed", "--tol", "--verify",
                "--csv-out", help="achievable frontier plus cut-set lines")
    p.add_argument("--u-card", type=int, default=None)
    p.add_argument("--model", choices=["PF", "IF", "DF"], default="PF")

    checks = sub.add_parser("check", help="run one analysis and report JSON")
    checks = checks.add_subparsers(dest="which", required=True)
    command(checks, "gain-condition", "--tol")
    for which in ("additive-classify", "symmetry", "additive"):
        command(checks, which)
    p = command(checks, "erasure-scaling", "--weights", "--restarts", "--seed", "--tol")
    p.add_argument("--erasure-p", type=float, required=True)

    p = command(sub, "cfcurve", "--tol", "--verify", "--csv-out",
                help="compress-forward rate curve")
    p.add_argument("--user", type=int, choices=[1, 2], default=1)
    p.add_argument("--xk-star", default=None)
    p.add_argument("--xbar-k", default=None)
    p.add_argument("--a-grid", default="0:0.2:0.005")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for path in (args.json_out, getattr(args, "csv_out", None)):
            _check_output_path(path)
        cf = load_channel_file(args.channel)
        if args.command == "singlerate":
            _emit(cmd_singlerate(cf, args), args.json_out)
        elif args.command == "region":
            obj, csv_text = cmd_region(cf, args)
            if args.csv_out:
                _emit(csv_text, args.csv_out)
            _emit(obj, args.json_out)
        elif args.command == "check":
            _emit(cmd_check(cf, args), args.json_out)
        else:
            obj, csv_text = cmd_cfcurve(cf, args)
            _emit(csv_text, args.csv_out)
            if args.json_out or args.csv_out:
                _emit(obj, args.json_out)
        return 0
    except SystemExit as exc:  # --help printed the usage text
        return int(exc.code or 0)
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
