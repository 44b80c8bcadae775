"""Command-line front end.

Subcommands: ``rates`` (secure-rate sweep table), ``threshold``
(error-rate thresholds per dimension), ``holevo`` (security bounds at
one operating point, optionally cross-checked against the brute-force
oracle), ``simulate`` (end-to-end session), ``optimize`` (sweep and
report only the optimum; a warning is logged when the optimum or the
d=2 baseline lies at an end of the mu grid or above the weak-pulse
guard).  ``HDCOW_LOG`` sets the log level.

Outputs are deterministic for a fixed seed and config: no timestamps,
fixed float formatting.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import logging
import math
import os
import sys

from . import __version__
from .channel import SOFT_FLUX_GUARD
from .config import Config, load_config
from .errors import HdcowError, InvalidArgumentError, NoThresholdError
from .rates import detection_rate, qber_threshold, sweep
from .security import (
    eve_optimal_holevo,
    holevo_oracle,
    mutual_info_ab,
    report_at,
    x_interval,
)
from .session import run_session, validate_transcript

log = logging.getLogger("hdcow")

_USAGE_EXIT = 2
_RUNTIME_EXIT = 1


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return f"{value:.12g}"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_to_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) if isinstance(v, float) else str(v) for v in row]
                     for row in rows)
    return buf.getvalue()


def _json_text(obj) -> str:
    def sanitize(value):
        if isinstance(value, dict):
            return {k: sanitize(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [sanitize(v) for v in value]
        if isinstance(value, float) and math.isnan(value):
            return None
        return value

    return json.dumps(sanitize(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def cmd_rates(config: Config, args) -> str:
    result = sweep(
        config.protocol.dimensions,
        config.mu_grid(),
        config.noise_model(),
        config.physical_params(),
    )
    header = ("d", "mu", "bits_per_detection", "alpha", "bits_per_second")
    rows = [
        (p.d, p.mu, p.bits_per_detection, p.alpha, p.bits_per_second)
        for p in result.grid
    ]
    log.info(
        "rates sweep: %d points, optimum d=%d mu=%g (%.4g bits/s), gain %.3f",
        len(rows), result.optimum.d, result.optimum.mu,
        result.optimum.bits_per_second, result.gain,
    )
    if args.format == "json":
        return _json_text(
            {
                "rows": [dict(zip(header, row)) for row in rows],
                "optimum": dict(zip(header, rows[result.grid.index(result.optimum)])),
                "gain_over_d2": result.gain,
            }
        )
    return _rows_to_csv(header, rows)


def cmd_threshold(config: Config, args) -> str:
    t = config.threshold
    mu = args.mu if args.mu is not None else t.mu
    visibility = args.visibility if args.visibility is not None else t.visibility
    axis = args.axis if args.axis is not None else t.axis
    rows = []
    for d in t.dimensions:
        try:
            e_total = qber_threshold(d, mu, visibility)
        except NoThresholdError:
            e_total = 0.0
        value = e_total / (d - 1) if axis == "per_slot" else e_total
        rows.append((d, value))
    if args.format == "json":
        return _json_text(
            {
                "convention": {"mu": mu, "visibility": visibility, "axis": axis},
                "thresholds": [{"d": d, "threshold": v} for d, v in rows],
            }
        )
    return _rows_to_csv(("d", "threshold"), rows)


def cmd_holevo(config: Config, args) -> str:
    d, q, mu, visibility = args.d, args.q, args.mu, args.visibility
    lo, hi = x_interval(mu, visibility)
    if args.x is not None:
        if not lo <= args.x <= hi:
            raise InvalidArgumentError(
                f"x={args.x} outside the admissible interval [{lo!r}, {hi!r}] "
                f"for mu={mu}, visibility={visibility}"
            )
        report = report_at(d, q, mu, args.x)
    else:
        report = eve_optimal_holevo(d, q, mu, visibility)
    payload = {
        "d": d,
        "q": q,
        "mu": mu,
        "visibility": visibility,
        "x_interval": [lo, hi],
        "x_star": report.x_star,
        "chi_ae": report.chi_ae,
        "chi_be": report.chi_be,
        "mutual_info_ab": mutual_info_ab(d, q),
        "secure_fraction": report.secure_fraction,
    }
    if args.oracle:
        oracle_ae, oracle_be = holevo_oracle(d, q, mu, report.x_star)
        payload["oracle_chi_ae"] = oracle_ae
        payload["oracle_chi_be"] = oracle_be
        payload["oracle_max_abs_diff"] = max(
            abs(oracle_ae - report.chi_ae), abs(oracle_be - report.chi_be)
        )
    if args.format == "csv":
        return _rows_to_csv(tuple(payload), [tuple(payload.values())])
    return _json_text(payload)


def cmd_simulate(config: Config, args) -> str:
    settings = config.session_settings()
    alice, bob, transcript = run_session(settings, seed=config.seed)
    violations = validate_transcript(transcript)
    model_alpha = detection_rate(
        settings.protocol.d,
        settings.physical.mu,
        settings.physical.xi_eff,
        settings.physical.t_dead,
        settings.physical.tau,
    )

    def summarize(s):
        return {
            "role": s.role,
            "d": s.d,
            "n": s.n,
            "blocks": s.blocks,
            "sifted_count": s.sifted_count,
            "q_hat": s.q_hat,
            "q_stderr": s.q_stderr,
            "v_hat": s.v_hat,
            "v_stderr": s.v_stderr,
            "detected_rate_per_s": s.detected_rate,
            "secure_bits_per_detection": s.secure_bits_per_detection,
            "secure_bits_per_second": s.secure_bits_per_second,
        }

    mismatches = sum(a != b for a, b in zip(alice.sifted, bob.sifted))
    payload = {
        "seed": config.seed,
        "alice": summarize(alice),
        "bob": summarize(bob),
        "sifted_mismatch_fraction": (
            mismatches / alice.sifted_count if alice.sifted_count else 0.0
        ),
        "model_alpha_per_s": model_alpha,
        "transcript_messages": len(transcript.messages()),
        "transcript_violations": violations,
    }
    return _json_text(payload)


def _warn_if_unsound(result, mu_grid, t_ch: float) -> None:
    """Log a warning for an optimum or d=2 baseline that the model does
    not vouch for: a mu at an end of the grid only bounds the search,
    and a mu*t_ch above the weak-pulse guard lies outside the security
    analysis."""
    ends = (mu_grid[0], mu_grid[-1])
    points = [(f"optimum d={result.optimum.d}", result.optimum)]
    if result.baseline_d2 not in (None, result.optimum):
        points.append(("d=2 baseline", result.baseline_d2))
    for name, point in points:
        if point.mu in ends:
            log.warning(
                "%s mu=%g lies at an end of the mu grid [%g, %g]; widen the "
                "sweep section to locate it", name, point.mu, *ends,
            )
        if point.mu * t_ch > SOFT_FLUX_GUARD:
            log.warning(
                "%s mu=%g gives mu*t_ch = %.4g, above the weak-pulse guard %g "
                "of the security analysis", name, point.mu, point.mu * t_ch,
                SOFT_FLUX_GUARD,
            )


def cmd_optimize(config: Config, args) -> str:
    mu_grid = config.mu_grid()
    phys = config.physical_params()
    result = sweep(config.protocol.dimensions, mu_grid, config.noise_model(), phys)
    _warn_if_unsound(result, mu_grid, phys.t_ch)
    opt = result.optimum
    payload = {
        "optimum": {
            "d": opt.d,
            "mu": opt.mu,
            "bits_per_detection": opt.bits_per_detection,
            "alpha": opt.alpha,
            "bits_per_second": opt.bits_per_second,
        },
        "gain_over_d2": result.gain,
        "baseline_d2": None
        if result.baseline_d2 is None
        else {
            "d": result.baseline_d2.d,
            "mu": result.baseline_d2.mu,
            "bits_per_second": result.baseline_d2.bits_per_second,
        },
    }
    if args.format == "csv":
        header = ("d", "mu", "bits_per_detection", "alpha", "bits_per_second", "gain")
        row = (opt.d, opt.mu, opt.bits_per_detection, opt.alpha,
               opt.bits_per_second, result.gain)
        return _rows_to_csv(header, [row])
    return _json_text(payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdcow",
        description="High-dimensional one-way time-bin QKD: simulation and "
        "key-rate analysis",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_format):
        p.add_argument("--config", help="JSON config file (defaults built in)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument(
            "--format", choices=("csv", "json"), default=default_format
        )

    common(sub.add_parser("rates", help="secure-rate sweep table"), "csv")

    p_thr = sub.add_parser("threshold", help="error-rate thresholds per dimension")
    common(p_thr, "csv")
    p_thr.add_argument("--mu", type=float, help="occupation for the convention")
    p_thr.add_argument("--visibility", type=float, help="visibility for the convention")
    p_thr.add_argument("--axis", choices=("per_slot", "total"))

    p_hol = sub.add_parser("holevo", help="security bounds at one point")
    common(p_hol, "json")
    p_hol.add_argument("--d", type=int, required=True)
    p_hol.add_argument("--q", type=float, required=True,
                       help="per-wrong-slot error probability")
    p_hol.add_argument("--mu", type=float, required=True)
    p_hol.add_argument("--visibility", type=float, default=0.99)
    p_hol.add_argument("--x", type=float,
                       help="evaluate at this overlap instead of optimizing")
    p_hol.add_argument("--oracle", action="store_true",
                       help="cross-check against the density-matrix oracle (d <= 4)")

    common(sub.add_parser("simulate", help="run an end-to-end session"), "json")
    common(sub.add_parser("optimize", help="sweep and report the optimum"), "json")
    return parser


_COMMANDS = {
    "rates": cmd_rates,
    "threshold": cmd_threshold,
    "holevo": cmd_holevo,
    "simulate": cmd_simulate,
    "optimize": cmd_optimize,
}


def main(argv=None) -> int:
    level = os.environ.get("HDCOW_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        text = _COMMANDS[args.command](config, args)
    except (InvalidArgumentError, OSError) as exc:
        parser.exit(_USAGE_EXIT, f"error: {exc}\n")
    except HdcowError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _RUNTIME_EXIT
    _emit(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
