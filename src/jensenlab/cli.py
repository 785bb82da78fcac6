"""Command-line interface.

Subcommands: check-params, defect, approximate, verify, audit, sweep.
Exit codes: 0 ok, 1 violation (``verify`` and ``audit`` exit with their cell's outcome),
and an error's own ``exit_code``: 2 for a parameter or convergence outcome, 3 for a runtime
error, a config the schema rejects, a usage error or an uncaught exception, whose traceback
goes to stderr. A sweep reports findings, not a verdict: it exits 0.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from . import bounds, direct_method, harness, inequality
from .errors import EXIT_CODES, ConfigError, JensenLabError, ParameterError
from .space import draw_samples

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INADMISSIBLE = ParameterError.exit_code
EXIT_RUNTIME = JensenLabError.exit_code


def exit_status(outcome: str) -> int:
    """A cell's outcome as an exit status: 0 ok, 1 violation, else its error's exit_code."""
    return {"ok": EXIT_PASS, "violation": EXIT_VIOLATION, **EXIT_CODES}[outcome]


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as e:  # a JSONDecodeError, or an int past Python's digit limit
            raise ConfigError(f"config: {path} is not JSON: {e}") from e


def _apply_overrides(doc: dict, args) -> dict:
    """The config with the flags applied; a non-object is left for the schema."""
    if not isinstance(doc, dict):
        return doc
    doc = dict(doc)
    for flag, key in (("seed", "seed"), ("points", "count")):
        if getattr(args, flag, None) is not None and isinstance(doc.get("plan", {}), dict):
            doc["plan"] = {**doc.get("plan", {}), key: getattr(args, flag)}
    if getattr(args, "force", False):
        doc["force"] = True
    return doc


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_check_params(args, doc: dict) -> int:
    params = harness.rho_params(harness.normalize_config(doc))
    adm = inequality.admissible(params)
    _emit(f"{'admissible' if adm else 'inadmissible'}: {adm.detail}\n", args.out)
    return EXIT_PASS if adm else EXIT_INADMISSIBLE


def _cmd_defect(args, doc: dict) -> int:
    exp = harness.build_experiment(doc)
    triples = draw_samples(exp.space, exp.plan, arity=3)
    columns = [c.tolist() for c in inequality.defect_many(exp.f, triples, exp.params)]
    header = ["family", "x_norm", "y_norm", "z_norm", "lhs", "rhs", "defect"]
    rows = [dict(zip(header, (exp.params.family, *row))) for row in zip(*columns)]
    _emit(harness.stable_json(rows) if args.format == "json"
          else harness.csv_table(header, rows), args.out)
    print(f"defect: {len(rows)} triples, max defect {max(columns[-1], default=0.0):.6g}",
          file=sys.stderr)
    return EXIT_PASS


def _cmd_approximate(args, doc: dict) -> int:
    exp = harness.build_experiment(doc)
    pts = draw_samples(exp.space, exp.plan, arity=1)
    out = direct_method.approximate_points(exp.f, pts, exp.scheme, exp.tol,
                                           max_n=exp.config["max_n"], strict=False)
    if args.format == "csv":
        header = ["index", "x_norm", "iterations", "converged", "last_residual"]
        columns = (exp.space.norms(pts).tolist(), out.iterations.tolist(), out.converged.tolist(),
                   [res[-1] if res.size else 0.0 for res in out.residuals])
        rows = [dict(zip(header, (i, *row))) for i, row in enumerate(zip(*columns))]
        _emit(harness.csv_table(header, rows), args.out)
    else:
        _emit(harness.stable_json([out.report(i, x).to_json_dict()
                                   for i, x in enumerate(pts)]), args.out)
    bad = int((~out.converged).sum())
    print(f"approximate: {len(pts)} points, {bad} not converged", file=sys.stderr)
    return EXIT_PASS if bad == 0 else EXIT_INADMISSIBLE


def _cmd_verify(args, doc: dict) -> int:
    report = harness.run_verify(doc)
    _emit(harness.render_report(report, args.format), args.out)
    s = report.summary
    print(f"verify: {'PASS' if report.outcome == 'ok' else 'FAIL'} "
          f"max_violation={s['max_violation']:.6g} over {s['count']} points "
          f"({report.runtime_seconds:.2f}s)", file=sys.stderr)
    return exit_status(report.outcome)


def _cmd_audit(args, doc: dict) -> int:
    exp = harness.build_experiment(doc)
    pts = draw_samples(exp.space, exp.plan, arity=1)
    aud = bounds.audit(exp.f, exp.params, exp.scheme, exp.control, pts, tol=exp.tol,
                       trunc_terms=exp.config["trunc_terms"], max_n=exp.config["max_n"])
    payload = aud.to_json_dict()
    if args.format == "csv":
        row = {k: v for k, v in payload.items() if k != "verdicts"}
        row["derived_matches_paper"] = payload["verdicts"]["derived_matches_paper"]
        _emit(harness.csv_table(list(row), [row]), args.out)
    else:
        _emit(harness.stable_json(payload), args.out)
    print(f"audit[{aud.which}]: paper={aud.paper_constant} derived={aud.derived_constant} "
          f"empirical_sup={aud.empirical_sup:.6g} match={aud.verdicts['derived_matches_paper']}",
          file=sys.stderr)
    return exit_status(aud.outcome)


def _cmd_sweep(args, doc: dict) -> int:
    rows = harness.run_sweep(doc)
    _emit(harness.render_sweep(rows, args.format), args.out)
    print(f"sweep: {len(rows)} cells", file=sys.stderr)
    return exit_status("ok")  # a map reports findings, not a verdict


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is no parameter outcome (exit 2)
        self.exit(EXIT_RUNTIME, f"{self.format_usage()}{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jensenlab",
        description="Numerical verification of 3-variable Jensen rho-functional "
                    "inequality stability bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "check-params": _cmd_check_params,
        "defect": _cmd_defect,
        "approximate": _cmd_approximate,
        "verify": _cmd_verify,
        "audit": _cmd_audit,
        "sweep": _cmd_sweep,
    }
    for name, fn in handlers.items():
        p = sub.add_parser(name)
        p.set_defaults(handler=fn)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output path (stdout if omitted)")
        if name == "check-params":  # reads only the config's params
            continue
        p.add_argument("--seed", type=int, default=None, help="override plan seed")
        p.add_argument("--points", type=int, default=None, help="override plan count")
        p.add_argument("--format", choices=("json", "csv"),
                       default="csv" if name in ("defect", "sweep") else "json")
        p.add_argument("--force", action="store_true",
                       help="allow family/scheme cross-pairing")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, _apply_overrides(_load_config(args.config), args))
    except JensenLabError as e:
        print(f"error[{e.code}]: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error[io]: {e}", file=sys.stderr)
        return EXIT_RUNTIME


def entry():
    """The process entry of the console script, ``-m jensenlab`` and ``-m jensenlab.cli``."""
    try:
        code = main()
    except Exception:  # a crash is not a bound violation: Python's own exit 1 would read as one
        import traceback
        traceback.print_exc()
        code = EXIT_RUNTIME
    gc.freeze()  # the process is exiting: spare shutdown's collections the live import-time heap
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
