"""Command-line front end: scenario runs, bound tables, and the bank service."""

from __future__ import annotations

import argparse
import sys

from . import harness, scheme, stats
from .bank import BankServer, BankService


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtoken",
        description="Simulator and protocol suite for anonymous single-use tokens "
        "with classical verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a Monte Carlo scenario and emit CSV")
    run.add_argument("scenario", choices=harness.SCENARIOS)
    run.add_argument("--k", type=int, default=None, help="security parameter (multiple of 4)")
    run.add_argument("--trials", type=int, default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--strategy", default=None,
                     help="forger strategy name (forgery scenario only)")
    run.add_argument("--out", default=None, help="CSV output path (default: stdout)")

    bounds = sub.add_parser("bounds", help="print the parameter and bound table as CSV")
    bounds.add_argument("--k", type=int, required=True)
    bounds.add_argument("--out", default=None)

    serve = sub.add_parser("serve", help="start the bank verification service")
    serve.add_argument("--log", required=True, help="append-only log path (replayed on start)")
    serve.add_argument("--socket", required=True,
                       help="unix socket path, or host:port for TCP")
    serve.add_argument("--no-sync", action="store_true",
                       help="skip fsync after each record (testing only)")

    mint = sub.add_parser(
        "mint", help="register a fresh series in a service log and print sample reports"
    )
    mint.add_argument("--log", required=True)
    mint.add_argument("--k", type=int, default=8)
    mint.add_argument("--series", default=None)
    mint.add_argument("--seed", type=int, default=0)
    mint.add_argument("--reports", type=int, default=4,
                      help="how many honest reports to print for manual testing")
    return parser


def _cmd_run(args) -> int:
    spec = harness.ScenarioSpec(
        scenario=args.scenario,
        k=args.k,
        trials=args.trials,
        seed=args.seed,
        strategy=args.strategy,
        out=args.out,
    )
    result = harness.run_scenario(spec)
    if args.out is None:
        sys.stdout.write(result.to_csv())
    else:
        print(f"wrote {len(result.metrics)} metrics to {args.out}")
    for m in result.metrics:
        status = "pass" if m.passed else "FAIL"
        print(f"{status}  {m.metric}: estimate={float(m.estimate)!r} "
              f"expected={float(m.expected)!r} "
              f"({m.relation})", file=sys.stderr)
    return 0 if result.all_passed() else 1


def _cmd_bounds(args) -> int:
    text = harness.bounds_csv(args.k)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_serve(args) -> int:
    service = BankService.recover(args.log, sync=not args.no_sync)
    server = BankServer(service, args.socket)
    known = service.series_ids()
    print(f"recovered {len(known)} series from {args.log}", file=sys.stderr)
    print(f"listening on {server.address}", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        service.close()
    return 0


def _cmd_mint(args) -> int:
    try:
        scheme.SchemeParams.for_k(args.k)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    service = BankService.recover(args.log)
    rng = stats.spawn_rng(args.seed)
    series_id = args.series or f"series-{args.seed}"
    secret = scheme.SecretString.random(args.k, rng, series_id)
    service.register_series(secret)
    print(f"registered series {series_id} (k={args.k}) in {args.log}")
    print("sample honest reports (send as: VERIFY <series> <I> <R_hex>):")
    for _ in range(args.reports):
        rep = scheme.report_emulated(secret, rng)
        print(f"VERIFY {series_id} {rep.index} {format(rep.value, f'0{args.k // 4}x')}")
    service.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "bounds": _cmd_bounds,
        "serve": _cmd_serve,
        "mint": _cmd_mint,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
