"""Command-line front end: scenario runs, bound tables, and the bank service."""

from __future__ import annotations

import argparse
import errno
import os
import sys
import time

from . import harness, scheme, stats
from .bank import BankServer, BankService, CorruptLogError


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


def _refuse(exc: ValueError | OSError | str) -> int:
    """Report bad arguments or an unusable path on one stderr line, without a
    traceback: exit 2."""
    print(exc, file=sys.stderr)
    return 2


def _write(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when no path is given."""
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _cmd_run(args) -> int:
    # An unusable --out is refused before the run; the file waits for the CSV.
    if args.out is not None and os.path.isdir(args.out):
        return _refuse(IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out))
    if args.out is not None and not os.path.isdir(os.path.dirname(args.out) or "."):
        return _refuse(FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out))
    spec = harness.ScenarioSpec(
        scenario=args.scenario,
        k=args.k,
        trials=args.trials,
        seed=args.seed,
        strategy=args.strategy,
    )
    harness.load_scipy_stats()  # a one-off import, not part of the run's time
    start = time.perf_counter()
    try:
        result = harness.run_scenario(spec)
    except ValueError as exc:
        return _refuse(exc)
    elapsed = time.perf_counter() - start
    try:
        _write(result.to_csv(), args.out)
    except OSError as exc:
        return _refuse(exc)
    if args.out is not None:
        print(f"wrote {len(result.metrics)} metrics to {args.out}")
    for m in result.metrics:
        status = "pass" if m.passed else "FAIL"
        print(f"{status}  {m.metric}: estimate={float(m.estimate)!r} "
              f"expected={float(m.expected)!r} "
              f"({m.relation})", file=sys.stderr)
    # Every row of a scenario has its trial count, except the inequality suite's
    # fixed-size checks; the largest count stands for the run.
    trials = max(m.trials for m in result.metrics)
    print(f"{args.scenario}: {trials} trials in {elapsed:.3f} s, "
          f"{trials / elapsed:.1f} trials/s", file=sys.stderr)
    return 0 if result.all_passed() else 1


def _cmd_bounds(args) -> int:
    try:
        _write(harness.bounds_csv(args.k), args.out)
    except (ValueError, OSError) as exc:
        return _refuse(exc)
    return 0


def _recover(log: str) -> BankService | None:
    """Replay ``log`` into a service; on a corrupt or unusable log, print why
    and return None."""
    try:
        return BankService.recover(log)
    except (CorruptLogError, OSError) as exc:
        print(f"cannot recover {log}: {exc}", file=sys.stderr)
        return None


def _cmd_serve(args) -> int:
    start = time.perf_counter()
    service = _recover(args.log)
    if service is None:
        return 2
    elapsed = time.perf_counter() - start
    try:
        server = BankServer(service, args.socket)
    except (ValueError, OSError) as exc:
        service.close()
        return _refuse(f"cannot listen on {args.socket}: {exc}")
    known = service.series_ids()
    print(f"recovered {len(known)} series from {args.log} "
          f"({service.replayed} records replayed, {service.torn_bytes} torn bytes cut, "
          f"in {elapsed:.3f} s)", file=sys.stderr)
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
        if args.reports < 0:
            raise ValueError("--reports must not be negative")
    except ValueError as exc:
        return _refuse(exc)
    service = _recover(args.log)
    if service is None:
        return 2
    rng = stats.spawn_rng(args.seed)
    series_id = args.series or f"series-{args.seed}"
    secret = scheme.SecretString.random(args.k, rng, series_id)
    try:
        service.register_series(secret)
    except ValueError as exc:
        service.close()
        return _refuse(exc)
    print(f"registered series {series_id} (k={args.k}) in {args.log}")
    print("sample honest reports (send as: VERIFY <series> <I> <R_hex>):")
    for index, value in zip(*scheme.report_emulated(secret, rng, args.reports)):
        print(f"VERIFY {series_id} {index} {format(value, f'0{args.k // 4}x')}")
    service.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    """Exit 0 when every metric passes, 1 when one fails, and 2 for bad
    arguments, a path that cannot be used or a log that cannot be recovered."""
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
