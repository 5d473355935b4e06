"""Command-line front end.

Permutations on the command line are quoted, space-separated label lists;
files hold one permutation per line.  ``verify`` reads every code file form
(JSON, headed text, bare words) with ``constructions.codebook_from_text``
and computes the distance, never trusting a stored one.  Exit codes:
0 success, 1 validation error, 2 verification failure.  Every command runs
under the library's size guards, and a guard's error exits 1 with the
library's message.  Spheres, balls and bounds are closed forms and need no
guard, and ``selftest`` runs fixed sizes within the guards.
Integers print in full, however many digits they have.
"""

from __future__ import annotations

import argparse
import sys

# Every command loads these (and perm, which enumeration imports), and the
# benchmark's tracing tests read them here.  Each command imports the rest of
# the library it calls when it runs, so a process loads only the modules its
# subcommand needs.
from .enumeration import (
    ball_size_bounds,
    ball_size_exact,
    sphere_profile,
    sphere_profile_payload,
)


def _emit_json(payload) -> None:
    import json
    print(json.dumps(payload, sort_keys=True))


def cmd_dist(args) -> int:
    from .perm import block_distance, distance_by_definition, parse_permutation
    p1 = parse_permutation(args.perm1)
    p2 = parse_permutation(args.perm2)
    dist = block_distance(p1, p2)
    if args.check_definition:
        slow = distance_by_definition(p1, p2)
        if slow != dist:
            print(f"mismatch: pair-count {dist} vs cut-search {slow}", file=sys.stderr)
            return 2
    if args.format == "json":
        _emit_json({"distance": dist, "n": len(p1)})
    else:
        print(dist)
    return 0


def cmd_charset(args) -> int:
    from .perm import char_set_payload, parse_permutation
    _emit_json(char_set_payload(parse_permutation(args.perm)))
    return 0


def cmd_spheres(args) -> int:
    profile = sphere_profile(args.n)
    if args.format == "json":
        _emit_json(sphere_profile_payload(profile))
    else:
        print("k,count")
        for k, count in enumerate(profile.counts):
            print(f"{k},{count}")
    return 0


def cmd_ball(args) -> int:
    if args.bounds:
        lower, upper = ball_size_bounds(args.n, args.t)
        if args.format == "json":
            _emit_json({"n": args.n, "t": args.t, "lower": lower, "upper": upper})
        else:
            print(f"{lower} {upper}")
        return 0
    ball = ball_size_exact(args.n, args.t)
    if args.format == "json":
        _emit_json({"n": ball.n, "t": ball.t, "size": ball.size})
    else:
        print(ball.size)
    return 0


def _reject_unused(args, names, mode: str) -> None:
    """Options the chosen mode would ignore exit 1 rather than succeed silently."""
    # 0 == False, so `not in (None, False)` misses --d 0
    given = [f"--{name.replace('_', '-')}" for name in names
             if getattr(args, name) is not None and getattr(args, name) is not False]
    if given:
        raise ValueError(f"{', '.join(given)} not used by {mode}")


def _print_code(code, args) -> int:
    """Print a code as text, or as JSON with its minimum distance."""
    from .constructions import codebook_payload, codebook_to_text
    if args.format == "json":
        _emit_json(codebook_payload(code))
    else:
        sys.stdout.write(codebook_to_text(code))
    return 0


def _construct(args):
    from .constructions import (cyclic_class_code, even_n_code, ham_decomp_code,
                                largest_syndrome_class, syndrome_class, zn1_code)
    method, n = args.method, args.n
    if method == "syndrome":
        if args.d is None:
            raise ValueError("--method syndrome needs --d")
        if args.f is not None:
            f = tuple(int(tok) for tok in args.f.split(","))
            return syndrome_class(n, args.d, f)
        return largest_syndrome_class(n, args.d)
    _reject_unused(args, ("d", "f"), f"--method {method}")
    if method == "hamdecomp":
        return ham_decomp_code(n)
    if method == "cyclic":
        return cyclic_class_code(n)
    if method == "even":
        return even_n_code(n)
    return zn1_code(n)


def cmd_construct(args) -> int:
    code = _construct(args)
    if code is None:
        print(f"no code found: the search space for n={args.n} is exhausted", file=sys.stderr)
        return 2
    return _print_code(code, args)


def cmd_verify(args) -> int:
    from .constructions import codebook_from_text, verify_min_distance
    from .perm import _int_in
    _int_in("design distance", args.d)  # every code would pass; a headed file carries its own d
    with open(args.path, "r", encoding="utf-8") as fh:
        code = codebook_from_text(fh.read(), args.d)
    dist = verify_min_distance(code)
    print(f"{len(code.words)} words, minimum distance {dist}, required {args.d}")
    return 0 if dist >= args.d else 2


def _print_report_text(rep) -> None:
    tag = "" if rep.exact_mode else " (estimate)"
    unavailable = "n/a (product hypothesis fails)"
    print(f"n={rep.n} d={rep.d} (bounds at odd distance {rep.bound_distance})")
    print(f"  gv_lower        {unavailable if rep.gv_lower is None else rep.gv_lower}{tag}")
    print(f"  sp_upper        {unavailable if rep.sp_upper is None else rep.sp_upper}{tag}")
    print(f"  new_upper       {rep.new_upper} (exact {rep.new_upper_exact})")
    print(f"  corollary_applies {rep.corollary_applies}")


def cmd_bounds(args) -> int:
    from . import bounds as bounds_mod
    if args.table1:
        _reject_unused(args, ("exact", "n", "d"), "--table1")
        reports = bounds_mod.table1()
        if args.format == "csv":
            print("n,d,sp_upper,new_upper")
            for rep in reports:
                print(f"{rep.n},{rep.d},{rep.sp_upper},{rep.new_upper}")
        elif args.format == "json":
            _emit_json([bounds_mod.bound_report_payload(rep) for rep in reports])
        else:
            print(f"{'n':>3} {'d':>3} {'sphere-packing':>16} {'new-upper':>12}")
            for rep in reports:
                print(f"{rep.n:>3} {rep.d:>3} {rep.sp_upper:>16} {rep.new_upper:>12}")
        problems = bounds_mod.table1_deviations(reports)
        for problem in problems:
            print(f"deviation: {problem}", file=sys.stderr)
        return 2 if problems else 0
    if args.format == "csv":
        raise ValueError("--format csv needs --table1; use text or json for one report")
    if args.n is None or args.d is None:
        raise ValueError("bounds needs --n and --d (or --table1)")
    rep = bounds_mod.bound_report(args.n, args.d, exact=args.exact)
    if args.format == "json":
        _emit_json(bounds_mod.bound_report_payload(rep))
    else:
        _print_report_text(rep)
    return 0


def cmd_graph(args) -> int:
    from .graph import (build_graph, exact_independent_set, greedy_independent_set,
                        neighborhood_stats, neighborhood_stats_payload)
    if args.stats:
        _emit_json(neighborhood_stats_payload(neighborhood_stats(args.n, args.d)))
        return 0
    # the full graph is regular, so a degree-first greedy sweep would visit the same order
    solve = exact_independent_set if args.exact else greedy_independent_set
    return _print_code(solve(build_graph(args.n, args.d)), args)


def cmd_selftest(args) -> int:
    from . import selftest as selftest_mod
    results = selftest_mod.run_all()
    for result in results:
        print(selftest_mod.format_result(result))
    failed = sum(1 for r in results if r.status == "fail")
    # every criterion runs in full; the summary keeps its three-count form for scripts
    print(f"{len(results) - failed} passed, {failed} failed, 0 skipped")
    return 2 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockperm",
        description="Permutation codes under the block permutation metric.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("dist", help="block distance between two permutations")
    p.add_argument("perm1")
    p.add_argument("perm2")
    p.add_argument("--check-definition", action="store_true",
                   help="cross-check with the cut-and-reorder search")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("charset", help="characteristic set of a permutation as JSON")
    p.add_argument("perm")
    p.set_defaults(func=cmd_charset)

    p = sub.add_parser("spheres", help="distance histogram around the identity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_spheres)

    p = sub.add_parser("ball", help="ball size, exact or product bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--bounds", action="store_true", help="print the product sandwich instead")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("construct", help="build a code and print it")
    p.add_argument("--method", required=True,
                   choices=("syndrome", "cyclic", "even", "zn1", "hamdecomp"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--f", default=None, help="comma-separated syndrome, e.g. 1,1")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check a code file against a required distance")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="bound report for one (n, d), or the table")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--exact", action="store_true", help="use exact ball sizes")
    p.add_argument("--table1", action="store_true", help="print the ten-row comparison table")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("graph", help="full distance graph: stats or independent sets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--stats", action="store_true")
    mode.add_argument("--greedy", action="store_true")
    mode.add_argument("--exact", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("selftest", help="run the acceptance checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    # Exact sizes such as 2000! have more digits than Python's default limit
    # on int-to-text conversion (4300, from Python 3.10.7 on); lift it here.
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(digits)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
