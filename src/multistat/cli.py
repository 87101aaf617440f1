"""Command-line front end.

Commands::

    multistat analyze      network analysis up to decorated families
    multistat witness      adds the decreasing-t root certification
    multistat mixed-analyze  Cayley/mixed-simplex analysis of the system
    multistat subdivision  regular subdivisions of a point configuration

Exit codes: 0 success, 2 malformed input, 3 structural-hypothesis failure
or a rate or total that is not positive and finite, 4 witness search
exhausted (inconclusive).  ``MULTISTAT_SEED`` (default 0) seeds the lattice
jitter of ``witness``.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction

from . import decoration, messi, networks, report, witness
from .networks import ParseError
from .points import PointConfiguration, is_regular, regular_subdivision

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_EXHAUSTED = 4


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _parse_list(text):
    return [networks.parse_number(v) for v in text.split(",") if v.strip()]


def _load_network(args):
    """Network, partition, rates and totals from a file or ``--builtin``,
    with ``--k``/``--T``/``--partition`` overrides."""
    if args.builtin and args.network:
        raise CliError("give a network file or --builtin, not both", EXIT_PARSE)
    totals_named = None
    if args.builtin:
        try:
            net, partition = networks.builtin_network(args.builtin)
        except ValueError as e:
            raise CliError(str(e), EXIT_PARSE)
    elif args.network:
        try:
            net, partition, totals_named = networks.parse_network_file(args.network)
        except OSError as e:
            raise CliError(str(e), EXIT_PARSE)
    else:
        raise CliError("need a network file or --builtin", EXIT_PARSE)

    if args.partition:
        partition = networks.parse_partition(args.partition, net.species)
    if partition is None:
        raise CliError("no species partition given", EXIT_PARSE)

    if args.k:
        values = _parse_list(args.k)
        names = [r.rate_name for r in net.reactions]
        if len(values) != len(names):
            raise CliError(
                "--k needs %d values (%s)" % (len(names), ", ".join(names)),
                EXIT_PARSE,
            )
        kappa = networks.rate_map(zip(names, values))
    else:
        try:
            kappa = net.rates()
        except ValueError as e:
            raise CliError("%s; give --k" % e, EXIT_PARSE)

    if args.T:
        totals = _parse_list(args.T)
    elif totals_named:
        totals = list(totals_named.values())
    else:
        raise CliError("no totals given (--T or a totals: line)", EXIT_PARSE)
    return net, partition, kappa, totals


def _doc(command, given):
    return {"schema_version": report.SCHEMA_VERSION, "command": command, "input": given}


def _input_echo(net, partition, kappa, totals):
    return {
        "network": net.name,
        "species": list(net.species),
        "reactions": [
            "%s -> %s ; %s" % (
                " + ".join("%s %s" % (c, s) if c != 1 else s for s, c in r.source),
                " + ".join("%s %s" % (c, s) if c != 1 else s for s, c in r.target),
                r.rate_name,
            )
            for r in net.reactions
        ],
        "kappa": dict(kappa),  # every value is a Fraction from networks.parse_number
        "totals": list(totals),
        "partition": [list(b) for b in partition],
    }


def _families(families):
    return [
        {
            "simplices": [list(s) for s in f.simplices],
            "height": list(f.height) if f.height is not None else None,
            "cone_inequalities": [
                report.inequality(m) for m in f.cone.normals
            ],
        }
        for f in families
    ]


def _region_stage(region):
    return {
        "points": [list(p) for p in region.cfg.points],
        "C": [[Fraction(c) for c in row] for row in region.C],
        "column_symbols": list(region.column_symbols),
    }


def _analysis_stages(net, partition, kappa, totals):
    region = messi.assemble_region_system(net, partition, kappa, totals)
    decor = decoration.find_decorated(region.cfg, region.C)
    stages = {
        "conservation_laws": [list(l) for l in region.laws],
        "parametrization": {
            "chosen": list(region.chosen),
            "route": "substitution",
            "terms": {
                sp: [
                    {"exponents": list(e), "coefficient": Fraction(c)}
                    for e, c in sorted(poly.items())
                ]
                for sp, poly in sorted(region.parametrization.terms.items())
            },
        },
        "region_system": _region_stage(region),
        "decoration": {
            "decorated": [list(s) for s in decor.decorated],
            "facet_pairs": [[list(a), list(b)] for a, b in decor.facet_pairs],
            "indeterminate": [],  # always empty; the key leaves with the next schema bump
            "families": _families(decor.families),
        },
    }
    return region, decor, stages


def _witness_stage(rep):
    out = {
        "status": rep.status,
        "height": list(rep.height),
        "t_star": rep.t_star,
        "gamma": list(rep.gamma) if rep.gamma else None,
        "schedule": [{"t": t, "roots": n} for t, n in rep.log],
        "roots": [
            {
                "x": [float(v) for v in r.x],
                "residual": r.residual,
                "jacobian_sigma_min": r.sigma_min,
                "jacobian_sigma_ratio": r.sigma_ratio,
                "basin": r.basin,
            }
            for r in rep.roots
        ],
    }
    if rep.kappa_bar is not None:
        out["kappa_bar"] = {k: float(v) for k, v in sorted(rep.kappa_bar.items())}
        out["chosen_scale"] = {k: float(v) for k, v in sorted(rep.chosen_scale.items())}
        out["species_roots"] = rep.species_roots
    return out


def _finish(doc, args, summary_lines):
    if not args.quiet:
        for line in summary_lines:
            print(line)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(report.dumps(doc))
        except OSError as e:
            raise CliError(str(e), EXIT_PARSE)
        if not args.quiet:
            print("report written to %s" % args.out)


def cmd_analyze(args):
    net, partition, kappa, totals = _load_network(args)
    region, decor, stages = _analysis_stages(net, partition, kappa, totals)
    doc = dict(_doc("analyze", _input_echo(net, partition, kappa, totals)), **stages)
    lines = [
        "network %s: %d species, %d reactions" % (
            net.name, len(net.species), len(net.reactions)),
        "steady-state parametrization via the substitution route in %s" % (
            ", ".join(region.chosen)),
        "region system: %d monomials in %d variables" % (
            region.cfg.n, region.cfg.d),
        "positively decorated simplices: %s" % (
            ", ".join(str(tuple(s)) for s in decor.decorated) or "none"),
    ]
    best = decor.best
    if best is not None:
        lines.append(
            "largest jointly realizable family (p = %d): %s" % (
                len(best.simplices),
                ", ".join(str(tuple(s)) for s in best.simplices)))
    else:
        lines.append("no decorated simplex: no lower bound obtained")
    _finish(doc, args, lines)
    return EXIT_OK


def cmd_witness(args):
    if args.budget < 1:
        raise CliError("--budget must be a positive integer, not %d" % args.budget, EXIT_PARSE)
    if args.budget > witness.MAX_BUDGET:
        raise CliError("--budget must be at most %d (a smaller t is 0 in doubles), not %d"
                       % (witness.MAX_BUDGET, args.budget), EXIT_PARSE)
    seed = os.environ.get("MULTISTAT_SEED", "0")
    try:
        rng = random.Random(int(seed))
    except ValueError:
        raise CliError("MULTISTAT_SEED must be an integer, not %r" % seed, EXIT_PARSE)
    net, partition, kappa, totals = _load_network(args)
    region, decor, stages = _analysis_stages(net, partition, kappa, totals)
    doc = dict(_doc("witness", _input_echo(net, partition, kappa, totals)), **stages)
    lines = []
    if args.mixed:
        mixed_rep = witness.mixed_decoration(region.cfg, region.C)
        doc["mixed"] = _mixed_stage(mixed_rep)
        if mixed_rep.best is None:
            lines.append("no mixed-decorated simplex: nothing to certify")
            _finish(doc, args, lines)
            return EXIT_HYPOTHESIS
        rep = witness.mixed_witness_search(
            region.cfg, region.C, mixed_rep, budget=args.budget, rng=rng)
        doc["witness"] = _witness_stage(rep)
        lines.append("mixed family of %d simplices" % len(mixed_rep.best.simplices))
    else:
        best = decor.best
        if best is None:
            lines.append("no decorated simplex: nothing to certify")
            _finish(doc, args, lines)
            return EXIT_HYPOTHESIS
        rep = witness.witness_search(
            region.cfg, region.C, best, budget=args.budget, rng=rng, region=region)
        doc["witness"] = _witness_stage(rep)
        lines.append("family of %d simplices: %s" % (
            len(best.simplices), ", ".join(str(tuple(s)) for s in best.simplices)))
    if rep.status == "success":
        lines.append("success at t* = %g: %d distinct certified roots" % (
            rep.t_star, len(rep.roots)))
        for r in rep.roots:
            lines.append("  x = (%s)  residual %.3g  [%s]" % (
                ", ".join("%.6g" % v for v in r.x), r.residual, r.basin))
        if rep.kappa_bar is not None:
            changed = {
                k: v for k, v in rep.kappa_bar.items()
                if abs(v - float(kappa[k])) > 1e-9 * max(1.0, abs(float(kappa[k])))
            }
            lines.append("rescaled rate constants: %s" % (
                ", ".join("%s = %.6g" % kv for kv in sorted(changed.items()))
                or "unchanged"))
        _finish(doc, args, lines)
        return EXIT_OK
    lines.append(
        "schedule exhausted after %d steps: inconclusive "
        "(no claim about nonexistence)" % len(rep.log))
    _finish(doc, args, lines)
    return EXIT_EXHAUSTED


def _mixed_stage(mixed_rep):
    return {
        "blocks": [[list(p) for p in b] for b in mixed_rep.cayley.blocks],
        "mixed_simplices": [list(s) for s in mixed_rep.mixed],
        "decorated": [list(s) for s in mixed_rep.decorated],
        "families": _families(mixed_rep.families),
    }


def cmd_mixed_analyze(args):
    net, partition, kappa, totals = _load_network(args)
    region = messi.assemble_region_system(net, partition, kappa, totals)
    mixed_rep = witness.mixed_decoration(region.cfg, region.C)
    doc = dict(_doc("mixed-analyze", _input_echo(net, partition, kappa, totals)),
               region_system=_region_stage(region), mixed=_mixed_stage(mixed_rep))
    lines = [
        "Cayley configuration: %d points in %d blocks" % (
            mixed_rep.cayley.n, mixed_rep.cayley.d),
        "mixed simplices: %d, decorated: %d" % (
            len(mixed_rep.mixed), len(mixed_rep.decorated)),
    ]
    if mixed_rep.best is not None:
        lines.append("largest realizable mixed family: p = %d" %
                     len(mixed_rep.best.simplices))
    _finish(doc, args, lines)
    return EXIT_OK


def _read_rows(path, what, valid=lambda row: True):
    """One integer row per line of ``path`` (``#`` starts a comment); a
    line that is not one, or not ``valid``, is an error at ``path:line``."""
    rows = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                try:
                    row = tuple(int(v) for v in line.replace(",", " ").split())
                except ValueError:
                    row = None
                if row is None or not valid(row):
                    raise CliError("%s:%d: expected %s per line" % (path, lineno, what),
                                   EXIT_PARSE)
                rows.append(row)
    except OSError as e:
        raise CliError(str(e), EXIT_PARSE)
    return rows


def cmd_subdivision(args):
    points = _read_rows(args.points, "one integer vector")
    try:
        cfg = PointConfiguration(points)
    except ValueError as e:
        raise CliError(str(e), EXIT_PARSE)
    doc = _doc("subdivision", {"points": [list(p) for p in points]})
    lines = []
    if args.check:
        r = cfg.d + 1
        cells = [tuple(sorted(c)) for c in _read_rows(
            args.check, "one cell (%d affinely independent point indices below %d)" % (r, cfg.n),
            lambda c: len(set(c)) == len(c) == r and all(0 <= i < cfg.n for i in c)
            and cfg.minor(tuple(sorted(c))) != 0)]
        ok, height = is_regular(cfg, cells)
        doc["check"] = {
            "cells": [list(c) for c in cells],
            "regular": ok,
            "height": list(height) if height is not None else None,
        }
        if ok:
            lines.append("regular: witnessed by a height function")
            lines.append("height h = (%s)" % ", ".join(str(v) for v in height))
        else:
            lines.append("non-regular: the height cone is empty")
        _finish(doc, args, lines)
        return EXIT_OK
    if args.heights:
        heights = _parse_list(args.heights)
        if len(heights) != cfg.n:
            raise CliError("--heights needs %d values" % cfg.n, EXIT_PARSE)
    else:
        heights = [Fraction(0)] * cfg.n
    cells = regular_subdivision(cfg, heights)
    doc["subdivision"] = {
        "heights": [Fraction(v) for v in heights],
        "cells": [list(c) for c in cells.cells],
    }
    lines.append("%d cells: %s" % (
        len(cells.cells), ", ".join(str(tuple(c)) for c in cells.cells)))
    _finish(doc, args, lines)
    return EXIT_OK


def _add_network_options(p):
    p.add_argument("network", nargs="?", help="network description file")
    p.add_argument("--builtin", help="built-in network: hk, mm, mixed-phospho, phospho:n")
    p.add_argument("--k", help="rate constants, comma-separated in reaction order")
    p.add_argument("--T", help="conserved totals, comma-separated in block order")
    p.add_argument("--partition", help="species partition, e.g. '0: ; 1: X1 X2'")
    _add_common(p)


def _add_common(p):
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--quiet", action="store_true", help="suppress the summary")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="multistat",
        description="Lower bounds for positive steady states of "
                    "mass-action networks via decorated simplices.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", help="pipeline up to decorated families")
    _add_network_options(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("witness", help="analysis plus certified root search")
    _add_network_options(p)
    p.add_argument("--budget", type=int, default=60,
                   help="schedule depth, 1 to 1074: t runs over 2^-1 .. 2^-budget")
    p.add_argument("--mixed", action="store_true",
                   help="use the Cayley/mixed-simplex route")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("mixed-analyze",
                       help="Cayley configuration and mixed decoration")
    _add_network_options(p)
    p.set_defaults(func=cmd_mixed_analyze)

    p = sub.add_parser("subdivision", help="regular subdivisions of a point set")
    p.add_argument("points", help="file with one integer vector per line")
    p.add_argument("--heights", help="height values, comma-separated")
    p.add_argument("--check",
                   help="file of cells to test for regularity (indices per line)")
    _add_common(p)
    p.set_defaults(func=cmd_subdivision)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        error, code = e, e.code
    except ParseError as e:
        error, code = e, EXIT_PARSE
    except ValueError as e:  # MessiError is a ValueError
        error, code = e, EXIT_HYPOTHESIS
    print("error: %s" % error, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
