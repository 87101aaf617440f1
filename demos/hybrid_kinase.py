"""Walk the full certification pipeline on the hybrid kinase network.

Run with:  python3 demos/hybrid_kinase.py
"""

from fractions import Fraction

from multistat.messi import assemble_region_system
from multistat.networks import hybrid_kinase
from multistat.witness import DeformedSystem, certify_multistationarity, validate_root_set

KAPPA = dict(k1=1, k2=1, k3=2, k4=1, k5=1, k6=1)
TOTALS = [Fraction(7, 4), Fraction(1)]


def main():
    net, partition = hybrid_kinase()
    print("network:", net.name)
    def side(c):
        return " + ".join(("%d " % k if k > 1 else "") + s for s, k in c) or "0"

    for r in net.reactions:
        print("    %s -> %s   [%s]" % (side(r.source), side(r.target), r.rate_name))
    print("\nconservation laws (rows over", ", ".join(net.species), "):")
    for law in net.conservation_laws():
        print("   ", [str(x) for x in law])

    region = assemble_region_system(net, partition, KAPPA, TOTALS)
    print("\nregion system: %d equations in %d monomials" % (len(region.C), region.cfg.n))
    print("    exponents:", region.cfg.points)
    for row in region.C:
        print("    coefficients:", [str(x) for x in row])

    decor, report = certify_multistationarity(net, partition, KAPPA, TOTALS)
    print("\ndecorated simplices:", decor.decorated)
    print("largest realizable family:", decor.best.simplices)
    print("height inside the joint cone:", [str(h) for h in decor.best.height])

    print("\nwitness search:", report.status, "at t* = %g" % report.t_star)
    for root, vec in zip(report.roots, report.species_roots):
        print("    root x =", [float("%.6g" % v) for v in root.x],
              " residual %.2e" % root.residual)
        print("      full concentrations:",
              {sp: float("%.6g" % v) for sp, v in vec.items()})
    changed = {k: v for k, v in report.kappa_bar.items()
               if abs(v - float(KAPPA[k])) > 1e-9}
    print("rescaled rate constants (only the changed ones):", changed)

    # independent validation: an interval-arithmetic sweep of the positive
    # quadrant confirms the deformed system has no further roots
    system = DeformedSystem(region.cfg, region.C, report.height, report.t_star)
    missed, unresolved = validate_root_set(system, report.roots)
    print("\nexclusion sweep: %d missed roots, %d unresolved boxes"
          % (len(missed), len(unresolved)))


if __name__ == "__main__":
    main()
