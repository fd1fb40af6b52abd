#!/usr/bin/env python3
"""Generate the three exotic-action families and print their reports.

For each construction the target manifold, its dissolved normal form,
the member monomial counts, and the distinctness verdict are shown.
Counts growing without repetition across a family is the whole argument:
the actions are topologically equivalent (equal fingerprints) but no two
can be smoothly equivalent.
"""
import argparse
import json

from swcalc.equivariant import exotic_family, hat_s1_l


def show(report, as_json):
    if as_json:
        print(json.dumps(report, indent=2))
        return
    print(f"== {report['construction']}  (k={report['k']}, l={report['l']}, "
          f"H={report['space_form']})")
    target = report["target"]
    print(f"   target: {target['expression']}")
    print(f"   dissolves to: {target['dissolved']['display'] or 'unknown'}")
    print(f"   covering check: {report['covering_consistent']}")
    for member in report["members"]:
        marker = "" if member["count_basis"] == "exact" else " (lower bound)"
        print(f"   {member['monomials']:6d}{marker}  {member['label']}")
    print(f"   verdict: {report['verdict']}")
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--l", type=int, default=2)
    parser.add_argument("--size", type=int, default=4)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()

    hat = hat_s1_l([args.l], args.l, k=args.k)
    show(exotic_family("k3_knot", hat, args.size, n=1), args.json)
    show(exotic_family("cp2_knot", hat, args.size, n_prime=2, m_prime=1), args.json)
    show(exotic_family("s2xs2_hkw", hat, args.size, m=2, n=1), args.json)


if __name__ == "__main__":
    main()
