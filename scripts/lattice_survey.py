#!/usr/bin/env python3
"""Survey the characteristic-square bound across small definite forms.

Diagonal forms attain the certificate value -rank at the all-ones
vector.  The even rank-8 form has characteristic maximum 0 instead,
violating the bound c.c <= -b2 that every smooth realization must
satisfy; the bound_limited flag marks exactly this failure.
"""
import argparse

from swcalc.lattice import (QuadraticForm, diagonal_form, diagonalize, e8_form,
                            max_characteristic_square, spinc_from_basis)


def survey(label, form: QuadraticForm, bound: int, depth: int):
    best = max_characteristic_square(form, bound)
    cert = spinc_from_basis(form, diagonalize(form, depth))
    cert_text = "none" if cert is None else f"{cert} (square {-form.rank})"
    flag = " [certificate not met]" if best.bound_limited else ""
    print(f"{label:12s} rank {form.rank}: max c.c = {best.value:4d} at "
          f"{best.achiever}{flag}; certificate vector: {cert_text}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-rank", type=int, default=6)
    parser.add_argument("--bound", type=int, default=2)
    parser.add_argument("--depth", type=int, default=2)
    args = parser.parse_args()

    for rank in range(1, args.max_rank + 1):
        survey(f"diag(-1)^{rank}", diagonal_form(rank), args.bound, args.depth)
    survey("mixed", QuadraticForm(((-2, 1), (1, -1))), args.bound + 1, args.depth + 1)
    survey("E8(-)", e8_form(), args.bound, args.depth)


if __name__ == "__main__":
    main()
