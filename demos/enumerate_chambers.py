"""Enumerate every stability chamber for 3, 4, and 5 balls.

A chamber is a maximal region of the admissible cone on which the signs
of all negative wall classes are constant.  Feasibility of each sign
pattern is decided by an exact dual simplex on an integer tableau: the
root's rows are added one at a time to the trivial optimum, and each wall
row is then added to its parent's optimal tableau and re-optimized.  Each
feasible full pattern reads a rational witness vector off its own optimal
tableau (in inclusive mode after a few more dual steps that make the
relaxed pair rows strict again), never from a fresh solve.  Enumeration
stops at n = 5: beyond it the linearized volume bound is not known to be
exact.
"""

from cpstrata.chambers import enumerate_chambers


def main():
    for n in (3, 4, 5):
        for boundary in ("strict", "inclusive"):
            records = enumerate_chambers(n, boundary)
            print(f"n={n} ({boundary}): {len(records)} chambers")
            if n <= 4:
                for rec in records:
                    witness = ",".join(rec.witness.to_json_list())
                    print(f"    {rec.signature.bit_string()}  {rec.label:<9} {witness}")
        print()


if __name__ == "__main__":
    main()
