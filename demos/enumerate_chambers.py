"""Enumerate every stability chamber for 3, 4, and 5 balls.

A chamber is a maximal region of the admissible cone on which the signs
of all negative wall classes are constant.  Feasibility of each sign
pattern is decided by an exact simplex on an integer tableau: the root
is solved cold, and each wall row is then added to its parent's optimal
tableau and re-optimized by the dual simplex.  Each feasible full
pattern gets a rational witness vector from cold solves of its own
system.  Enumeration
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
