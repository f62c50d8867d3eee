"""Classify a handful of capacity vectors into their stability chambers.

Each vector is sorted, tested for admissibility (positive area on every
exceptional class, volume within the unit), and, when admissible, mapped
to the sign pattern it induces on the negative wall classes.
"""

from cpstrata.chambers import AdmissibilityError, chamber_signature, label_from_signature
from cpstrata.lattice import Capacities

SAMPLES = [
    "1/3,1/3,1/3,1/3",
    "1/2,1/4,1/4,1/4",
    "2/5,2/5,3/10,1/5",
    "2/5,2/5,2/5,1/10",
    "3/10,3/10,3/10,3/10",
    "6/25,6/25,6/25,6/25",
    "1/2,1/2,1/2",
    "11/10",
]


def main():
    for text in SAMPLES:
        caps = Capacities.parse(text)
        try:
            sig = chamber_signature(caps)
        except AdmissibilityError as exc:
            print(f"{text:>24}  inadmissible (violates {exc.violator})")
            continue
        label = label_from_signature(caps.n, sig) or "-"
        print(f"{text:>24}  {label:<9} bits={sig.bit_string() or '-'}")


if __name__ == "__main__":
    main()
