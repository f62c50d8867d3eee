"""Collinearity strata of point configurations and their invariants.

Configurations of four points in the plane stratify by which triples
are collinear.  The stratum label and, on the fully collinear stratum,
the cross-ratio are invariant under every projective change of
coordinates; the script demonstrates both facts on explicit points.
"""

from fractions import Fraction

from cpstrata.confgeom import ProjectivePoint, apply_pgl, cross_ratio, stratum

pp = ProjectivePoint.parse

CONFIGS = [
    ("generic", ["1:0:0", "0:1:0", "0:0:1", "1:1:1"]),
    ("one aligned triple", ["1:0:0", "0:1:0", "0:0:1", "1:1:0"]),
    ("all four aligned", ["1:0:0", "0:1:0", "1:1:0", "1:2:0"]),
]

SHEAR = [
    [Fraction(1), Fraction(2), Fraction(0)],
    [Fraction(0), Fraction(1), Fraction(0)],
    [Fraction(1), Fraction(0), Fraction(3)],
]


def main():
    for name, texts in CONFIGS:
        pts = [pp(t) for t in texts]
        label = stratum(pts)
        line = f"{name:<20} stratum {label}"
        if label == "F_1234":
            line += f"  cross-ratio {cross_ratio(pts)}"
        print(line)

        moved = [apply_pgl(SHEAR, p) for p in pts]
        moved_label = stratum(moved)
        line = f"{'':<20} after PGL move: {moved_label}"
        if moved_label == "F_1234":
            line += f"  cross-ratio {cross_ratio(moved)}"
        print(line)


if __name__ == "__main__":
    main()
