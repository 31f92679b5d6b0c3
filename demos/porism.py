"""Infinitely many acute triangles sharing one orthocenter.

An equilateral cone (the zero set of a traceless rank-3 quadratic form)
carries an orthogonal tripod through every one of its generators.  Cutting
one nappe by a plane perpendicular to the axis gives an ellipse; the three
tripod legs pierce that plane in an acute triangle whose orthocenter is the
ellipse center — the same center for every choice of seed generator.  This
is a porism: one solution forces a whole one-parameter family.

The script builds a family of twelve such triangles and writes the figure to
porism.svg.
"""

import math

import numpy as np

from tetraquadric import (
    QuadForm3,
    ellipse_section,
    emit_svg_porism,
    evaluate,
    orthocenter2d,
    porism_family,
    tripod_through_generator,
)

q = QuadForm3(2, 1, -3)
rho = 1.0

e = ellipse_section(q, rho)
print("section center   :", e.center)
print("semi-axis lengths:", [float(np.linalg.norm(a)) for a in e.semi_axes])

# one orthogonal tripod, by hand, through an explicit generator
g = np.array([1 / math.sqrt(2), 0, 1 / math.sqrt(3)])
print("generator on cone:", abs(evaluate(q, g)) < 1e-12)
tp = tripod_through_generator(q, g)
for a in range(3):
    for b in range(a + 1, 3):
        assert abs(np.dot(tp.legs[a], tp.legs[b])) < 1e-9

fam = porism_family(q, rho, count=12)
print(f"\n{len(fam)} inscribed triangles:")
for k, tri in enumerate(fam):
    oc = orthocenter2d(tri.vertices)
    angles = np.degrees(tri.angles)
    print(
        f"  {k:2d}: angles {np.round(angles, 1)}  "
        f"orthocenter offset {np.linalg.norm(oc - e.center):.2e}"
    )

with open("porism.svg", "w") as fh:
    fh.write(emit_svg_porism(fam, e))
print("wrote porism.svg")
