"""Reference complexes used by the test suite and the bundled corpus."""

from __future__ import annotations

from .complexes import (SimplicialComplex, StratifiedComplex, cone, simplex,
                        suspend)


def point() -> StratifiedComplex:
    return StratifiedComplex(SimplicialComplex([("p",)]), 0)


def circle(m: int = 3) -> StratifiedComplex:
    """Triangulated circle on m >= 3 vertices."""
    if m < 3:
        raise ValueError("need at least 3 vertices")
    vs = ["c%d" % i for i in range(m)]
    edges = [simplex((vs[i], vs[(i + 1) % m])) for i in range(m)]
    return StratifiedComplex(SimplicialComplex(edges), 1)


def two_circles() -> StratifiedComplex:
    a = [simplex(("a%d" % i, "a%d" % ((i + 1) % 3))) for i in range(3)]
    b = [simplex(("b%d" % i, "b%d" % ((i + 1) % 3))) for i in range(3)]
    return StratifiedComplex(SimplicialComplex(a + b), 1)


def sphere() -> StratifiedComplex:
    """Boundary of the octahedron: the smallest nice 2-sphere."""
    tris = []
    for x in ("x+", "x-"):
        for y in ("y+", "y-"):
            for z in ("z+", "z-"):
                tris.append(simplex((x, y, z)))
    return StratifiedComplex(SimplicialComplex(tris), 2)


def torus() -> StratifiedComplex:
    """The 7-vertex triangulation of the 2-torus."""
    tris = []
    for i in range(7):
        tris.append(simplex(("t%d" % i, "t%d" % ((i + 1) % 7), "t%d" % ((i + 3) % 7))))
        tris.append(simplex(("t%d" % i, "t%d" % ((i + 2) % 7), "t%d" % ((i + 3) % 7))))
    return StratifiedComplex(SimplicialComplex(tris), 2)


def cylinder() -> StratifiedComplex:
    """R x S^1 as the prism over a circle."""
    return suspend(circle())


def cone_circle() -> StratifiedComplex:
    """Open cone over a circle: an open disk with its center marked."""
    return cone(circle())


def cone_two_circles() -> StratifiedComplex:
    return cone(two_circles())


def cone_torus() -> StratifiedComplex:
    """Open cone over the 2-torus: a genuinely singular 3-dimensional space."""
    return cone(torus())


def pinched_cylinder() -> StratifiedComplex:
    """Two cones over circles glued at a shared apex.

    Models the quotient of the cylinder R x S^1 with the middle circle
    collapsed to a point; the two outer circles are the ends.
    """
    apex = "p0"
    tris = []
    for ring in ("a", "b"):
        for i in range(3):
            tris.append(simplex((apex, "%s%d" % (ring, i), "%s%d" % (ring, (i + 1) % 3))))
    amb = SimplicialComplex(tris)
    ends = SimplicialComplex(
        [simplex(("%s%d" % (r, i), "%s%d" % (r, (i + 1) % 3)))
         for r in ("a", "b") for i in range(3)])
    filt = {2: SimplicialComplex([(apex,)], closed=True)}
    return StratifiedComplex(amb, 2, ends=ends, filtration=filt)


def susp_pinched_cylinder() -> StratifiedComplex:
    return suspend(pinched_cylinder())


def susp_cone_circle() -> StratifiedComplex:
    return suspend(cone_circle())


def susp2_cone_circle() -> StratifiedComplex:
    return suspend(suspend(cone_circle()))


BUILDERS = {
    "point": point,
    "circle": circle,
    "two-circles": two_circles,
    "sphere": sphere,
    "torus": torus,
    "cylinder": cylinder,
    "cone-circle": cone_circle,
    "cone-two-circles": cone_two_circles,
    "cone-torus": cone_torus,
    "pinched-cylinder": pinched_cylinder,
    "susp-pinched-cylinder": susp_pinched_cylinder,
    "susp-cone-circle": susp_cone_circle,
    "susp2-cone-circle": susp2_cone_circle,
}


def build(name: str) -> StratifiedComplex:
    try:
        return BUILDERS[name]()
    except KeyError:
        raise ValueError("unknown example %r (known: %s)"
                         % (name, ", ".join(sorted(BUILDERS))))
