"""The test charts of the chunk loop's failure path, as immersion-file
texts, shared by the tests and tools/differential.py (TEXTS, by the name
of their --spec file).

so3 with a factor sqrt(u1 - 1) / sqrt(u1 - 1) (CUT): an input error
(exit 2) where u1 < 1; and so3 with x1 bent by 0.2 (a + |a|), a = u1 - 3
(BENT): off the sphere, so not immersed in it (exit 3), where u1 > 3.  At
seeds 0 and 3 point 0 passes its probe and the first failure falls inside
the first chunk of 20 points (index 11 and index 3).  so3 with (x1, x2)
turned by the angle 0.2 (a + |a|) (TURNED) stays on the sphere, and is not
ideal where u1 > 3 (index 3 again).  CUT, BENT and TURNED are edits of
the so3 text form, (old, new) pairs for str.replace.
"""

from wintgen import gallery

SO3 = gallery.by_name("so3").expression_text
CUT = ("x1 = (", "x1 = sqrt(u1 - 1) / sqrt(u1 - 1) * (")
BENT = ("x1 = (", "x1 = 0.2 * (u1 - 3 + sqrt((u1 - 3)^2)) + (")
_X1, _X2 = (line.split(" = ", 1)[1] for line in SO3.splitlines()
            if line.startswith(("x1 =", "x2 =")))
_ANGLE = "0.2 * (u1 - 3 + sqrt((u1 - 3)^2))"
TURNED = (f"x1 = {_X1}\nx2 = {_X2}",
          f"x1 = cos({_ANGLE}) * {_X1} - sin({_ANGLE}) * {_X2}\n"
          f"x2 = sin({_ANGLE}) * {_X1} + cos({_ANGLE}) * {_X2}")

# CUT with the failing subexpression sqrt(u1 - 1) in x4 as well: one
# shared node of the parsed chart, which fails where CUT does
CUT_TWICE = SO3.replace(*CUT).replace(
    "x4 = (", "x4 = sqrt(u1 - 1) / sqrt(u1 - 1) * (")

# the turned chart on u1 in [0.05, 3.3]: at seed 28 the first point that is
# not ideal is the last of 20, sample point 19
TURNED_LATE = SO3.replace(*TURNED).replace("u1 in [0.05,6.2]",
                                           "u1 in [0.05,3.3]")

# so3 on u1 in [2.0, 3.14], with 1e-300 exp(10000 (u1 - 3)) added to x1:
# near u1 = 3.07 x1 leaves the sphere by about 1e-6, which the probe's
# order-3 gates refuse, while the order-5 jet of exp overflows, an input
# error; at seed 100 the first such point is sample point 16
BLOWUP = SO3.replace("u1 in [0.05,6.2]", "u1 in [2.0,3.14]").replace(
    "x1 = (", "x1 = 1e-300 * exp(10000 * (u1 - 3.0)) + (")

# x4 = 1e-70 sin(1e70 u1) has finite jets up to order 4, but its order-5
# coefficient overflows, and its second partial of 1e70 makes no point ideal
FAST_WAVE = """\
name: fast-wave
ambient: euclidean
domain: u1 in [0.2,0.9]; u2 in [0.2,0.9]; u3 in [0.2,0.9]
x1 = u1
x2 = u2
x3 = u3
x4 = 1e-70 * sin(1e70 * u1)
x5 = u1 * u2
"""

# a graph with constant components, an exact one (x5) and one built by the
# expression (u2^0): each must take the chunk's layout
CONST_GRAPH = """\
name: const-graph
ambient: euclidean
domain: u1 in [0.2,0.9]; u2 in [0.2,0.9]; u3 in [0.2,0.9]
x1 = u1
x2 = u2^0 * u2
x3 = u3
x4 = u1^2 + 2*u2^2 + 3*u3^2 + u1*u2*u3
x5 = 0
"""

# a hyperbolic graph: a Lorentz position in the normal frame
HYPERBOLIC_GRAPH = """\
# graph over the spatial slots: <x,x> = -1 holds identically
ambient: hyperbolic
name: hyperbolic-graph
domain: u1 in [-0.7,0.7]; u2 in [-0.7,0.7]; u3 in [-0.7,0.7]
x1 = sqrt(1 + u1^2 + u2^2 + u3^2 + (0.3*sin(u1+u2))^2 + (0.2*u3*u1)^2)
x2 = u1
x3 = u2
x4 = u3
x5 = 0.3*sin(u1+u2)
x6 = 0.2*u3*u1
"""

TEXTS = {
    "so3": SO3,
    "veronese-hopf": gallery.by_name("veronese-hopf").expression_text,
    "hyperbolic-graph": HYPERBOLIC_GRAPH,
    "const-graph": CONST_GRAPH,
    "cut": SO3.replace(*CUT),
    "cut-twice": CUT_TWICE,
    "bent": SO3.replace(*BENT),
    "turned": SO3.replace(*TURNED),
    "turned-late": TURNED_LATE,
    "blowup": BLOWUP,
    "fast-wave": FAST_WAVE,
}
