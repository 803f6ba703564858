"""Frozen oracle values.

Every number here was produced by an independent route (50-digit arithmetic:
Jacobi-sn elliptic evaluation cross-checked against the Laurent series,
adaptive ODE integration for the orbit values, adaptive quadrature for the
phase) before the package implementation existed.  Tests compare the float64
pipeline against these literals; regenerate only with the tools script, never
from the package itself.
"""

# Weierstrass pair at the reference invariants (g2, g3) = (3.52, 1.0384)
WP_INVARIANTS = (3.52, 1.0384)
WP_03 = 11.127259151671363449
WP_PRIME_03 = -73.964315081719970187
WP_10 = 1.2256622523879511738
CUBIC_ROOTS = (
    1.0605552510931447394,
    -0.33944544918716610428,
    -0.72110980190597863512,
)

# reference parameter set: q=-1, c1=-2, c2=0.4, c3=0.13, z0=1, Q0=1
REFERENCE_FIELDS = dict(q=-1.0, c1=-2.0, c2=0.4, c3=0.13, z0=1.0, Q0=1.0)

# profile quartic at those parameters: derivatives of R1 at z0=1 and roots
R1_AT_1 = (6.92, 13.32, -19.2, -192.0, -384.0)
SQRT_R1_AT_1 = 2.630589287593181088
R1_ROOTS = (
    0.0,
    0.069871614897552873929,
    0.28226840831463432515,
    1.6478599767878128009,
)

# closed-form invariants of the two curves at the reference parameters
Z_CURVE_INVARIANTS = (3.52, 1.0384)
Q_CURVE_G2 = 11.0 / 15.0
Q_CURVE_G3_AT_T0 = -2431.0 / 21600.0

# orbit values (z, dz/dt) keyed by (sigma_z, t)
Z_ORBIT = {
    (1, 0.25): (1.6333977805139952093, 0.89356086920621743096),
    (1, 0.5): (1.1806764397870865256, -2.9677334832737102631),
    (1, 1.0): (0.40003905897667655293, -0.55727939002333029013),
    (-1, 0.25): (0.54901669805929399499, -1.1107210073991359903),
    (-1, 0.5): (0.36821730467491271447, -0.43967976798091018846),
    (-1, 1.0): (0.28263141768566481359, 0.021836176695233639395),
    (-1, 5115.1): (0.8043211684165748676, -2.0401657776633692104),
}

# real period 2w of the z-curve lattice, and the integral of z over it
Z_REAL_PERIOD = 2.4975665360588436139
Z_PERIOD_INTEGRAL = 1.6616216909767887344

# phase integral keyed by (sigma_z, t)
PHI = {
    (1, 0.25): 0.1744174116512768745,
    (1, 0.5): 0.41994918904701517648,
    (1, 1.0): 0.10391202305043712823,
    (-1, 0.5): -0.40645345853606202018,
    (-1, 1.0): -1.0993575009792671335,
    (1, 10.0): -6.687307490268267312,
    (-1, 10.0): -6.6878059383189580279,
    (-1, 1000.0): -669.81703752758719456,
    (-1, 10000.0): -6694.428891820982944,
}

# profile values Q(x=1, t) keyed by branch name
Q_AT_1_1 = {
    "pp": 1.5047536243848239396,
    "pm": 0.33120519255889502574,
    "mp": 2.2596493022336191188,
    "mm": 0.03099158539754236732,
}
Q_AT_1_0 = {
    "pp": -24.254695508167786874,
    "pm": -0.35667163718550695706,
    "mp": 2.4542415950831228886,
    "mm": 0.74935350173164401799,
}

# q-curve coefficients at t=0: (alpha, beta, gamma, delta, epsilon) with
# delta = +-|delta| depending on sigma_z
Q_CURVE_T0 = (0.5, 0.0, 1.0 / 6.0, 0.657647321898295272, 1.3)
# and the (gamma, delta, epsilon) tail at t=1 keyed by sigma_z
Q_CURVE_T1 = {
    1: (-0.13331380384499505687, -0.22027326639493760006, 1.3600312448929357538),
    -1: (-0.19201762449050092654, 0.010268485403347800909, 1.2454420579768165394),
}

# inconsistency functional P(x=1, t) keyed by branch name
P_AT_1_1 = {
    "pp": -0.26527724702050477736,
    "pm": -0.29708874828058070939,
    "mp": 0.29584029453940290744,
    "mm": 0.113308266474971098,
}
P_AT_1_05 = {
    "pp": -49.280765053407995388,
    "pm": -0.81546547091858059103,
    "mp": -0.13401242111766121956,
    "mm": -0.14122496395557932486,
}
P_AT_1_0 = {
    "pp": -357.5542698062891439,
    "pm": -0.60507121298919034033,
    "mp": -21.184566229981489621,
    "mm": -1.0640047244813982784,
}

# P(x=1, t) next to the lattice points 0, 2w and 4w of the orbit, keyed by
# (branch name, t); the last two times are fl(2w) and 2 fl(2w), and every
# time is taken as the exact binary value of its float key
P_NEAR_LATTICE = {
    ("pp", 1e-12): -357.55426980107385896,
    ("pp", 1e-09): -357.55426459100401349,
    ("pp", 1e-07): -357.55374827859526052,
    ("pp", 2.497566536058844): -357.55426980628747787,
    ("pp", 4.995133072117688): -357.55426980628581157,
    ("pm", 1e-12): -0.6050712129907980659,
    ("pm", 1e-09): -0.60507121459691584958,
    ("pm", 1e-07): -0.60507137376174255178,
    ("pm", 2.497566536058844): -0.60507121298919085406,
    ("pm", 4.995133072117688): -0.60507121298919136774,
    ("mp", 1e-12): -21.184566229726962987,
    ("mp", 1e-09): -21.184565975454860102,
    ("mp", 1e-07): -21.184540777335991891,
    ("mp", 2.497566536058844): -21.184566229981408296,
    ("mp", 4.995133072117688): -21.184566229981326973,
    ("mm", 1e-12): -1.0640047244872950528,
    ("mm", 1e-09): -1.0640047303781726989,
    ("mm", 1e-07): -1.0640053141591654609,
    ("mm", 2.497566536058844): -1.0640047244814001624,
    ("mm", 4.995133072117688): -1.0640047244814020464,
}

# complex field A(x=1, t=1) keyed by branch name, plus one off-grid point
A_AT_1_1 = {
    "pp": 1.4310322561580363234 + 0.7851555329431110082j,
    "pm": 0.2638139423171908844 + 0.66342907864647685082j,
    "mp": 1.4999001629715040022 - 1.7717070547606346057j,
    "mm": 0.4877137462837404946 + 0.21383918662629910914j,
}
A_AT_1_05_MM = 0.50403165534292693785 + 0.44368571008705647685j

# solution-pole location x_p(t) of the profile (branch sign of sigma_z;
# sigma_q = +1), from a 50-digit denominator root hunt
POLE_X = {
    1: {0.0: 0.9417, 0.2: 0.8965, 0.4: 1.1135, 0.6: 1.6926,
        0.8: 2.1631, 1.0: 2.1386, 1.2: 1.9886},
    -1: {0.0: 1.5662, 0.2: 2.1291, 0.4: 2.1582, 0.6: 2.0183,
         0.8: 1.8475, 1.0: 1.6750, 1.2: 1.5067},
}
