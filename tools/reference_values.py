"""Regenerate the high-precision reference values frozen into the tests.

Every numeric oracle constant in tests/ and bench/reference.py comes from
this script: mpmath at 40 significant digits, adaptive quadrature, and a
bisection root with tolerance 1e-30, so the printed values are exact to well
past double precision.  Needs mpmath, which the package itself does not
depend on:

    pip install mpmath && python3 tools/reference_values.py
"""

import mpmath as mp

mp.mp.dps = 40

pi = mp.pi


def omega(n):
    return 2 * pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)


def ann_norm(lam, n, r1, r2, p):
    w = omega(n)
    f = lambda r: (lam / (p(r) * w * r ** (n - 1))) ** (1 / (p(r) - 1))
    return mp.quad(f, [r1, r2])


def ann_solve(n, r1, r2, p, lo=mp.mpf("1e-6"), hi=mp.mpf("1e6")):
    lam = mp.findroot(lambda x: ann_norm(x, n, r1, r2, p) - 1, (lo, hi), solver="bisect", tol=mp.mpf("1e-30"))
    w = omega(n)
    rho = lambda r: (lam / (p(r) * w * r ** (n - 1))) ** (1 / (p(r) - 1))
    M = w * mp.quad(lambda r: rho(r) ** p(r) * r ** (n - 1), [r1, r2])
    return lam, M


def ann_logbound(n, r1, r2, p):
    w = omega(n)
    lg = mp.log(r2 / r1)
    return w * mp.quad(lambda r: r ** (n - 1 - p(r)) / lg ** p(r), [r1, r2])


def cyl_norm(lam, L, p):
    return mp.quad(lambda t: (lam / p(t)) ** (1 / (p(t) - 1)), [0, L])


def cyl_solve(A, L, p):
    lam = mp.findroot(lambda x: cyl_norm(x, L, p) - 1, (mp.mpf("1e-6"), mp.mpf("1e6")), solver="bisect", tol=mp.mpf("1e-30"))
    phi = lambda t: (lam / p(t)) ** (1 / (p(t) - 1))
    M = A * mp.quad(lambda t: phi(t) ** p(t), [0, L])
    return lam, M


def cyl_bound(A, L, p):
    return A * mp.quad(lambda t: L ** (-p(t)), [0, L])


p_ann = lambda r: 1 + r
p_cyl = lambda t: 2 + t

print("== annulus reference (n=2, r1=1, r2=2, p=1+r) ==")
for lam in ("1.0", "2.0", "3.0", "3.5", "3.35"):
    print(f"g({lam}) = {mp.nstr(ann_norm(mp.mpf(lam), 2, 1, 2, p_ann), 20)}")
lamA, MA = ann_solve(2, 1, 2, p_ann)
UB = ann_logbound(2, 1, 2, p_ann)
print("lambda* =", mp.nstr(lamA, 20))
print("M       =", mp.nstr(MA, 20))
print("UB      =", mp.nstr(UB, 20))
print("ratio   =", mp.nstr(UB / MA, 20))
print("margin% =", mp.nstr(100 * (UB / MA - 1), 10))

print("== annulus p=1+r on [1,4], n=2 (larger-margin geometry) ==")
lam4, M4 = ann_solve(2, 1, 4, p_ann)
UB4 = ann_logbound(2, 1, 4, p_ann)
print("lambda* =", mp.nstr(lam4, 20), " M =", mp.nstr(M4, 20), " UB =", mp.nstr(UB4, 20), " margin% =", mp.nstr(100 * (UB4 / M4 - 1), 10))

print("== cylinder reference (A=1, L=1, p=2+t) ==")
for lam in ("1.0", "1.3", "1.5", "1.532"):
    print(f"h({lam}) = {mp.nstr(cyl_norm(mp.mpf(lam), 1, p_cyl), 20)}")
lamC, MC = cyl_solve(1, 1, p_cyl)
print("lambda* =", mp.nstr(lamC, 20))
print("M       =", mp.nstr(MC, 20))
print("gap     =", mp.nstr(cyl_bound(1, 1, p_cyl) - MC, 20))

print("== shallow cylinder (A=1, L=1, p=2+t/10) ==")
p_sh = lambda t: 2 + t / 10
lamS, MS = cyl_solve(1, 1, p_sh)
print("lambda* =", mp.nstr(lamS, 20), " M =", mp.nstr(MS, 20), " gap =", mp.nstr(cyl_bound(1, 1, p_sh) - MS, 20))

print("== constant-exponent closed forms ==")
print("2*pi/log2      =", mp.nstr(2 * pi / mp.log(2), 20))
print("2*pi*sqrt(2)   =", mp.nstr(2 * pi * mp.sqrt(2), 20))
print("4*pi           =", mp.nstr(4 * pi, 20))
print("log(e+1)       =", mp.nstr(mp.log(mp.e + 1), 20))
for (n, pc) in ((2, 2), (2, 3), (3, 2), (3, 3)):
    for (r1, r2) in ((1, 2), (1, mp.e)):
        k = mp.mpf(n - 1) / (pc - 1)
        if abs(k - 1) < mp.mpf("1e-30"):
            inner = mp.log(mp.mpf(r2) / r1)
        else:
            inner = (mp.mpf(r2) ** (1 - k) - mp.mpf(r1) ** (1 - k)) / (1 - k)
        closed = omega(n) * inner ** (1 - pc)
        lam_c, M_c = ann_solve(n, r1, r2, lambda r, q=pc: mp.mpf(q))
        print(f"n={n} p={pc} ({r1},{mp.nstr(mp.mpf(r2),8)}): closed={mp.nstr(closed, 18)} solved={mp.nstr(M_c, 18)} rel={mp.nstr(abs(M_c-closed)/closed, 5)}")

print("== p=1+r log-bound margins ==")
for (n, r1, r2) in ((2, 1, 2), (2, 1, 4), (3, 1, 2)):
    lam_m, M_m = ann_solve(n, r1, r2, p_ann)
    UB_m = ann_logbound(n, r1, r2, p_ann)
    print(f"n={n} [{r1},{r2}]: lambda* = {mp.nstr(lam_m, 20)}  M = {mp.nstr(M_m, 20)}  "
          f"margin% = {mp.nstr(100 * (UB_m / M_m - 1), 10)}")

print("== p=3, A=2, L=2 cylinder ==")
lam32, M32 = cyl_solve(2, 2, lambda t: mp.mpf(3))
print("lambda* =", mp.nstr(lam32, 20), " M =", mp.nstr(M32, 20))
