"""Test-only reference: the brute-force kernel equality case the oracle
carried before it read ``bounds.kernel_generator``. Every target pays
for its own double sum over the sources strictly below it, reading the
scenario's kernel directly. The differential test holds
``oracle.equality_case_kernel`` to it."""

from tsgronwall.numeric import Mode, scalar_pow, zero


def reference_equality_case_kernel(sc):
    """Rows of the largest solution of u**p = a + f(t) * (double kernel
    integral of g(t, .) * u**q). Exact mode (p = q) holds the p-th powers
    u**p, as equality_case_kernel does."""
    exact = sc.mode is Mode.EXACT
    n1, n2 = sc.a.shape
    pts1, pts2 = sc.ts1.points, sc.ts2.points
    mu1, mu2 = sc.ts1.graininesses(), sc.ts2.graininesses()
    a, f = sc.a.values, sc.f.values
    u = [[None] * n2 for _ in range(n1)]
    u_q = [[None] * n2 for _ in range(n1)]
    for i in range(n1):
        for j in range(n2):
            t1, t2 = pts1[i], pts2[j]
            s = zero(sc.mode)
            for ii in range(i):
                for jj in range(j):
                    s += mu1[ii] * mu2[jj] * sc.kernel(t1, t2, pts1[ii], pts2[jj]) * u_q[ii][jj]
            rhs = a[i][j] + f[i][j] * s
            if exact:
                u[i][j] = u_q[i][j] = rhs
            else:
                u[i][j] = scalar_pow(rhs, 1.0 / sc.p, Mode.FLOAT)
                u_q[i][j] = scalar_pow(u[i][j], sc.q, Mode.FLOAT)
    return u
