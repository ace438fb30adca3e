"""Shared brute-force oracles for the test suite.

Everything here is deliberately independent of the library's closed forms:
fixed-step RK4 marches and dense operator matrices, plus the K and (K, J, L)
forms of the moments, which referee the library's (u, v) forms.
"""

import numpy as np


def phase_ode(protocol, times, steps_per_unit=600):
    """RK4 integration of eta' = f, chi' = g e^{-i eta} with checkpoints.

    Returns a list of (eta, chi) at the requested (sorted, nonnegative)
    times. Independent referee for the drive-phase closed forms; at the
    default resolution the accumulated error is ~1e-11 per time unit for
    fields of order one. Each checkpoint interval is one array pass: f and
    g at the stage times, and tau, eta and chi accumulated step by step in
    the order of a scalar RK4 loop, which gives the same bits.
    """
    out = []
    eta, chi = 0.0, 0.0 + 0.0j
    t_prev = 0.0
    for t_next in times:
        span = t_next - t_prev
        if span > 0:
            nsteps = max(8, int(np.ceil(span * steps_per_unit)))
            h = span / nsteps
            tau = np.add.accumulate(np.r_[t_prev, np.full(nsteps - 1, h)])
            stages = (tau, tau + h / 2, tau + h)  # stages 2 and 3 share tau + h/2
            f1, f2, f4 = (np.asarray(protocol.f(s), dtype=float) for s in stages)
            g1, g2, g4 = (np.asarray(protocol.g(s), dtype=complex) for s in stages)
            etas = np.add.accumulate(np.r_[eta, h / 6 * (f1 + 2 * f2 + 2 * f2 + f4)])
            e = etas[:-1]
            c1 = g1 * np.exp(-1j * e)
            c2 = g2 * np.exp(-1j * (e + h / 2 * f1))
            c3 = g2 * np.exp(-1j * (e + h / 2 * f2))
            c4 = g4 * np.exp(-1j * (e + h * f2))
            steps = h / 6 * (c1 + 2 * c2 + 2 * c3 + c4)
            chi = complex(np.add.accumulate(np.r_[chi, steps])[-1])
            eta = float(etas[-1])
        out.append((eta, chi))
        t_prev = t_next
    return out


def phase_ode_scalar(protocol, times, steps_per_unit=600):
    """phase_ode as a scalar RK4 loop, one step at a time: its reference."""
    out = []
    eta, chi = 0.0, 0.0 + 0.0j
    t_prev = 0.0

    def rhs(tau, e):
        return float(protocol.f(tau)), complex(protocol.g(tau)) * np.exp(-1j * e)

    for t_next in times:
        span = t_next - t_prev
        if span > 0:
            nsteps = max(8, int(np.ceil(span * steps_per_unit)))
            h = span / nsteps
            tau = t_prev
            for _ in range(nsteps):
                f1, c1 = rhs(tau, eta)
                f2, c2 = rhs(tau + h / 2, eta + h / 2 * f1)
                f3, c3 = rhs(tau + h / 2, eta + h / 2 * f2)
                f4, c4 = rhs(tau + h, eta + h * f3)
                chi = chi + h / 6 * (c1 + 2 * c2 + 2 * c3 + c4)
                eta = eta + h / 6 * (f1 + 2 * f2 + 2 * f3 + f4)
                tau += h
        out.append((eta, chi))
        t_prev = t_next
    return out


def write_csv_reference(path, scenario, header, columns, comment=""):
    """scenario._write_csv with every value through Python's "%.17g" %."""
    row = ",".join(["%.17g"] * len(header)) + "\n"
    columns = [np.asarray(col, dtype=float) for col in columns]
    with open(path, "w") as fh:
        fh.write(f"# scenario={scenario.name} hash={scenario.config_hash}{comment}\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, columns[0].size, 256):
            block = [col[start:start + 256].tolist() for col in columns]
            fh.writelines([row % values for values in zip(*block)])


def dense_bloch_transform(state, m):
    """(kappa, psi): psi(kappa_j) = (2 pi)^{-1/2} sum_n c_n e^{-i n kappa_j}
    on kappa_j = -pi + 2 pi j/M, by the dense M x N phase matrix."""
    kappa = -np.pi + 2.0 * np.pi * np.arange(m) / m
    phases = np.exp(-1j * np.outer(kappa, state.sites))
    return kappa, phases @ state.amplitudes / np.sqrt(2.0 * np.pi)


def dense_inverse_bloch(kappa, values, window):
    """c_n = sqrt(2 pi)/M sum_j psi(kappa_j) e^{i n kappa_j} on the window,
    by the dense N x M phase matrix."""
    sites = np.arange(window[0], window[1] + 1)
    phases = np.exp(1j * np.outer(sites, kappa))
    return phases @ values * np.sqrt(2.0 * np.pi) / kappa.size


def dense_operators(window):
    """Dense N and K matrices on [n_min, n_max]: N|n> = n|n>, K|n> = |n-1>."""
    lo, hi = window
    size = hi - lo + 1
    n_mat = np.diag(np.arange(lo, hi + 1).astype(float)).astype(complex)
    k_mat = np.zeros((size, size), dtype=complex)
    for i in range(size - 1):
        k_mat[i, i + 1] = 1.0  # (K psi)_n = c_{n+1}
    return n_mat, k_mat


def dense_hamiltonian(labels, f, band, twist=None):
    """Dense H = f N + sum_m (g_m K^m + g_m* K^dag^m) on the given site labels.

    K^m is a power of the one-step shift (K psi)_n = psi_{n+1}; on a ring
    (``twist`` given) its wrap-around entry carries the seam twist.
    """
    size = len(labels)
    shift = np.eye(size, k=1, dtype=complex)
    if twist is not None:
        shift[-1, 0] = twist
    dense = np.diag(f * np.asarray(labels, dtype=float)).astype(complex)
    for m, g in enumerate(band):
        k_m = np.linalg.matrix_power(shift, m)
        dense += g * k_m + np.conj(g) * k_m.conj().T
    return dense


def dense_rk4(psi0, t0, t1, nsteps, hamiltonian, field):
    """Stage-by-stage RK4 of i dpsi/dt = H(t, eta) psi with a dense H.

    eta' = f (``field``, the drive's f) is marched alongside from eta = 0 at
    t0 by the same RK4, and ``hamiltonian(t, eta)`` is called at the stage
    values of both (eta, eta + h f(t)/2, eta + h f(t + h/2)/2 and
    eta + h f(t + h/2)). Returns the final state, the largest probability in
    the three outermost sites at both ends seen after any step (meaningful
    for a 1-d state) and the final eta.
    """
    h = (t1 - t0) / nsteps
    psi = np.array(psi0, dtype=complex)
    eta, edge = 0.0, 0.0
    for i in range(nsteps):
        t = t0 + i * h
        f0, f1, f2 = (float(field(s)) for s in (t, t + h / 2, t + h))
        stages = [hamiltonian(t, eta), hamiltonian(t + h / 2, eta + h / 2 * f0),
                  hamiltonian(t + h / 2, eta + h / 2 * f1),
                  hamiltonian(t + h, eta + h * f1)]
        eta += h / 6 * (f0 + 4 * f1 + f2)
        k1 = -1j * (stages[0] @ psi)
        k2 = -1j * (stages[1] @ (psi + h / 2 * k1))
        k3 = -1j * (stages[2] @ (psi + h / 2 * k2))
        k4 = -1j * (stages[3] @ (psi + h * k3))
        psi = psi + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        prob = np.abs(psi) ** 2
        edge = max(edge, float(np.sum(prob[:3]) + np.sum(prob[-3:])))
    return psi, edge, eta


def dense_coherence(state):
    """Coherence parameters from explicit matrix expectations.

    The state is zero-padded by two sites so the truncated K matrix acts
    unitarily on its support (window = storage, not a physical boundary).
    """
    state = state.embedded((state.n_min - 2, state.n_max + 2))
    n_mat, k_mat = dense_operators(state.window)
    c = state.amplitudes

    def ev(mat):
        return complex(np.vdot(c, mat @ c))

    k_dag = k_mat.conj().T
    c_mat = 0.5 * (k_mat + k_dag)
    s_mat = (k_mat - k_dag) / 2j
    ops = {"C": c_mat, "S": s_mat, "N": n_mat}
    cov = np.zeros((3, 3))
    for i, a in enumerate("CSN"):
        for j, b in enumerate("CSN"):
            sym = 0.5 * (ops[a] @ ops[b] + ops[b] @ ops[a])
            cov[i, j] = (ev(sym) - ev(ops[a]) * ev(ops[b])).real
    return {
        "K": ev(k_mat),
        "J": ev(n_mat @ k_mat + k_mat @ n_mat),
        "L": ev(k_mat @ k_mat),
        "n_mean": ev(n_mat).real,
        "n2_mean": ev(n_mat @ n_mat).real,
        "cov": cov,
    }


def rk4_classical(protocol, p0, q0, t_end, steps=100000, delta=1.0):
    """RK4 integration of pdot = -f/delta, qdot = -2 g delta sin(p delta)."""
    h = t_end / steps
    p, q = float(p0), float(q0)

    def rhs(tau, pp):
        f = float(protocol.f(tau))
        g = float(protocol.g(tau))
        return -f / delta, -2.0 * g * delta * np.sin(pp * delta)

    tau = 0.0
    for _ in range(steps):
        dp1, dq1 = rhs(tau, p)
        dp2, dq2 = rhs(tau + h / 2, p + h / 2 * dp1)
        dp3, dq3 = rhs(tau + h / 2, p + h / 2 * dp2)
        dp4, dq4 = rhs(tau + h, p + h * dp3)
        q = q + h / 6 * (dq1 + 2 * dq2 + 2 * dq3 + dq4)
        p = p + h / 6 * (dp1 + 2 * dp2 + 2 * dp3 + dp4)
        tau += h
    return p, q


def ensemble_moments_loop(ensemble, protocol, t, delta=1.0):
    """Weighted (mean, variance) of q_t = q + v cos p - u sin p, one time at
    a time over the whole ensemble."""
    u, v = (np.broadcast_to(x, np.shape(t))
            for x in protocol.uv(np.asarray(t, dtype=float)))
    cos0, sin0 = np.cos(ensemble.p * delta), np.sin(ensemble.p * delta)
    means, variances = np.empty(np.shape(t)), np.empty(np.shape(t))
    for i in np.ndindex(np.shape(t)):
        q_t = ensemble.q + v[i] * cos0 - u[i] * sin0
        means[i] = np.dot(ensemble.weights, q_t)
        variances[i] = np.dot(ensemble.weights, q_t ** 2) - means[i] ** 2
    if np.ndim(t) == 0:
        return float(means), float(variances)
    return means, variances


def expect_N_k(coh, protocol, t):
    """<N>_t = <N>_0 - 2 Im(chi_t <K>_0), the K form of expect_N."""
    chi = np.asarray(protocol.chi(t))
    return coh.n_mean - 2.0 * np.imag(chi * coh.K)


def variance_N_moments(coh, protocol, t):
    """Var_N(t) = <N^2>_t - <N>_t^2 from (K, J, L), the moments form of
    variance_N."""
    chi = np.asarray(protocol.chi(t))
    n2_t = (coh.n2_mean - 2.0 * np.imag(chi * coh.J)
            - 2.0 * np.real(chi * chi * coh.L) + 2.0 * np.abs(chi) ** 2)
    return n2_t - expect_N_k(coh, protocol, t) ** 2


def random_state(rng, window, ring=False):
    """A normalized random complex state on the window."""
    from driventb import LatticeState

    size = window[1] - window[0] + 1
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    amps /= np.linalg.norm(amps)
    return LatticeState(window[0], amps, ring=ring)
