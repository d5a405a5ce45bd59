"""
Conserved quantities under constant force
=========================================

With a constant force the system has n exact invariants: combinations of
position, velocity, time and the driving Wiener process that stay fixed
along every realization. This script certifies them at probe points and
then watches one stay constant along a simulated path.
"""

import numpy as np

from ousym import (ConstantForce, InvariantCandidate, LinearForce,
                   build_ou_system, classify_invariants, euler_maruyama,
                   max_invariant_residual, sample_probes, sample_wiener)

# Three degrees of freedom with deliberately mismatched friction and
# noise levels; the invariants exist componentwise regardless.
sys3 = build_ou_system(3, beta=[1.0, 2.5, 0.7], mu=[2.0, 0.3, 1.1],
                       force=ConstantForce([0.5, -1.0, 0.2]))
inv = classify_invariants(sys3)
print("basis kind:", inv.basis_kind)
for g in inv.generators:
    print("  ", g.label, "=", g.render())

# Certificate: the invariance conditions hold at 100 random probes.
probes = sample_probes(sys3, count=100, seed=1)
worst = max(max_invariant_residual(g, sys3, probes) for g in inv.generators)
print(f"max invariance residual over the basis: {worst:.2e}")

# Conservation along an actual path. The Euler-Maruyama update telescopes
# these combinations exactly, so the drift over 10000 steps is pure
# floating-point noise.
grid = sample_wiener(3, 0.0, 1.0, 10000, seed=2)
path = euler_maruyama(sys3, [0.1, -0.2, 0.3, 0.0, 0.1, -0.1], grid)
w = grid.cumulative()
for i in range(3):
    beta, mu, c = sys3.beta[i], sys3.mu[i], sys3.force.c[i]
    value = (w[i] - path.states[:, 3 + i] / mu
             - (beta / mu) * path.states[:, i] + (c / mu) * path.times)
    print(f"  component {i + 1}: drift over the path "
          f"{np.max(np.abs(value - value[0])):.2e}")

# A regular linear force admits no such combination. The affine solver
# returns an empty null space, which is the certified way of saying so.
sys_lin = build_ou_system(1, [3.0], [1.0], LinearForce([[4.0]]))
inv_lin = classify_invariants(sys_lin)
print("linear force:", inv_lin.basis_kind,
      "| affine null-space dimension:", inv_lin.affine_nullspace_dim)

# InvariantCandidate gives direct access to one combination if you want
# to evaluate it yourself.
chi1 = InvariantCandidate.chi(sys3, 1)
p = probes[0]
print("chi1 at a probe:", float(chi1(p)))
