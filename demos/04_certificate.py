"""An executable sufficient condition for exponential stability.

For x'(t) + sum_k A_k(t) x(t - theta_k) = 0 with jumps x(tau_i) = B_i
x(tau_i - 0), suppose

    gamma = sup_i ||B_i|| < 1,   zeta <= tau_{i+1} - tau_i <= rho,

and let alpha = -(1/zeta) ln gamma.  If

    lhs = sum_k sup_t ||A_k(t)|| * (e^{-alpha rho} / alpha + rho) < 1,

and the Bohl-Perron margin

    q = Q * max(sup_{t <= H} J(t), rho / (1 - gamma)) < 1,

with Q = sup_t sum_k ||A_k(t)|| and J(t) = int_0^t prod_{s < tau_i <= t}
||B_i|| ds, the trivial solution is exponentially stable: the jumps
contract fast enough that the continuous dynamics cannot rebuild what they
remove.  lhs alone does not suffice, because alpha takes the smallest gap:
clustered jumps can pass it while the solution grows.  `certify` evaluates
both margins and reports every failed condition when the test does not
apply.  Not certified never means unstable -- the test is sufficient only.

For the scalar instance x' + a x(t - 1) = 0, B = b, unit gaps
(zeta = rho = 1), the left-hand side collapses to a (1 - b / ln b).
"""

import math

from impulsedde import (
    ConstantLag,
    DelayTerm,
    ImpulseSchedule,
    SystemSpec,
    certify,
)


def scalar_spec(a: float, b: float, horizon: float) -> SystemSpec:
    return SystemSpec(
        dim=1,
        terms=[DelayTerm(coefficient=[[a]], delay=ConstantLag(1.0))],
        impulses=ImpulseSchedule.periodic(1.0, [[b]], horizon=horizon),
        horizon=horizon,
    )


def show(cert) -> None:
    print(f"  verdict {cert.verdict}")
    print(f"  gamma = {cert.gamma:.6f}   gaps in [{cert.zeta:.3f}, "
          f"{cert.rho:.3f}]   alpha = {cert.alpha + 0.0:.6f}")
    print(f"  lhs = {cert.lhs:.15f}   (needs < 1)")
    if cert.reasons:
        for reason in cert.reasons:
            print(f"  reason: {reason}")


def main() -> None:
    a, b = 0.3, 0.5
    spec = scalar_spec(a, b, horizon=40.0)
    cert = certify(spec)
    print(f"a = {a}, b = {b}, unit-period halving jumps:")
    show(cert)
    closed = a * (1.0 - b / math.log(b))
    print(f"  closed form a (1 - b / ln b) = {closed:.15f}   "
          f"gap {abs(cert.lhs - closed):.1e}")

    # push the coefficient until the margin is gone: the test declines
    strong = scalar_spec(1.2, b, horizon=40.0)
    print("\na = 1.2 (same jumps):")
    show(certify(strong))

    # no contraction at all: gamma >= 1 fails first
    flips = scalar_spec(0.3, -1.0, horizon=40.0)
    print("\nb = -1 (sign flips, no contraction):")
    show(certify(flips))


if __name__ == "__main__":
    main()
