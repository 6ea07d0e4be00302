"""Shared spec corpus for the test suite.

Five systems spanning the feature grid: scalar and planar, with and
without impulses, jump offsets, forcing and an initial function, constant
and piecewise-constant coefficients, single and multiple lags, and
singular jump matrices.  Every factory returns a fresh immutable spec.
"""

import numpy as np

from impulsedde import (
    ConstantLag,
    DelayTerm,
    ImpulseSchedule,
    MatrixTable,
    SystemSpec,
    VectorTable,
)


def scalar_forced() -> SystemSpec:
    """Scalar, one lag, two impulses with offsets, forcing and history."""
    return SystemSpec(
        dim=1,
        terms=[DelayTerm(np.array([[0.8]]), ConstantLag(0.4))],
        impulses=ImpulseSchedule(
            points=[0.9, 1.7],
            matrices=[[[-0.5]], [[0.3]]],
            offsets=[[0.2], [-0.1]],
            dim=1,
        ),
        forcing=VectorTable([0.0, 0.6, 1.3], [[0.5], [-0.25], [0.1]]),
        phi=VectorTable([-0.4], [[0.3]]),
        x0=[1.0],
        horizon=2.5,
    )


def scalar_stabilized_forced() -> SystemSpec:
    """Scalar, unit lag, contracting periodic jumps, piecewise forcing."""
    return SystemSpec(
        dim=1,
        terms=[DelayTerm(np.array([[0.3]]), ConstantLag(1.0))],
        impulses=ImpulseSchedule.periodic(1.0, [[0.5]], horizon=4.0, dim=1),
        forcing=VectorTable([0.0, 2.5], [[0.2], [-0.3]]),
        x0=[1.0],
        horizon=4.0,
    )


def scalar_table_homogeneous() -> SystemSpec:
    """Scalar, sign-switching coefficient table, no jumps, no inputs."""
    return SystemSpec(
        dim=1,
        terms=[DelayTerm(MatrixTable([0.0, 1.2], [[[0.5]], [[-0.4]]]),
                         ConstantLag(0.5))],
        x0=[1.0],
        horizon=3.0,
    )


def planar_rotation() -> SystemSpec:
    """Planar, two lags, rotating jump with offset, forcing and history."""
    return SystemSpec(
        dim=2,
        terms=[
            DelayTerm(np.array([[0.0, -0.8], [0.8, 0.0]]), ConstantLag(0.0)),
            DelayTerm(np.array([[0.3, 0.1], [0.0, 0.2]]), ConstantLag(0.3)),
        ],
        impulses=ImpulseSchedule(
            points=[1.0, 2.2],
            matrices=[[[0.0, 0.5], [-0.5, 0.0]], [[0.7, 0.0], [0.1, 0.6]]],
            offsets=[[0.1, -0.2], [0.0, 0.0]],
            dim=2,
        ),
        forcing=VectorTable([0.0], [[0.1, 0.05]]),
        phi=VectorTable([-0.3], [[0.2, -0.1]]),
        x0=[1.0, 0.5],
        horizon=2.5,
    )


def planar_singular_reset() -> SystemSpec:
    """Planar, one lag, a full reset (B = 0) and a rank-one jump."""
    return SystemSpec(
        dim=2,
        terms=[DelayTerm(np.array([[0.4, 0.2], [0.1, 0.3]]), ConstantLag(0.35))],
        impulses=ImpulseSchedule(
            points=[1.2, 2.1],
            matrices=[[[0.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [0.0, 0.0]]],
            offsets=[[0.5, -0.25], [0.0, 0.0]],
            dim=2,
        ),
        phi=VectorTable([-0.35], [[0.1, 0.1]]),
        x0=[0.5, 1.0],
        horizon=2.4,
    )


def multi_piece_history() -> SystemSpec:
    """Scalar, lag 0.261, three-piece phi whose breaks b have lag images
    b + theta that do not round-trip: fl(fl(b + theta) - theta) != b.

    Kept out of CORPUS: its solution is piecewise polynomial on [0, 2 theta),
    so it serves as an exact oracle for history reads at phi's breaks.
    """
    return SystemSpec(
        dim=1,
        terms=[DelayTerm(np.array([[0.4571]]), ConstantLag(0.261))],
        phi=VectorTable([-0.377, -0.141, -0.074],
                        [[-0.1567], [-0.4336], [0.7044]]),
        x0=[0.1062],
        horizon=1.0,
    )


def two_off_lattice_lags() -> SystemSpec:
    """Scalar, two lags off each other's lattice, two jumps with offsets,
    two-piece forcing and a one-piece history.

    Kept out of CORPUS: it pins the cross-lag images a - theta_1 - theta_2
    of the kernel rows, which a single lag never produces and lags on the
    step lattice put on nodes the grid has anyway.
    """
    return SystemSpec(
        dim=1,
        terms=[DelayTerm(np.array([[0.8]]), ConstantLag(0.3713)),
               DelayTerm(np.array([[-0.5]]), ConstantLag(0.6127))],
        impulses=ImpulseSchedule(
            points=[0.77, 1.53],
            matrices=[[[0.6]], [[-0.9]]],
            offsets=[[0.2], [0.1]],
            dim=1,
        ),
        forcing=VectorTable([0.0, 0.9], [[0.3], [-0.2]]),
        phi=VectorTable([-1.0], [[0.5]]),
        x0=[1.0],
        horizon=2.5,
    )


CORPUS = {
    "scalar-forced": scalar_forced,
    "scalar-stabilized-forced": scalar_stabilized_forced,
    "scalar-table-homogeneous": scalar_table_homogeneous,
    "planar-rotation": planar_rotation,
    "planar-singular-reset": planar_singular_reset,
}
