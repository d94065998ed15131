"""Every catalogue case agrees with its references, and each is the kind it is named for."""

import numpy as np
import pytest

from qgpr import qla
from qgpr import statevector as sv
from qgpr.estimator import interference_layout

from cases import CATALOGUE, KAPPA, TAU, agree, catalogued


@pytest.mark.parametrize("name", list(CATALOGUE))
def test_case_agrees_with_its_references(name):
    agree(catalogued(name))


def test_each_case_is_its_kind():
    cases = {name: catalogued(name) for name in CATALOGUE}
    a = cases["complex"].system  # the row sums of |a| bound a complex spectrum too
    assert qla.gershgorin_bound(a) >= np.linalg.eigvalsh(a)[-1]
    grid = cases["grid"]
    phases = np.linalg.eigvalsh(grid.system) * grid.config.t0 * grid.config.T / TAU
    np.testing.assert_allclose(phases, np.round(phases), atol=1e-9)
    assert (qla._inversion_ratios(cases["clamped"].config) > 1.0).any()
    lam = np.linalg.eigvalsh(cases["kappa"].system)
    assert lam[-1] / lam[0] == pytest.approx(KAPPA) and KAPPA < 1e4  # the CLI's kappa_bound
    for case in (cases["cap-real"], cases["cap-complex"]):
        layout = interference_layout(len(case.system), case.config.clock_qubits)
        assert layout.total_qubits == sv.DEFAULT_QUBIT_CAP
