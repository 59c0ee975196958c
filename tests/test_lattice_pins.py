"""Bit-for-bit pins of the group law, the decay certificate and the tiling check.

The expected strings were recorded from the certificate that took a
minimum on every shell and from group constants rebuilt on every call.  A
change that reorders a reduction, drops a shell or moves the cut distance
changes a hex digit here; the group batches are pinned by the sha256 of
their float64 bytes.  The `multiply_broadcast` digests and the N_{3,2} group
were recorded from the law whose cross term was one three-operand einsum and
whose norm summed squares with `sum(axis=-1)`.
"""

import hashlib

import numpy as np
import pytest

import stratwave as sw
from conftest import custom_3_2, free_3_2
from stratwave import groups

PIN_GROUPS = {"R2": sw.abelian(2), "H1": sw.heisenberg(1), "H2": sw.heisenberg(2),
              "custom3+2": custom_3_2(), "N3,2": free_3_2()}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def group_batches(g) -> dict:
    rng = np.random.default_rng([17, g.dim])
    x, y = rng.normal(scale=3.0, size=(2, 64, g.dim))
    alpha = rng.uniform(0.1, 8.0, size=64)
    # the tiling's broadcast: (P, 27, dim) candidates times (P, 1, dim) sample points
    z = rng.normal(scale=3.0, size=(4, 27, g.dim))
    return {
        "multiply": _digest(groups.multiply(g, x, y), groups.multiply(g, y, x[0])),
        "multiply_broadcast": _digest(groups.multiply(g, x[0], y),
                                      groups.multiply(g, z, y[:4, None])),
        "dilate": _digest(groups.dilate(g, 0.37, x), groups.dilate(g, alpha, y),
                          groups.dilate(g, 2.0 ** -3, x[5])),
        "hom_norm": _digest(groups.hom_norm(g, x), groups.hom_norm(g, y[None]),
                            [groups.hom_norm(g, x[3])]),
    }


def lattice_workload_certificates(seed: int = 4242) -> list:
    """The five certificates of the lattice benchmark workload at `seed`:
    H^1 at beta = 1, n = 16, 6 shells, and R^2 at beta = 1/2, 9 shells."""
    rng = np.random.default_rng([seed, 13])
    gs_h = sw.preset_sampling_set(sw.heisenberg(1), 1.0)
    gs_r = sw.preset_sampling_set(sw.abelian(2), 0.5)
    cases = []
    for eta, j in ((0, 0), (1, 1), (2, 2)):
        x = [rng.uniform(lo, hi) for lo, hi in gs_h.tile]
        cases.append((gs_h, eta, j, 16, x, 6))
    for n in (6, 8):
        x = [rng.uniform(lo, hi) for lo, hi in gs_r.tile]
        cases.append((gs_r, 0, 0, n, x, 9))
    return cases


# (sampling set, eta, j, n, x, rel_tail, max_shells)
EXTRA_CERTIFICATES = {
    # shells 13 and 14 lie past the radius-13 block of a 3-dim group
    "beyond-block": (sw.SamplingSet(sw.heisenberg(1), 1.0), 0, 0, 16, [0.3, -0.2, 0.1],
                     0.0, 15),
    # the stopping rule ends the sum at r = 3
    "early-stop": (sw.SamplingSet(sw.heisenberg(1), 1.0), 1, 2, 16, [0.3, -0.2, 0.1],
                   0.5, 2000),
}


def certificate_hex(gs, eta, j, n, x, rel_tail, max_shells) -> list:
    value, det = sw.column_decay_certificate(gs, eta, j, n, np.asarray(x, dtype=float),
                                             rel_tail=rel_tail, max_shells=max_shells,
                                             return_details=True)
    return [value.hex(), det["partial_sum"].hex(), det["tail_estimate"].hex(),
            det["cut_distance"].hex(), det["shells"]]


# (sampling set, grid_res, tile as multiples of the spacing or None)
TILINGS = {
    "R1": (sw.SamplingSet(sw.abelian(1), 1.0), 8, None),
    "R2": (sw.SamplingSet(sw.abelian(2), 0.5), 6, None),
    "H1": (sw.SamplingSet(sw.heisenberg(1), 1.0), 4, None),
    "H1-wide": (sw.SamplingSet(sw.heisenberg(1), 0.5), 4, 1.1),
    "H2": (sw.SamplingSet(sw.heisenberg(2), 1.0), 3, None),
    "H2-narrow": (sw.SamplingSet(sw.heisenberg(2), 1.0), 3, 0.7),
    "custom3+2": (sw.SamplingSet(custom_3_2(), 1.0), 3, None),
}


def tiling_hex(gs, grid_res, scale) -> list:
    tile = None if scale is None else [(0.0, scale * s) for s in gs.spacing.tolist()]
    rep = sw.verify_tiling(gs, [(-2.0, 2.0)] * gs.group.dim, grid_res=grid_res, tile=tile)
    return [rep.max_overlap_fraction.hex(), rep.uncovered_fraction.hex(), rep.n_samples]


# sha256 of each batch's float64 bytes
GROUP_PINS = {
    "H1": {
        "dilate": "88f266260705973f892622156e2ed26abbb19c770c2d75728dda66ff3424b705",
        "hom_norm": "2214fec1939548fd5760196e73df0f4284a375851544b2dac5030d3bf7d07c27",
        "multiply": "93787e331e6e8a4ae132530d380cdaf2d68c2cfa14361b1e2643589785dca696",
        "multiply_broadcast": "f8f914eae2aa3578c3dd10209c2527f2b2258d4ab19941f4f2e89f971d2eaf76",
    },
    "H2": {
        "dilate": "4e071abc976079ad1daff393ce009fafa330378947b01e47fbddfc427ca09261",
        "hom_norm": "1639312d87ea4bead50f5c58fd56b88e160c0d45e709c28991585376a80ece87",
        "multiply": "601dcdb4431e68afbd7e94403be235e1592c7e69ff0cf9e8f278656ae45d015e",
        "multiply_broadcast": "8f8de3d28f4fd81b7032f32866039c4af91b410a4e6f4c94177fcf8dff216dac",
    },
    "R2": {
        "dilate": "23eab5581945a28b57f1780db8eaf6e0b52f430c6fb3811ededea2f6db1a4e46",
        "hom_norm": "b987383fb081093e60e99b1c0a39bf606ae32de6d47d3bb5defcefe0f1059491",
        "multiply": "23b46cd0ae9821fd3dbeb839d0dd9444d321a478ad9372b233bfefd32496ad5b",
        "multiply_broadcast": "0478c740e455aabd87d47d5f1c0073f1e7d14fc786fa3d501d3e4c999c2079d0",
    },
    "N3,2": {
        "dilate": "f5c5c14afbce1ebbe444144edaca758e66fe8b9bd81193e09ae21259ad3202ca",
        "hom_norm": "6418b59d5a099e654cd5c0a18fafa912ae582e5ded8928309ad18c94d2ffa74e",
        "multiply": "e416b1f299fb08568e74f31c0cb2272518206f903049c851f4513c4a576e3dac",
        "multiply_broadcast": "3b51f3e04211d60b41c20918373e5830f0f7095ac76a101f653745e0ae6f18a6",
    },
    "custom3+2": {
        "dilate": "0a20de589c2db319e41ef56ebee219eca6e5f2fe82c3bd2b45d8f3e0f1483709",
        "hom_norm": "dc2c3be004a9b5c6e8db22f108e996aade182b46cee777daef24c93711c1fec5",
        "multiply": "a80c738981c95250282de90bf5917fa838f5d2dce96e8077a76002a704b31201",
        "multiply_broadcast": "dde92bf75aa41a1a66cc529927152302e7f6b9fbcbea9850a42c7a732a149588",
    },
}
# [value, partial_sum, tail_estimate, cut_distance, shells]
WORKLOAD_PINS = [
    ["0x1.4714c5f3882c5p-13", "0x1.46efad78df041p-13", "0x1.28c3d5494205ap-24",
     "0x1.4e3fee4286e2fp+1", 6],
    ["0x1.d6894eead86dap-14", "0x1.d655ae1837500p-14", "0x1.9d069508ecf3ap-25",
     "0x1.5dbe4b232ca6fp+0", 6],
    ["0x1.a21ffe6294dccp-12", "0x1.a211f968a8d47p-12", "0x1.c09f3d810a530p-25",
     "0x1.5a2bc7ed01982p-1", 6],
    ["0x1.26623e991a623p+0", "0x1.23d8daadcaafep+0", "0x1.44b1f5a7d9276p-7",
     "0x1.e5a8a32b8f947p+1", 9],
    ["0x1.4ea104a1ac64dp-1", "0x1.4e7fffb145139p-1", "0x1.0827833a89d5ap-12",
     "0x1.f23d3e01b88f0p+1", 9],
]
# x = (0.3, -0.2, 0.1) lies outside the tile: both read the certificate at its
# tile point y = (0.3, 0.8, 0.45), x = (0, -1, -1).y, as recorded from the
# certificate that centred its shells on the given point, evaluated at y
EXTRA_PINS = {
    "beyond-block": ["0x1.bcc00553c578dp-12", "0x1.bcbff36849b5cp-12",
                     "0x1.1eb7bc31178cap-32", "0x1.3baca1ed226a6p+2", 15],
    "early-stop": ["0x1.6280a1fcaba1dp-10", "0x1.5ba706c4ad83cp-10",
                   "0x1.b666cdff87837p-16", "0x1.0a9ec90497facp-1", 4],
}
# [max_overlap_fraction, uncovered_fraction, n_samples]
TILING_PINS = {
    "H1": ["0x0.0p+0", "0x0.0p+0", 64],
    "H1-wide": ["0x1.0000000000000p-4", "0x0.0p+0", 64],
    "H2": ["0x0.0p+0", "0x0.0p+0", 243],
    "H2-narrow": ["0x0.0p+0", "0x1.ba781948b0fcdp-1", 243],
    "R1": ["0x0.0p+0", "0x0.0p+0", 8],
    "R2": ["0x0.0p+0", "0x0.0p+0", 36],
    "custom3+2": ["0x0.0p+0", "0x0.0p+0", 243],
}


@pytest.mark.parametrize("name", sorted(PIN_GROUPS))
def test_group_batches_are_pinned(name):
    assert group_batches(PIN_GROUPS[name]) == GROUP_PINS[name]


def test_lattice_workload_certificates_are_pinned():
    assert [certificate_hex(gs, eta, j, n, x, 1e-8, cap)
            for gs, eta, j, n, x, cap in lattice_workload_certificates()] == WORKLOAD_PINS


@pytest.mark.parametrize("name", sorted(EXTRA_CERTIFICATES))
def test_certificate_past_the_block_and_at_the_stop_is_pinned(name):
    assert certificate_hex(*EXTRA_CERTIFICATES[name]) == EXTRA_PINS[name]


@pytest.mark.parametrize("name", sorted(TILINGS))
def test_tiling_reports_are_pinned(name):
    assert tiling_hex(*TILINGS[name]) == TILING_PINS[name]
