"""Bit-identity pins of a cold TransferSpectrum.

For each family of a fixed set, a fresh spectrum answers a fixed list of
queries, ring queries first or thermodynamic queries first, and then gives
up E, rho, every dressed operator and the dominant projectors.  Every float
is recorded by its bytes and every error by its type and text; the sha256 of
the record is pinned.  The module-level correlators, which build one cold
spectrum per call, are pinned the same way.
"""

import hashlib
from math import cos, sin

import numpy as np
import pytest

from mpschain import linalg, models, mps, spin
from mpschain.mps import MpsFamily, TransferSpectrum


def _random_family(seed: int, big_d: int, complex_: bool) -> MpsFamily:
    rng = np.random.default_rng(seed)
    mats = {}
    for lab in spin.LABELS:
        m = rng.standard_normal((big_d, big_d))
        mats[lab] = m + 1j * rng.standard_normal((big_d, big_d)) if complex_ else m
    return MpsFamily(d=3, D=big_d, labels=spin.LABELS, matrices=mats)


def _families() -> dict[str, MpsFamily]:
    fams = {f"I g={g}": models.model_I(g) for g in (0.0, 0.1, 0.5, 0.8, 1.0, 1.7, 3.0)}
    fams.update({f"II g={g}": models.model_II(g) for g in (0.0, 0.1, 0.5, 1.0, 1.3, 3.0)})
    fams["aklt"] = models.aklt_family()
    for big_d in (1, 2, 3, 4):
        fams[f"real D={big_d}"] = _random_family(40 + big_d, big_d, False)
        fams[f"complex D={big_d}"] = _random_family(50 + big_d, big_d, True)
    # transfer entries beyond LAPACK's geev scaling limits, about 1.5e138 and 6.7e-139
    fams["I g=1e150"] = models.model_I(1e150)
    fams["I g=1e70"] = models.model_I(1e70)
    tiny = models.model_I(0.7)
    fams["I g=0.7 x 1e-75"] = MpsFamily(d=3, D=3, labels=tiny.labels, matrices={k: 1e-75 * m for k, m in tiny.matrices.items()})
    fams["complex D=2 x 1e72"] = MpsFamily(
        d=3, D=2, labels=spin.LABELS, matrices={k: 1e72 * m for k, m in _random_family(52, 2, True).matrices.items()}
    )
    rot = np.array([[cos(1.0), -sin(1.0)], [sin(1.0), cos(1.0)]])
    fams["rotation"] = MpsFamily(d=1, D=2, labels=("x",), matrices={"x": rot})
    fams["nilpotent"] = MpsFamily(d=1, D=2, labels=("x",), matrices={"x": np.array([[0.0, 1.0], [0.0, 0.0]])})
    return fams


FAMILIES = _families()
BEYOND_GEEV = ["I g=1e150", "I g=1e70", "I g=0.7 x 1e-75", "complex D=2 x 1e72"]


def _observables(d: int) -> list[spin.SpinObservable]:
    if d == 3:
        return [spin.sz(), spin.sx(), spin.sz2(), spin.sx2(), spin.SpinObservable("S_y", spin.SY)]
    return [spin.identity(d), spin.SpinObservable("2", 2.0 * np.eye(d))]


def _text(value) -> str:
    if isinstance(value, Exception):
        return f"{type(value).__name__}: {value}"
    if isinstance(value, list):
        return "[" + ", ".join(_text(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str} {value.shape} {value.tobytes().hex()}"
    if isinstance(value, complex):
        return f"complex({value.real.hex()}, {value.imag.hex()})"
    if isinstance(value, float):
        return value.hex()
    return repr(value)


def _answer(call) -> str:
    try:
        return _text(call())
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return _text(exc)


def _ring_queries(s: TransferSpectrum, obs: list) -> list:
    o1, o2 = obs[0], obs[1]
    calls = [lambda o=o, n=n: s.ring_one_point(o, n) for o in obs for n in (2, 5, 30, 400)]
    calls += [lambda a=a, b=b, n=n: s.two_point_sweep(a, b, range(1, 13), n)
              for a, b in ((o1, o1), (o1, o2), (o2, obs[-1])) for n in (13, 30, 400)]
    calls += [lambda: s.two_point_sweep(o1, o1, [3], 7)[0], lambda: s.two_point_sweep(o1, o2, [0], 7)[0],
              lambda: s.ring_one_point(o1, 1), lambda: s.ring_one_point(spin.identity(s.mps.d + 1), 6)]
    return calls


def _thermo_queries(s: TransferSpectrum, obs: list) -> list:
    o1, o2 = obs[0], obs[1]
    calls = [lambda o=o: s.thermo_one_point(o) for o in obs]
    calls += [lambda a=a, b=b: s.two_point_sweep(a, b, range(1, 13))
              for a, b in ((o1, o1), (o1, o2), (o2, obs[-1]))]
    calls += [lambda r=r: s.two_point_sweep(o2, o2, [r])[0] for r in (1, 4, 9)]
    calls += [lambda: s.two_point_sweep(o1, o1, [0])[0], lambda: s.thermo_one_point(spin.identity(s.mps.d + 1))]
    return calls


def _pieces(s: TransferSpectrum, obs: list) -> list:
    calls = [lambda: s.e, lambda: s.rho]
    calls += [lambda o=o: s.dressed(o) for o in obs]
    calls.append(lambda: [x for pair in s.projectors for x in pair])
    return calls


def _record(fam: MpsFamily, order: str) -> str:
    s = TransferSpectrum(fam)
    obs = _observables(fam.d)
    first, second = (_ring_queries, _thermo_queries) if order == "ring" else (_thermo_queries, _ring_queries)
    calls = first(s, obs) + second(s, obs) + _pieces(s, obs)
    return "\n".join(_answer(c) for c in calls)


def _module_record(fam: MpsFamily) -> str:
    o1, o2 = _observables(fam.d)[:2]
    calls = [
        lambda: mps.ring_one_point(fam, o2, 30),
        lambda: mps.ring_two_point(fam, o1, o2, 3, 30),
        lambda: mps.thermo_one_point(fam, o2),
        lambda: mps.thermo_two_point(fam, o1, o1, 3),
        lambda: mps.thermo_two_point(fam, o1, o2, 1),
    ]
    return "\n".join(_answer(c) for c in calls)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


#: The sha256 of each record, recorded before the ring norm was deleted, with these queries.  The
#: ring and thermo records of the BEYOND_GEEV families were re-derived when the projectors took each
#: eigenvalue as the matrix's own, tr(P E) / tr(P) (linalg._projectors); only their projector line moved.
PINS = {
    "I g=0.0 ring": "118d2930c385f54abeb91348c00f6a2629c9547c0b0fd5695b7e0fc42e1de4c4",
    "I g=0.0 thermo": "8dbf1408db3ae7ebecd4d4a2cdab5c3e886e8baabe96953a4228bb01532ac4f7",
    "I g=0.0 module": "8cfcfd777393099475ff1dab804626ae699b5dc039bc69cd7e02723b1608d264",
    "I g=0.1 ring": "aec2a350ceb8ac92d1bb24c70397872ded15e917d35b48aa3ad45663ba36b144",
    "I g=0.1 thermo": "9de63911b990f313fc723822fbd4b36954d2f7ce57314f8a31614203a6953aaf",
    "I g=0.1 module": "c4c6c41716e459512d36af556ec212e00c6bb4e96ddaaea41947255aa2ba47b2",
    "I g=0.5 ring": "dcf32f62157a5dee970a288ec6dfc4d47fd5e1ee380eb8929583cbe18de054da",
    "I g=0.5 thermo": "f9ac4f6f9c8f36d353db55e69460bb3c3e0cd9c6b2a5b0eaab801a0604466876",
    "I g=0.5 module": "09dcc1803ca40d743eb7e06089c6055f1ce93c848133b2682a4fee21ead4306a",
    "I g=0.8 ring": "c0e396df1ff179e733c62d984231a78d6df4651daa17ea242724d88ea7144a3a",
    "I g=0.8 thermo": "53bec66dacafdede653d860eb84cd2a7ba8b4416f0f796ed89d0dfd24e2416df",
    "I g=0.8 module": "d258bc6d742ed51d119857077baed4205cb39c1761981e242898a7c49a78e38a",
    "I g=1.0 ring": "909e4de5f1fee139cb76a976a1196cc9a5c9a39fa1a7865671b186cf84a9be94",
    "I g=1.0 thermo": "c9d50ae9ac454f65021d4266108198ef5c53983ae5404f93413f2e6029811d75",
    "I g=1.0 module": "0571c96be925d6309d20e63714f9f7e8637a914309305c77e502f967881f8554",
    "I g=1.7 ring": "287464607c4be68aae4a7cc2f81a0effc35de1164e607e1c77fb0689409720a5",
    "I g=1.7 thermo": "347ca245b96910681167a4f7bd6016b9498dc1d89be12016fcc177ac03538c56",
    "I g=1.7 module": "e35fa8b2896cd0afccb764ac2b923ddc53cca70f9d6a8385b2e48052ee9ea78a",
    "I g=3.0 ring": "69d3f294ea0020ee8c51aa17e8ce2f082d3ba06e0701fe90368c4f2a58c0ce02",
    "I g=3.0 thermo": "0e7f744fdd7bddfb7764c49bea4e8bda0d8ce0e68bd2b27b5a1e923ac716a89f",
    "I g=3.0 module": "a70dbc5ec429e9a3d7dbbece5f5c2582014d735b9c10b90ae7b1f1a4a9fcf410",
    "II g=0.0 ring": "118d2930c385f54abeb91348c00f6a2629c9547c0b0fd5695b7e0fc42e1de4c4",
    "II g=0.0 thermo": "8dbf1408db3ae7ebecd4d4a2cdab5c3e886e8baabe96953a4228bb01532ac4f7",
    "II g=0.0 module": "8cfcfd777393099475ff1dab804626ae699b5dc039bc69cd7e02723b1608d264",
    "II g=0.1 ring": "65496e5a12520207d018c277366229992bb7c715df1de3d0660ad7993465b572",
    "II g=0.1 thermo": "89cdba56d62e4a62f32a13d30f92e795191c0328300f69d74df340e083248387",
    "II g=0.1 module": "a852a044fa473a61640aa535ca3105a9ff66e5aabf14344ed351f5cb4e8dcb6d",
    "II g=0.5 ring": "422e01e2d2852269a899202b4cab40b689a8a10f24ab0d472c32ae249022c9e4",
    "II g=0.5 thermo": "a5150afea7cd5fcb1e8140e150dcc73ecd7f34be2293c48e256f59dd2a7ad05f",
    "II g=0.5 module": "21151636981fac76f198c365e82798a5540a9ec89f012b35fc157aeb5c322aa6",
    "II g=1.0 ring": "c29f859574203558eb32e3f720dc943382c49351e62c5f591c03df293e66e256",
    "II g=1.0 thermo": "3849ea54fe27eb08ea4a920a922bc2a59ee35e5f4c3bc24bab3ac4156a98ab5c",
    "II g=1.0 module": "b5987f3b503e1beace04f1cfc6594b4cb6793a69586903be747396966caa6c4c",
    "II g=1.3 ring": "f4d38738b856fcc64b80146bc6b2a238b02d77f7999543cd42948373ff4413fe",
    "II g=1.3 thermo": "ca907358b191c737602c55d5f43dd4cb526161065c7ddce3e88a318c6877a78f",
    "II g=1.3 module": "56c474fb65236120250ee00d7e9efde103b40b896b75fe05cd219e598596557f",
    "II g=3.0 ring": "8a49cdd8e4c82e9d2b62fbabb1e74710926e3926c80f08bca788c51b06479fb2",
    "II g=3.0 thermo": "9a2b03a30e04e81ca2bcdd69591b1449b666472339c5e453c656f6a7573c92b8",
    "II g=3.0 module": "5b382c684981569de81d98334683219ca898fcc5ac43fe94545b37a99f850b06",
    "aklt ring": "1b02646884df3ee5c92824c145cb665ce299d0eec16cccac678c18fd6f53b603",
    "aklt thermo": "3fad67639d6ff0ea136e7d9670eec9c05c13eb6adff94ebff613c6476f9cb892",
    "aklt module": "196a41f49831eb01cff34f84026ffe2f56932f8baf138afc43f544f86a57f524",
    "real D=1 ring": "b18d21fe6030df34e7b612f241c13360154d26a8b87a6eb465caefda465f0385",
    "real D=1 thermo": "0a65f9eafe7dfa3b83a691bb0f34461e68c9e8ffc0a6da346f3b3da99ca4dd6f",
    "real D=1 module": "3254ea9775240fb551abb747a3134018140820b436c2ec3a28026a8aa642d649",
    "complex D=1 ring": "56c7babf3725ecc903779e487da705233a9c930dadea5e9a0210b6dc98c07249",
    "complex D=1 thermo": "bf25743539de0e34af36a7534b190258370587983a9719dcb898f0d32ff8bc16",
    "complex D=1 module": "f997bd46c0411c05a2ac254015798cd46f930940a2ddc9a01738acaf01db79fe",
    "real D=2 ring": "917cb9eafcfe1bc35af15cd6480cba397af6b8227974c5e8d3fa20fdef2748dc",
    "real D=2 thermo": "c643259d5800298aeaec3d7e350069b7bda6f9db9875d2169e98561586ea6493",
    "real D=2 module": "5c9b7838336066fe1fa8a9bf8cf60912cb89ff54f79ca5e68348906484835108",
    "complex D=2 ring": "9288fd276068c2582abd6715e7af686d3e2f23c1375975182c53b63e3543b8b4",
    "complex D=2 thermo": "0682d2c888ed4b654c64637b309e4b3d3edd438fedc56ae8ac1136cce1997885",
    "complex D=2 module": "8a821398efb81a84a0e23448c9108f5693f90c5510d28887415b1deda8be0350",
    "real D=3 ring": "01edbce079e318ea466c3bf8d1e072b4a58fd6309eef8f2538c1ea919833e634",
    "real D=3 thermo": "41b7ce9af9dc0b213ab502be245045df543bfa0b8766096bd46cdf191c80301a",
    "real D=3 module": "d9959c2f05882deb48e26290a944829fab7ef0722104e57be1fe884c55b5e857",
    "complex D=3 ring": "42369c9d5db9e799261db47db305558205cb636bf8f6bfddbcb37ea6689cc06c",
    "complex D=3 thermo": "6dd7845c240a08422c145ea230d7b483d46d312b9fbd4b4836359d0eeaedd011",
    "complex D=3 module": "9be9b99f4a95dc68ba7c75af9afec8ef346c0b19d699433a031d21faf66b8167",
    "real D=4 ring": "2e079f59d2b8e25b4d735f3039c6043206946c2d553b144168b8a72471a089a6",
    "real D=4 thermo": "974bb5ab556e75701cb4a7be218be04c93e19bcb171438219a8b4c51727bc0eb",
    "real D=4 module": "502287f83fa3ea3d0e31bb7be1c87cfae1e7318b8c95ddd707c22ad54f138968",
    "complex D=4 ring": "1729f82908fabe6290682f5fdef3d2c2a42bbaac2b5fcdd69f409d46c3ef91a4",
    "complex D=4 thermo": "ba94abb0eb8ea469ab09f7593282aacc0e02b23f58e889213bae841a31d51546",
    "complex D=4 module": "5ddb294d7254dcfb259f6655b7fbef4d379446700d49f9128fb7b652a5828dea",
    "I g=1e150 ring": "045d0d28b16e6d1bed4d1f6fad84549878699638947944f348859505057f8c40",
    "I g=1e150 thermo": "4b19cb42348652d5434c1d69c3459a4b38f1ff8160eb0f692f9fdc65e4297a7f",
    "I g=1e150 module": "793504be22cb4530ce5906a196d6e841cbc0e1abaaee5f916868614f18519d00",
    "I g=1e70 ring": "bd9eb3a81938ddfb2fda9033a3ea0e11091caac08291e5dba7ab6f40212dea9b",
    "I g=1e70 thermo": "133de6d5690a97dc50257c6d2c22e5137dc8486451b6f874fd737450d05c0291",
    "I g=1e70 module": "9824e9794bd1c2c7f80eaf3e175d519c6b1598c57accf243fc72c35cc360d9fe",
    "I g=0.7 x 1e-75 ring": "9fc95b6933044ddf9d7c17939f606dfeadea3d49426dad975d3ae935cf1a5de8",
    "I g=0.7 x 1e-75 thermo": "8ac3bb12aeb391beb56dd63feee93bbd31066be62205efb2488b7665b65f60c9",
    "I g=0.7 x 1e-75 module": "0b713b5c11d880ec2460779658fab5e4776451e204a6498b60dc11310b893b4a",
    "complex D=2 x 1e72 ring": "fc34df6fe2f20b621d1be23a5672d9e6e7f528a38f94aba35f013bf58b94c86a",
    "complex D=2 x 1e72 thermo": "5f8d2d39d5437cdc9850ba99f1ddb52cb5000596b41cffc8756f9c5c3c11cfef",
    "complex D=2 x 1e72 module": "f72c258f236c104f303e6ec3dfd1be4853bddc0d54ec03d3ebfb33377a505037",
    "rotation ring": "31d26ae838183dd2f5688a9c9e6b0335eb609b95db0236b7e51e246dff283b8b",
    "rotation thermo": "6e907a94b63c08a9f38b3017e304640829a96c82572dbd9e7d428419f33694c2",
    "rotation module": "126c9f5793a63a7bf47ee2dfcbb0bd52dd2b711046d69855faad7ea88384b43e",
    "nilpotent ring": "16181ea566a90fdfc9f2c96a67a5f15b644aefd7bd0884fc198c26eeca077aa6",
    "nilpotent thermo": "0158387efcde3f0cd2715105cc70273c7495fb48a4f4c06377831c31b1af4327",
    "nilpotent module": "8992902cf969d8f66b3f0b5c5b31b7c6e21a1d81669cc8b53f32dc613a542cf2",
}


@pytest.mark.parametrize("order", ["ring", "thermo", "module"])
@pytest.mark.parametrize("name", list(FAMILIES))
def test_cold_spectrum_is_bit_identical(name, order):
    fam = FAMILIES[name]
    text = _module_record(fam) if order == "module" else _record(fam, order)
    assert _sha(text) == PINS[f"{name} {order}"]


def _radius_matrices():
    """E of every pinned family and of a zero family; E of models I and II and the general family
    over a g grid; random real and complex matrices of the sizes transfer operators take."""
    yield from (mps.transfer(fam).matrix for fam in FAMILIES.values())
    yield np.zeros((4, 4))
    rng = np.random.default_rng(23)
    for g in np.linspace(0.0, 3.0, 40):
        yield mps.transfer(models.model_I(g)).matrix
        yield mps.transfer(models.model_II(g)).matrix
        yield mps.transfer(models.general_family(*rng.uniform(-2.0, 2.0, 3))).matrix
    for n in (1, 4, 9, 16):
        for _ in range(10):
            yield rng.standard_normal((n, n))
            yield rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_rho_from_the_eigendecomposition_is_the_spectral_radius():
    # a thermodynamic query takes rho from eig_all's eigenvalues; linalg.spectral_radius takes it from eigvals
    kept = [e for e in _radius_matrices() if linalg._geev_keeps_scale(e)]
    assert len(kept) == len(FAMILIES) - len(BEYOND_GEEV) + 1 + 120 + 80
    radii = [(float(np.abs(linalg.eig_all(e)[0]).max()), linalg.spectral_radius(e)) for e in kept]
    assert all(a.hex() == b.hex() for a, b in radii)


@pytest.mark.parametrize("name", BEYOND_GEEV)
def test_beyond_geevs_scaling_limits_rho_comes_from_spectral_radius(name):
    s = TransferSpectrum(FAMILIES[name])
    assert not linalg._geev_keeps_scale(s.e)
    s._eigensystem()
    assert s.rho.hex() == linalg.spectral_radius(s.e).hex()


@pytest.mark.parametrize("name", BEYOND_GEEV)
def test_beyond_geevs_scaling_limits_the_projectors_carry_the_matrix_own_eigenvalues(name):
    # geev's labels were those of a rescaled E (1.4886e138 for model I at g = 1e70, where rho is 2.0e140);
    # TransferSpectrum and dominant_projectors both relabel through linalg._projectors
    s = TransferSpectrum(FAMILIES[name])
    labels = [lam for lam, _ in s.projectors]
    assert labels == [lam for lam, _ in linalg.dominant_projectors(s.e)]
    assert max(map(abs, labels)) == pytest.approx(s.rho, rel=1e-12)


def test_a_thermodynamic_query_first_takes_rho_from_its_eigendecomposition(monkeypatch):
    monkeypatch.setattr(linalg, "spectral_radius", None)
    s = TransferSpectrum(FAMILIES["I g=0.8"])
    s.thermo_one_point(spin.sz2())
    assert s.rho.hex() == float(np.abs(linalg.eig_all(s.e)[0]).max()).hex()
