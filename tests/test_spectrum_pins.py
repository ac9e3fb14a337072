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
    calls = [lambda n=n: s.ring_norm_sq(n) for n in (2, 7, 40, 400, 2000)]
    calls += [lambda o=o, n=n: s.ring_one_point(o, n) for o in obs for n in (2, 5, 30, 400)]
    calls += [lambda a=a, b=b, n=n: s.two_point_sweep(a, b, range(1, 13), n)
              for a, b in ((o1, o1), (o1, o2), (o2, obs[-1])) for n in (13, 30, 400)]
    calls += [lambda: s.ring_two_point(o1, o1, 3, 7), lambda: s.ring_two_point(o1, o2, 0, 7),
              lambda: s.ring_one_point(o1, 1), lambda: s.ring_one_point(spin.identity(s.mps.d + 1), 6)]
    return calls


def _thermo_queries(s: TransferSpectrum, obs: list) -> list:
    o1, o2 = obs[0], obs[1]
    calls = [lambda o=o: s.thermo_one_point(o) for o in obs]
    calls += [lambda a=a, b=b: s.two_point_sweep(a, b, range(1, 13))
              for a, b in ((o1, o1), (o1, o2), (o2, obs[-1]))]
    calls += [lambda r=r: s.thermo_two_point(o2, o2, r) for r in (1, 4, 9)]
    calls += [lambda: s.thermo_two_point(o1, o1, 0), lambda: s.thermo_one_point(spin.identity(s.mps.d + 1))]
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
        lambda: mps.ring_norm_sq(fam, 30),
        lambda: mps.ring_one_point(fam, o2, 30),
        lambda: mps.ring_two_point(fam, o1, o2, 3, 30),
        lambda: mps.thermo_one_point(fam, o2),
        lambda: mps.thermo_two_point(fam, o1, o1, 3),
        lambda: mps.thermo_two_point(fam, o1, o2, 1),
    ]
    return "\n".join(_answer(c) for c in calls)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


#: Recorded before the transfer-spectrum glue was reworked; the sha256 of each record.
PINS = {
    "I g=0.0 ring": "2ca7cab83c177513aec8e8be4640c3f04158b8504ae49e6a4cdc2202b3a3cd36",
    "I g=0.0 thermo": "a53cbbfe7ae963ede8c7ee2c9c745925e9c9cd7e751a89c4e41cddee0aa6583e",
    "I g=0.0 module": "a278febb16c77d499ce47313cdbc924b84c60cc1782c1ebe40a0aa208c9c1e71",
    "I g=0.1 ring": "a218023cea0a436ff6ea315338b20980c2c56b5574ec8719d5c9e5eca38a5ec1",
    "I g=0.1 thermo": "a22187a9552072671b057ac5b9c944489dccaa8d78a0e74bdae3b5d6a2be0cd8",
    "I g=0.1 module": "0e40e5a9e9ab0b8971a79bf936fabf03e4de2dcb12ab1ab81ecc2070973f79f6",
    "I g=0.5 ring": "7d86c82b044b4367e7a8e57b25ef890a06e0c2b6aa22f1858cd0d8cdaf3e5ec6",
    "I g=0.5 thermo": "d26be1cd69402db5a67225cb16d041b969eab1ebb76800a8eb21acd3ccb84891",
    "I g=0.5 module": "61d9520826a9edca38224231c2656d6c55c576f84e2045945580927bb342017c",
    "I g=0.8 ring": "fe81cb1abeb2ed941ca14def5588db4a9c3aafc0f99be80a5754a0cee53e9e91",
    "I g=0.8 thermo": "d96e5e839956949985c32bdd9f49d4d5240dfd8e77a33577f89de78993cb97b3",
    "I g=0.8 module": "cd9b40c17f8be7a52d6dcd5fac7fdfe1002362eb90203c6145e7d05697d75a7d",
    "I g=1.0 ring": "3f8efbc1a87a11463c62899002d584e3223f17c24d4dd577f3a8535b5e624bfd",
    "I g=1.0 thermo": "5835c420933845648e646e9f11131bb5983fc1d9aad1212d3b2660854d41b334",
    "I g=1.0 module": "19f1c191a7ac8c4e51421a644c8cfdc03476aaa2ed970f624e3c9d736bb0f036",
    "I g=1.7 ring": "83b00387597d4ce2a9d5d1f8351e7c0e1a9fb436b52d94ebdbaa6e43467e5b61",
    "I g=1.7 thermo": "96b242382ad0d715a44ede52d11c10007ffdb92dafefc45271e197bb9c70758d",
    "I g=1.7 module": "5734ccb958c6119ed263eb28ef43476a96d83cba8e9964994ecc66c73fb733d5",
    "I g=3.0 ring": "8c26bdb0028001cbcf7c12a3416d53054a5eaba6de794dcd3d9abc20bdb543cc",
    "I g=3.0 thermo": "50c0818af164152e4f1ab94bd438ded49599ed3e957d8d41ba860776fd226070",
    "I g=3.0 module": "c85c6606848971bffb60d127193d3e2501b598864bf97305118553fa15ff8964",
    "II g=0.0 ring": "2ca7cab83c177513aec8e8be4640c3f04158b8504ae49e6a4cdc2202b3a3cd36",
    "II g=0.0 thermo": "a53cbbfe7ae963ede8c7ee2c9c745925e9c9cd7e751a89c4e41cddee0aa6583e",
    "II g=0.0 module": "a278febb16c77d499ce47313cdbc924b84c60cc1782c1ebe40a0aa208c9c1e71",
    "II g=0.1 ring": "45813abe44f7db3009105cac0eb9bf034ddcf95da5d99038eedf2dd31a26e3b5",
    "II g=0.1 thermo": "aedf3ed95ed72c85d67fcd377ec094dddfe21c2566445d91a7d7067ce233625a",
    "II g=0.1 module": "e88b70dc27ffadbeaf25df88d8453b1bd64698bb04412bacf81dc4aeeb82e5db",
    "II g=0.5 ring": "46a5de35bf133512f6d351ab31f6402cffbe9e8df3d0ca6e6b6daf963c1b7c56",
    "II g=0.5 thermo": "deabbdaf675cf3db3782d170d4576fed535b65d7ac7ebccfc8abdf6c592aabba",
    "II g=0.5 module": "bc69f0e09b3c2fde54a2e37186bc3c2060806cf8677b8d7994bf6b0ba3b2451b",
    "II g=1.0 ring": "ce24ff07edc69bd3a1a501640f4112f351279d2b763db4cda6bb5f25b8c8d12c",
    "II g=1.0 thermo": "970f13c746a3b4863630ae70c1934ef3b2bc2f0917e155a24f2c6a7ab77d86b0",
    "II g=1.0 module": "aac8a0c5ebdc50761019cbf182ab82083692e8d54b1f8566571e2f6c1c66ea37",
    "II g=1.3 ring": "3c90ee9b7a75554e3fcd96e17d001747c913ab2ea2ab928fbf62aa70795de443",
    "II g=1.3 thermo": "3146949e83739cd634429568c782b551b0ee36cdfb22aae76e30c7c9d35156f1",
    "II g=1.3 module": "bc58f9466ec300cf339a60066144716d15b4fa4fcc21f5f6baf77fa543ca11e6",
    "II g=3.0 ring": "85903efd34718bb77c187f4d82c6764e16d32db5e590857e27a04ac35801d347",
    "II g=3.0 thermo": "73aab42e39c675a202c766e03bdb19b47bfbea1b13a9a0a57648620027601992",
    "II g=3.0 module": "92703230fae9bcbc666091ca74aba592cc4de11aff3c6fbab6f3a96bc93b5ad0",
    "aklt ring": "e5bd0c4e012ffb53d5d03f0c08b401ebf9ecf67c5038622bf751b3bcd86f28df",
    "aklt thermo": "dc068a6ad2b6402b61fec6060158f85fe87e11408fad5ab440d1afa7ebb55205",
    "aklt module": "e5a4b5636afe275eb7a626b0b0f826b3e653b9b8986eb4c6ab6a100fdeec889a",
    "real D=1 ring": "a8b2ddfca89cecd7aeacd04d78fb6f80fc3fb9c502d784180771dbb25bd8bf51",
    "real D=1 thermo": "147dceb5d0a973051d2e176c00c597a6c425ecc033354093a216a99fb2714bc2",
    "real D=1 module": "be7f0ae446695ef5a29c9004d5e6e3cd6c4801e00e6e488d31f565e3be63f804",
    "complex D=1 ring": "44fecfb1e202fcd8ff01ca8df38ba4b3a9df0aadc5f6468420703d9eb8457f58",
    "complex D=1 thermo": "49c331fd26aff7c9a1163393f7f5c30af8149468d7aa65bfaca0da4cc7149af0",
    "complex D=1 module": "c7575b977c66b71d0abc0e07ac9b15c88e5eb3ff4b3d21063f74d83653f33ff9",
    "real D=2 ring": "58879581609f6fb27133b6ec5b093c039de4708f829d9242ccf1d763f2fce0df",
    "real D=2 thermo": "c0781356712771d944faeae31c96009c68bbb71a559300a158f18fdbcc9e18c8",
    "real D=2 module": "6a11de9ed5b439b9dd52732c5b97868b44c5c7712044383ef3b59e87ded0943b",
    "complex D=2 ring": "dc90dd2a80aad017162f43bf157c23d501d16e5e3af9fa5a4a4be604c5ac6145",
    "complex D=2 thermo": "f7cd6374279c58061fe6f7ecf3d8b079eabc3d84c53eab2b48fd523017cb1858",
    "complex D=2 module": "7761403e8653161a98449f942ffaba2a63d02b7fd0787dc26a48ebea63bcac2c",
    "real D=3 ring": "ae49ea546e892049c35b0ea76408acac52e727abd09902b461b57bc26bf18d91",
    "real D=3 thermo": "ee1ee8617079d09f024ab6c7eaab1c4ff403d68eec9f663c42bb13b6d98ebd68",
    "real D=3 module": "a576ae0f11dc6225d0ba3b845872d6eb8d4aee3a1fe01de868790b0045e9382d",
    "complex D=3 ring": "e156fc08314b22ad47f8b8efcde483f7e46437b3f3b198dfaf0fbfabce0ffed0",
    "complex D=3 thermo": "f660fc78105407dddb500f6d05d5103d2c582ed44dfebb70a58d9d9dd2f60248",
    "complex D=3 module": "d4d8a90150af4bd7d0e285a519671a9960e439c753afed257016da1f9f25826c",
    "real D=4 ring": "150199f16882073e01046727636a1c483b1f53e990a43a6963a3a63541317b59",
    "real D=4 thermo": "8eae1a96c74a8caeacaaf0b502e7f9c9702021f6d34ffe9d0cde5644ebbfdcb5",
    "real D=4 module": "278ebd0cc49037e6b21d8939261546b8a70428e732825645896e638853d45d98",
    "complex D=4 ring": "e0591152ba92d0b3c2abeba73c4336812ac70b06323ada49d8cd4325321b3473",
    "complex D=4 thermo": "2c2e9b01591225c99bdda59f0e5130b7a3b690cab7c05225afc5a2fd831aa54a",
    "complex D=4 module": "38761faf15c2f831b0c25a51f6bde7e380cfed49beffb1d25ecede48e6cb2c24",
    "I g=1e150 ring": "aec0fae56719145b26c301ee08a6f910a650c34658bdd18961a0185d4907e8b9",
    "I g=1e150 thermo": "7d3bca8a9853d240f5ac9466fae0322e5ce80b00a8ce62f34a0f14e7e04fabe2",
    "I g=1e150 module": "d11d1f9869d7903d44b49911a40d06114f952f9aa6db2d746ecc573483c252aa",
    "I g=1e70 ring": "4b72bc98d98193f42f1be69091ef176509c2a4bfafe9ce6be823da75afe7ff4d",
    "I g=1e70 thermo": "2b31685989cd053aab1087ad1407809b18442ae224acabb0f146e76d5a223ce3",
    "I g=1e70 module": "71f25a1380ed2ecdb0bb52e7ecbe388caf40f198ef5948dce801404be55dd0b2",
    "I g=0.7 x 1e-75 ring": "b50697bb86667ea3c934da281f836bc242cf0ad790ec9f701af3d6a596d2ca39",
    "I g=0.7 x 1e-75 thermo": "2d3a075bab08032a31a534f353f3d56570e5e513c97131be6aa02fd290668d62",
    "I g=0.7 x 1e-75 module": "0c04c73b8c0e25310a76112b583d53cb629d107419eb1f3868dd73077d8af972",
    "complex D=2 x 1e72 ring": "5fdfcf829a1e103f1be17136e59595f7e5874f9d41de8624745813de42652424",
    "complex D=2 x 1e72 thermo": "797ab9f36a56fb6bcb57de5791b8609090569964f4e5bce80f89c32bfd204d36",
    "complex D=2 x 1e72 module": "f0d3f1af2e971232501e13190f4d779ae04cb7ed2b447e54383595f39e68e017",
    "rotation ring": "0463eb37438d15b73bb09cbf44fc398fda750606becefae4cbda9547ff876078",
    "rotation thermo": "4e0b879d2475fcd1a803de6cafdf033deeaafbfc2da5c2641717c0e25eee0aa6",
    "rotation module": "0955f2005017cbb98c055fff80eac8db3f8217dae66cc409bd45524b87a507a9",
    "nilpotent ring": "c93afd52bd298afad97318eb89afdcdf51f6ae448239b94351c7310824112373",
    "nilpotent thermo": "4e60b997286e89c338230aca0ee04582d14fb7f91cd9369ff244a66b8fb13bc1",
    "nilpotent module": "727eb37e5159b7995a1470036f0abe8d732499400b299279c7419b151c20b548",
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
    radii = [(linalg._largest_modulus(linalg.eig_all(e)[0]), linalg.spectral_radius(e)) for e in kept]
    assert all(a.hex() == b.hex() for a, b in radii)


@pytest.mark.parametrize("name", BEYOND_GEEV)
def test_beyond_geevs_scaling_limits_rho_comes_from_spectral_radius(name):
    s = TransferSpectrum(FAMILIES[name])
    assert not linalg._geev_keeps_scale(s.e)
    s._eigensystem()
    assert s.rho.hex() == linalg.spectral_radius(s.e).hex()


def test_a_thermodynamic_query_first_takes_rho_from_its_eigendecomposition(monkeypatch):
    monkeypatch.setattr(linalg, "spectral_radius", None)
    s = TransferSpectrum(FAMILIES["I g=0.8"])
    s.thermo_one_point(spin.sz2())
    assert s.rho.hex() == linalg._largest_modulus(linalg.eig_all(s.e)[0]).hex()
