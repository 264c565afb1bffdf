"""Byte pins of the per-lane iterative kernels.

Each case runs one kernel, or one projection's raw ``fwd``/``inv`` (the
radian / unit-radius functions a ``CRS`` installs), whose result comes
from a per-lane fixed-point loop, and pins the sha256 of its output
bytes.  The inputs are a seeded grid plus NaN and +-inf lanes, pole
and origin lanes, and far out-of-domain lanes, some of which stop at
the iteration cap.  The round-trip tests check these kernels only
within tolerances; these pins hold every bit.

Print the digests of a checkout (to compare two checkouts, run it in
each):

    python tests/test_iteration_pins.py
"""

import hashlib
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from proj_ray.crs import CRS  # noqa: E402
from proj_ray.kernels import common as C  # noqa: E402
from proj_ray.kernels.geocent import geocentric_to_geodetic  # noqa: E402
from proj_ray.kernels.projections16 import inv_mdist, mdist_ini  # noqa: E402

_ES = 0.0066943799901413165  # WGS84
_SPECIAL = np.array([0.0, 0.5, -0.5, C.HALFPI, -C.HALFPI, C.HALFPI - 1e-9,
                     -C.HALFPI + 1e-9, C.PI, -C.PI, 3.0, -3.0, 10.0, -10.0,
                     1e6, np.nan, np.inf, -np.inf])


def _lam_phi(n=400):
    """Seeded (lam, phi) grid, then every pair of the special values."""
    rng = np.random.default_rng(7)
    lam = rng.uniform(-C.PI, C.PI, n)
    phi = rng.uniform(-C.HALFPI, C.HALFPI, n)
    sl, sp = np.meshgrid(_SPECIAL, _SPECIAL)
    return np.concatenate([lam, sl.ravel()]), np.concatenate([phi, sp.ravel()])


def _x_y(crs):
    """The projected seeded grid, a wide seeded box, and every pair of the
    special values (unit radius, as the raw ``inv`` takes them)."""
    rng = np.random.default_rng(301)
    lam, phi = _lam_phi()
    x, y = crs.fwd(lam, phi)
    box = rng.uniform(-4.0, 4.0, (2, 300))
    sx, sy = np.meshgrid(_SPECIAL, _SPECIAL)
    return (np.concatenate([x, box[0], sx.ravel()]),
            np.concatenate([y, box[1], sy.ravel()]))


def _wide_phi():
    """One longitude, latitudes far past the poles."""
    phi = np.linspace(-50.0, 50.0, 2001)
    return np.full_like(phi, 0.3), phi


def _raw(defn, direction, lam_phi=_lam_phi):
    def run():
        crs = CRS(defn)
        if direction == "fwd":
            return crs.fwd(*lam_phi())
        return crs.inv(*_x_y(crs))
    return run


def _phi2(e):
    def run():
        ts = np.concatenate([np.random.default_rng(7).uniform(0.0, 5.0, 400),
                             np.exp(-_SPECIAL), -np.abs(_SPECIAL)])
        return (C.phi2(ts, e),)
    return run


def _meridian_inverse(es):
    def run():
        arg = np.concatenate([np.random.default_rng(7).uniform(-3.0, 3.0, 400),
                              _SPECIAL, -_SPECIAL])
        return C.inv_mlfn(arg, es, C.enfn(es)), inv_mdist(arg, mdist_ini(es))
    return run


def _geocentric(es):
    def run():
        a = 6378137.0
        rng = np.random.default_rng(7)
        r = a * np.concatenate([rng.uniform(0.9, 1.1, 400), [0.0, 1e-13, 1.0, 1.0, 1e3]])
        u = np.concatenate([rng.uniform(-C.PI, C.PI, 400), [0.0, 0.0, 0.0, 1.0, 2.0]])
        v = np.concatenate([rng.uniform(-C.HALFPI, C.HALFPI, 400),
                            [0.0, 0.3, C.HALFPI, -C.HALFPI, 0.2]])
        X = np.concatenate([r * np.cos(v) * np.cos(u), a * _SPECIAL])
        Y = np.concatenate([r * np.cos(v) * np.sin(u), a * _SPECIAL[::-1]])
        Z = np.concatenate([r * np.sin(v), np.roll(a * _SPECIAL, 5)])
        return geocentric_to_geodetic(a, es, X, Y, Z)
    return run


CASES = {
    "phi2_wgs84": _phi2(0.08181919084262149),
    "phi2_e0.99": _phi2(0.99),
    "inv_mlfn_mdist_wgs84": _meridian_inverse(_ES),
    "inv_mlfn_mdist_es0.99": _meridian_inverse(0.99),
    "geocent_wgs84": _geocentric(_ES),
    "geocent_es0.5": _geocentric(0.5),
    "merc_inv": _raw("+proj=merc +ellps=WGS84", "inv"),
    "tmerc_inv": _raw("+proj=tmerc +lat_0=20 +ellps=WGS84", "inv"),
    "stere_obliq_inv": _raw("+proj=stere +lat_0=45 +ellps=WGS84", "inv"),
    "stere_equit_inv": _raw("+proj=stere +lat_0=0 +ellps=WGS84", "inv"),
    "stere_npole_inv": _raw("+proj=stere +lat_0=90 +lat_ts=70 +ellps=WGS84", "inv"),
    "ups_south_inv": _raw("+proj=ups +south +ellps=WGS84", "inv"),
    "stere_obliq_es0.99_inv": _raw("+proj=stere +lat_0=45 +a=1 +es=0.99", "inv"),
    "stere_equit_es0.99_inv": _raw("+proj=stere +lat_0=0 +a=1 +es=0.99", "inv"),
    "ups_es0.99_inv": _raw("+proj=ups +a=1 +es=0.99", "inv"),
    "aea_inv": _raw("+proj=aea +lat_1=29.5 +lat_2=45.5 +ellps=WGS84", "inv"),
    "moll_fwd": _raw("+proj=moll +ellps=sphere", "fwd"),
    "wag4_fwd": _raw("+proj=wag4 +ellps=sphere", "fwd"),
    "wag5_fwd": _raw("+proj=wag5 +ellps=sphere", "fwd"),
    "mbtfps_fwd": _raw("+proj=mbtfps +ellps=sphere", "fwd"),
    "gn_sinu_fwd": _raw("+proj=gn_sinu +m=2 +n=3 +ellps=sphere", "fwd"),
    "eck6_fwd": _raw("+proj=eck6 +ellps=sphere", "fwd"),
    "sterea_inv": _raw("+proj=sterea +lat_0=52 +lon_0=5 +ellps=bessel", "inv"),
    "sterea_es0.99_inv": _raw("+proj=sterea +lat_0=52 +a=1 +es=0.99", "inv"),
    "eck4_fwd": _raw("+proj=eck4 +ellps=sphere", "fwd"),
    "poly_inv": _raw("+proj=poly +lat_0=30 +ellps=WGS84", "inv"),
    "poly_sph_inv": _raw("+proj=poly +lat_0=30 +ellps=sphere", "inv"),
    "krovak_inv": _raw("+proj=krovak +ellps=bessel", "inv"),
    "fouc_s_inv": _raw("+proj=fouc_s +n=0.5 +ellps=sphere", "inv"),
    "nell_fwd": _raw("+proj=nell +ellps=sphere", "fwd"),
    "wink2_fwd": _raw("+proj=wink2 +lat_1=50 +ellps=sphere", "fwd"),
    "boggs_fwd": _raw("+proj=boggs +ellps=sphere", "fwd"),
    "hatano_fwd": _raw("+proj=hatano +ellps=sphere", "fwd"),
    "nell_h_inv": _raw("+proj=nell_h +ellps=sphere", "inv"),
    "mbt_fps_fwd": _raw("+proj=mbt_fps +ellps=sphere", "fwd"),
    "mbtfpq_fwd": _raw("+proj=mbtfpq +ellps=sphere", "fwd"),
    "mbtfpq_wide_fwd": _raw("+proj=mbtfpq +ellps=sphere", "fwd", _wide_phi),
    "putp2_fwd": _raw("+proj=putp2 +ellps=sphere", "fwd"),
    "putp6_fwd": _raw("+proj=putp6 +ellps=sphere", "fwd"),
    "putp6p_fwd": _raw("+proj=putp6p +ellps=sphere", "fwd"),
    "somerc_inv": _raw("+proj=somerc +lat_0=46.95 +lon_0=7.44 +ellps=bessel", "inv"),
    "somerc_es0.99_inv": _raw("+proj=somerc +lat_0=46.95 +a=1 +es=0.99", "inv"),
    "alsk_inv": _raw("+proj=alsk +ellps=clrk66", "inv"),
    "gs50_inv": _raw("+proj=gs50 +ellps=clrk66", "inv"),
    "mil_os_es0.99_inv": _raw("+proj=mil_os +a=1 +es=0.99", "inv"),
    "lcca_inv": _raw("+proj=lcca +lat_0=35 +ellps=WGS84", "inv"),
    "labrd_inv": _raw("+proj=labrd +lat_0=-18.9 +lon_0=46.44 +azi=18.9 +k=0.9995 "
                      "+ellps=intl", "inv"),
    "lsat_fwd": _raw("+proj=lsat +lsat=5 +path=100 +ellps=WGS84", "fwd"),
    "lsat_inv": _raw("+proj=lsat +lsat=5 +path=100 +ellps=WGS84", "inv"),
    "rouss_inv": _raw("+proj=rouss +lat_0=49 +lon_0=-66 +ellps=clrk66", "inv"),
    "rouss_es0.99_inv": _raw("+proj=rouss +lat_0=49 +a=1 +es=0.99", "inv"),
}


def digest(name):
    with np.errstate(all="ignore"):
        out = CASES[name]()
    h = hashlib.sha256()
    for v in out:
        h.update(np.ascontiguousarray(v, dtype=np.float64).tobytes())
    return h.hexdigest()


PINS = {
    "phi2_wgs84": "d6591418449f290668d2d3db9f931f4f4a395878890414518a9e5011adcdb113",
    "phi2_e0.99": "29044959da0571313ea2c1480f2ddc1f3fc7d0b6bb0d1e6233bd9865d7cde6e3",
    "inv_mlfn_mdist_wgs84": "adfd47c6472140ec2f2ced693b5b8bb22e0caeaea54d5bdf30eb0de8faee94c6",
    "inv_mlfn_mdist_es0.99": "61e96008b52fba814e7b92741fe078bf8c7f3ba3197577bf8b618b051c32dccf",
    "geocent_wgs84": "1a2e71771ad22ad19e380bf708cb5e43f974bbf7830819ffd311e59ef68600f4",
    "geocent_es0.5": "350be2fdb7146a1836a069001f16c2b2ffd525398a3d36007c8402403b13e9ad",
    "merc_inv": "57a56edf881fb8fa213661096b6716384789eda4cca571808a36bf8fd3dea11f",
    "tmerc_inv": "f3a439b835611203cd842b7479cd450947fe43d8e48d49c412be359d0a687da6",
    "stere_obliq_inv": "b6e56150b2ae0b8d0c2cb2613401bb488e788ba6e09067720adcb4eefa58fce5",
    "stere_equit_inv": "f8f99ff4aa2bef96d1fa1bf2da5f125a9c5f68317fdf226fa98ae7d246d09d7c",
    "stere_npole_inv": "e34b1834ba7139f0d1f99885a7d358fd6053ffba7082ddb0d406daa4b8128a0e",
    "ups_south_inv": "6d8c56d587f8570c31b0a5331236b6d4d153fe5e52c89df88fa5eb65c620e4f9",
    "stere_obliq_es0.99_inv": "aa29c5d5bbe76892453e06f98e7ec73299de1c6bb328af1de05e4268a5001c82",
    "stere_equit_es0.99_inv": "a23e49ec6ede6d023c2ed4f6336c50a231b3a83047905bbdb22eff1ecab88852",
    "ups_es0.99_inv": "d536d7ea3b824cf913dbdf8756cf8e0c4a43a57f0694e098c4647183296df5df",
    "aea_inv": "4b8d4627460ea24b8cb800988fa43eb10e1f5a1a2f131d09cb242323555b6cda",
    "moll_fwd": "49105ea61c7e8302cc0644447ec7178b6300eac7fe6a081d03fe0cec701c52b1",
    "wag4_fwd": "e460bde8dd722b74d80d957a15ed62b8dbf593a72524a93ddcf32d513429b528",
    "wag5_fwd": "82794eabf6f641220c0f8984a50fb0f61dc47decdba17efc47085a97ce31aa96",
    "mbtfps_fwd": "ce48cbd95fe4fd5a11f412a5cb987c929e5a1b46958ce485033d993221d50598",
    "gn_sinu_fwd": "f10d30caa4fe554605c788f4c58d2f58e654526139ecc7bcc5be1d0e5832bc33",
    "eck6_fwd": "d6f372f037c78c3f466c67de24a1cf7e5de816a27781e02bb2d7c698e50e52f8",
    "sterea_inv": "d30a3866a46ad19919ca3d63b24fdfddb814fc6c0aa10ef26b64471b9ffff0c9",
    "sterea_es0.99_inv": "9d403f29a1e15280f2cace62cd770b316f60d78b50d5f6dd06cee60013beb02c",
    "eck4_fwd": "2bddefebfc8456812b88382a4f11fec96f2556597ac2839a239696de57d5199b",
    "poly_inv": "c6d1f2775979750e4d667729e9d270fb203f4a47700dd0465e052b050d2c345d",
    "poly_sph_inv": "019448b88cba2cc967d1bb674458269414379e1b94c989210358503116470c45",
    "krovak_inv": "8ccbe2845e3ca0cdb21d9ec4e392de2500cc98037d17458fa0eecb3f38643131",
    "fouc_s_inv": "48378046c58730109ebf1f36eb1813ca9a3ba641bb43b51a08e569b01cded5b4",
    "nell_fwd": "a88722331b42adae105746a3362c857df6f67e27885064250adc691e0a63a048",
    "wink2_fwd": "48bc698347e900dc36a23535922ae7358a898f6d8e5a8a75fc6ec2d775012f9e",
    "boggs_fwd": "b65c0a9a343fbe4d4a7cde580eab5426cf14624220a6f00b71366c3e12a6cd88",
    "hatano_fwd": "e2e98d7402dc14fdab2ad646a59d1d31ea2c43a54591d0137914a65f4b636197",
    "nell_h_inv": "3e53b1b9647f718a92be90d9be2ec804482aa2485f7b01db8fd754212c43d714",
    "mbt_fps_fwd": "bf858be85fb3200c34b9abd380c2d732a6be2aacc40528166cf7cce8e4ceae3e",
    "mbtfpq_fwd": "5c6264d240b68c6ab68b12f1c57a0b65273199fdc56511eadc6edc1282963d86",
    "mbtfpq_wide_fwd": "d3cee9614016ed0f0c667dbb2674331d0f8af583eb5b1dc16e19e987a98a6690",
    "putp2_fwd": "8803cd2ac10a2a16f489372442ae9785f04e0da12a613ebf1013e5638b261bc6",
    "putp6_fwd": "5c12869a8a768b6b50e1f6e02daa145a33887fd37607fac2ec6dd773ef56b3e1",
    "putp6p_fwd": "9daf53f45f4741624df93a4b40be3685789210327ce4773ed0ac2a9cc7b8ae19",
    "somerc_inv": "cb3515dda0d9c77b17bb01b2211728c731694153592ed5ef9cf99c3f206f7e20",
    "somerc_es0.99_inv": "a1f1500eed55f8ae4d8139863b12c3d3bdfe3e3120231ab18498cd0540dfd86b",
    "alsk_inv": "2f9fcbf3f0e054a814adb93b1d9f605c6e1c894e9e2173e65f667bec391084cf",
    "gs50_inv": "d265bab8e66083234a8fecb8f4322399581282b54dd8429c433656d8c0ea3a18",
    "mil_os_es0.99_inv": "bcd5f83ab19e470b02ba387cba349ca4391d593e3a512793aea9fc401966626a",
    "lcca_inv": "fce43d2590863170af0fb62d5cded91e8d9c22dd75b19f454920b7ca749b2dee",
    "labrd_inv": "a2b1f8312700d23087f230e2ea47f1a5280843503663b22550c1a1b91799ea3a",
    "lsat_fwd": "02e549bc20de8c6309982736ec401ab3444cc2e23204230b07437037855d1322",
    "lsat_inv": "3513264910cabe22f9c5b6ba629c256d9f2f95b2d6c743ece0ef9b8a4d345b71",
    "rouss_inv": "1a892978c15916cad3e8e64db2296f323324d0819fc465abb80ad1830f66f369",
    "rouss_es0.99_inv": "8b7837bfdc459f1528536c54798e808acf74601925d84922fbc4d935c38aa587",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_iterative_kernel_bytes(name):
    assert digest(name) == PINS[name]


if __name__ == "__main__":
    for name in CASES:
        print(f'    "{name}": "{digest(name)}",')
