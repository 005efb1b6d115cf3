"""The README's bianchi, e2 and pde commands, run twice through cli.main in
fresh directories with every warning an error: the two trees must be
byte-identical, and each file must have its sha256 in PINS.

The `pde verify` of the torus metric reads the one-node x, y, z axes as
`bianchi solve` wrote them, and the y-invariant leaf chain (spec2 ...
ver2) is the shape of the pde-sweep leaf. PINS is the one table of these
digests, with numpy 2.4.6: CI runs the same commands as `python -m
keflow.cli` subprocesses and checks its tree against the table, which
`python tests/test_readme_pins.py` prints in `sha256sum -c` form. A change
that moves a pinned byte re-pins it here and says why in CHANGES.md.
"""

import hashlib
import sys
import warnings

from keflow.cli import main

COMMANDS = [
    "--out-dir runs/euc bianchi solve --case euclidean --k 1.2 --w3 0.8 "
    "--alpha 0.3 --t-start 1.0 --t-end 2.0",
    "--out-dir runs/torus bianchi solve --case torus --alpha-eq-ab --a0 0.8 "
    "--b0 0.75 --t-start 0.1 --t-end 1.0",
    "--out-dir runs/shoot e2 shoot --q 1.0 --eps 1e-5 --b-max 100",
    "--out-dir runs/diag e2 diagnose runs/shoot/e2_trajectory.csv",
    "--out-dir runs/bolt e2 bolt runs/shoot/e2_trajectory.csv",
    "--out-dir runs/spec pde leaf-build --h-expr x --domain 0,1,1,2 --n 257",
    "--out-dir runs/prof pde profile --spec runs/spec/leafspec.json "
    "--step 0.02 --nx 25 --ny 27 --y-start 1.1",
    "--out-dir runs/met pde construct --profile runs/prof/cprofile.json",
    "--out-dir runs/ver pde verify --metric runs/met/metric.json "
    "--form runs/met/kahler.json --lam 0",
    "--out-dir runs/torver pde verify --metric runs/torus/torus_metric.json "
    "--lam 0",
    "--out-dir runs/spec2 pde leaf-build --h-expr -0.5*x --ell-axis x "
    "--domain 1,2,0,1 --n 65",
    "--out-dir runs/prof2 pde profile --spec runs/spec2/leafspec.json",
    "--out-dir runs/met2 pde construct --profile runs/prof2/cprofile.json",
    "--out-dir runs/ver2 pde verify --metric runs/met2/metric.json "
    "--form runs/met2/kahler.json --lam 0",
]

PINS = {
    "runs/euc/bianchi_report.json":
        "93974c9f42255864a91e3cf25b87fd057f90b84279152b4d86be9b03e539e4f0",
    "runs/euc/manifest.json":
        "015e9fff4a08c81d5a3879e6a4f98519f36d3b9602589c34bac40faf16658caa",
    "runs/euc/trajectory.csv":
        "43b85115668e4ed7a40b5e639d3f26d0786726605e268a827335ab7ff5fd4478",
    "runs/torus/bianchi_report.json":
        "ac5df151e951ca34f8749517a036689d13f5cd3d7e9e81423d7e38e6354bc963",
    "runs/torus/manifest.json":
        "58d960ff43a6f93209ee9265e5802ffafd1f0bc9165fff16a41cecc6c5b9a5c5",
    "runs/torus/torus_metric.json":
        "5fd39e3b26c5a25a58bd3dcaa617924bededd6aa842d75884798eea90552e38b",
    "runs/torus/trajectory.csv":
        "b50ca839e02471556d3a0f742848c765db64dcda76680840ebf48ac0620dab83",
    "runs/torver/manifest.json":
        "634167529be9905c9d0099e6b775bdfc06280074d67003dd5381608fc201d257",
    "runs/torver/verify_report.json":
        "95d4c3629b2e121365d33c41e7cb9d1b176b752fe1e03afcad0b01a5a3321ad5",
    "runs/shoot/e2_diagnostics.json":
        "abfe2e8e749859cae90aa555f0d53d28d72198f3ebaf8227f665633030314d26",
    "runs/shoot/e2_trajectory.csv":
        "69469dca7ed7acb14c994a7aba1f5f8136e45960baba86126eaeb17d36000cf1",
    "runs/shoot/manifest.json":
        "05a314a163a5de2bedb9236ba0892401a1a9eb4a3e601c02b167db0a379c1988",
    "runs/diag/e2_diagnostics.json":
        "90b1e29ffd540b94e4abb913214bcf37f01dfdf45f09a04f66cab8d215df126d",
    "runs/diag/manifest.json":
        "1e94f47285a2534a896ec6390b32c4405b8e90f5920132d1681a4620d8af70d3",
    "runs/bolt/bolt_profile.csv":
        "f267f6826c1c47ef5fb1036315eab8cb3df107ec45de204bc132ff8a5243193c",
    "runs/bolt/bolt_report.json":
        "281ccd264db3b9501a582c1b38cde2314ebcba79604daabe9d43e878cd9b8826",
    "runs/bolt/manifest.json":
        "acf2f9554da19b1cbf82e1e8f90a6a282972694adbb1f63a7c276e486c46ccc3",
    "runs/spec/leaf_report.json":
        "36e15668c3d0eaf3c46e4fc78a3035778441fe9b3f262019631518d56ac417ea",
    "runs/spec/leafspec.json":
        "d840a89f283d02350310fa3dcb5fb74ac481732e276b2b6d8e1b901ac6147707",
    "runs/spec/manifest.json":
        "af373fbddb3498fcf5c3f162f790db919ce75d5ed612f2357d344000bdf80781",
    "runs/prof/cprofile.json":
        "39f74f9ecccad5be0ff8d534aaf4b2c52d092bc742b4ae436a40dcafc305cc9c",
    "runs/prof/manifest.json":
        "af4d8839e74330c428b56a1d5f635fdb5fad3fd3f49c4b82374c8b276c81cf79",
    "runs/prof/profile_report.json":
        "23dd5f8c9fee1687592b7132837dba24c70ecce363c92d5b35669499305435bd",
    "runs/met/construct_report.json":
        "34d6f4f7977fb6121d9c758189e65f8e7c8b00e84f6ba8a9ffbc8c5ae8a9e3d8",
    "runs/met/kahler.json":
        "c9bae8441f2a8445ef9b82ce91e14dd1129890fac4555f73cd1c235f98342a7a",
    "runs/met/manifest.json":
        "61a951538f5defe6d420af0a2a293bace85aeed3529d601afe266def1ceb71aa",
    "runs/met/metric.json":
        "66bea16da249c9aabf1b2f1979109dbfe144decabd07f479e8a8563f90d4c6d5",
    "runs/ver/manifest.json":
        "4cebe70e6993b8a4e9706ee71d0254028f637d18f3716d9ed3da48476eb62b3a",
    "runs/ver/verify_report.json":
        "0af9aff388e4ec6dd8ca507f191bd79abaa1a43d5777aca3ed4496f7f095e16f",
    "runs/spec2/leaf_report.json":
        "a2a599aa68c81f52bc952e0a1226cf5ae44f60d592d81a18ba2b626eb4940639",
    "runs/spec2/leafspec.json":
        "a9d41e669c3bdf6bc6a0dd18ad9818971d9c3a53d86643f2e80ee3e3a37d13eb",
    "runs/spec2/manifest.json":
        "0a3a3f8cfe69788fb84558feb7b5a73701f1da847342face0f36921a66ef3b61",
    "runs/prof2/cprofile.json":
        "dcaceab5df0504215b4035704b03800fb74790b33d02744b21a8eb81d555fcd9",
    "runs/prof2/manifest.json":
        "1b53cd2e34e7008957699c5bbaa5cc0c7ef82a6bb47cd41d6a48b9618f15105f",
    "runs/prof2/profile_report.json":
        "9a9abcee2f829a6f0661e41711fb4a5c399f9bef2545d19bde110735fe7bcd04",
    "runs/met2/construct_report.json":
        "2acee74b4d52c3bad7bf4c4f9fd82135a4c3ddc23d83d2054a70b7155715ed56",
    "runs/met2/kahler.json":
        "7a68989b62ebdffea8dcedacbbe161e8771ab188924aa407a1930985c92c2a72",
    "runs/met2/manifest.json":
        "725ae1822faa5e2c67fb69f2b34523f2311cf5cab2992701876dfc25d3a83622",
    "runs/met2/metric.json":
        "32e3444cf8a10994aa70264d08eceb179ce0f1c0fcfc84d590cd0c4d5c4dcf2e",
    "runs/ver2/manifest.json":
        "8986506de431250b61316e41e9b57e4e0d46206ab9dcc8a130f055c4c510d942",
    "runs/ver2/verify_report.json":
        "5a2f633c99064d2dc10ad0bc474b2438616ced22a2567a2188f8a9f95c38c637",
}


def _run(root, monkeypatch):
    """The files COMMANDS write in the new directory root, as
    {relative path: bytes}."""
    root.mkdir()
    monkeypatch.chdir(root)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in COMMANDS:
            assert main(command.split()) == 0, command
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


def test_readme_commands_rerun_byte_for_byte(tmp_path, monkeypatch):
    first = _run(tmp_path / "first", monkeypatch)
    second = _run(tmp_path / "second", monkeypatch)
    assert sorted(first) == sorted(second) == sorted(PINS)
    assert [path for path in first if first[path] != second[path]] == []
    digests = {path: hashlib.sha256(data).hexdigest()
               for path, data in first.items()}
    assert {path: d for path, d in digests.items() if d != PINS[path]} == {}


if __name__ == "__main__":
    sys.stdout.write("".join(f"{digest}  {path}\n"
                             for path, digest in PINS.items()))
