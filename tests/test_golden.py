"""Golden bytes: sha256 digests of seeded reports and of CLI output.

The determinism tests elsewhere compare two runs of the same code; these
digests pin the bytes across versions.  They were recorded before the
criterion table replaced the per-theorem sweep code and must not change
while the decisions and the wire format stay the same.

Help text and argparse's own usage errors are laid out by argparse, whose
wording differs between Python versions; those cases are compared only on
the version they were recorded with.
"""

import hashlib
import json
import sys

import pytest

from elemop import (
    GeneratorConfig,
    Matrix,
    search_converse_failures,
    sweep_fong_sourour_exhaustive,
    sweep_thm,
    sweep_thm21_exhaustive,
)
from elemop.cli import main
from elemop.jsonio import dumps, matrix_to_obj

SHIFT_PAIR = (Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]]))
FAMILY_PAIR = (
    Matrix([[1, 2, 1], [3, 0, 1], [0, 0, 3]]),
    Matrix([[1, 2, 0], [3, 0, 0], [0, 0, 3]]),
)
ARGPARSE_VERSION = (3, 11)


def _config(dim, gaussian, seed, bound=3):
    return GeneratorConfig(dim=dim, entry_bound=bound, seed=seed, gaussian=gaussian)


def _library_cases():
    cases = {}
    for dim, trials, bound in ((2, 30, 1), (3, 4, 3)):
        for gaussian in (False, True):
            tag = f"d{dim}{'c' if gaussian else 'q'}"
            for theorem in ("2.2", "2.3", "1.1"):
                cases[f"sweep:{theorem}:{tag}"] = (
                    sweep_thm, theorem, _config(dim, gaussian, 2, bound), trials
                )
            seeds = [FAMILY_PAIR] if dim == 3 else [SHIFT_PAIR]
            for target in ("2.2", "2.3", "2.1-ext"):
                cases[f"search:{target}:{tag}"] = (
                    search_converse_failures, target, _config(dim, gaussian, 5, bound),
                    trials, seeds,
                )
    cases["exhaustive:2.1"] = (sweep_thm21_exhaustive, (0, 1))
    cases["exhaustive:1.1"] = (sweep_fong_sourour_exhaustive, (0, 1))
    return cases


def _arg(m):
    return json.dumps(matrix_to_obj(m))


_N = FAMILY_PAIR[0] - FAMILY_PAIR[1]
_J2, _I2 = SHIFT_PAIR[0], Matrix.identity(2)

CLI_CASES = {
    "check:2.1": ["check", "--theorem", "2.1", "--a", _arg(_J2), "--b", _arg(_I2)],
    "check:2.1:two-a": [
        "check", "--theorem", "2.1", "--a", _arg(_J2), _arg(_J2), "--b", _arg(_I2),
    ],
    "check:2.2": [
        "check", "--theorem", "2.2", "--a", _arg(_N), _arg(-FAMILY_PAIR[1]),
        "--b", _arg(FAMILY_PAIR[1]), _arg(_N),
    ],
    "check:2.3": [
        "check", "--theorem", "2.3", "--a", _arg(FAMILY_PAIR[0]), "--b", _arg(FAMILY_PAIR[1]),
    ],
    "check:1.1": ["check", "--theorem", "1.1", "--a", _arg(_I2 + _J2), "--b", _arg(_I2)],
    "check:1.1:no-shift": ["check", "--theorem", "1.1", "--a", _arg(_J2), "--b", _arg(_I2)],
    "sweep:2.2": ["sweep", "--theorem", "2.2", "--dim", "2", "--trials", "4", "--seed", "3"],
    "sweep:2.3": ["sweep", "--theorem", "2.3", "--dim", "2", "--trials", "4", "--gaussian"],
    "sweep:1.1": ["sweep", "--theorem", "1.1", "--dim", "2", "--trials", "4",
                  "--entry-bound", "1"],
    "search:2.1-ext": ["search", "--target", "2.1-ext", "--trials", "2", "--seed", "2"],
    "search:2.2": ["search", "--target", "2.2", "--dim", "2", "--trials", "3"],
    "search:2.3": ["search", "--target", "2.3", "--trials", "2", "--gaussian"],
    "sweep:2.2:exhaustive": ["sweep", "--theorem", "2.2", "--exhaustive"],
    "sweep:2.1:dim3": ["sweep", "--theorem", "2.1", "--dim", "3"],
    "sweep:trials0": ["sweep", "--theorem", "2.3", "--trials", "0"],
}
ARGPARSE_CASES = {
    "help:check": ["check", "--help"],
    "help:sweep": ["sweep", "--help"],
    "help:search": ["search", "--help"],
    "usage:theorem-7.7": ["sweep", "--theorem", "7.7"],
    "usage:target-1.1": ["search", "--target", "1.1"],
}

GOLDEN = {
    "sweep:2.2:d2q": "db62970cf4d0b9f53659353317e976f9dff639c1832d43f418c3926f0a7dab1f",
    "sweep:2.3:d2q": "9ca0f5e6d779a27d0b1de7966933c0fb1af02ce8d7852a91731b410508dc3735",
    "sweep:1.1:d2q": "c374e7f1d239c431411cc7d353472fb507539395aa7559ea2944e802a4befe29",
    "search:2.2:d2q": "4c5ed4c7feef03f7f03ddbf70d1eebf14b641161912edfd89633a80cf330c141",
    "search:2.3:d2q": "e72cd212b21b9b273bedf8be9bf59dbe7177844ee10b51b7a12a45a8e77dcc63",
    "search:2.1-ext:d2q": "92f632fd798d8b8c65ce68b47dba920cf0607e3c119aff926766c0d2cd9fae78",
    "sweep:2.2:d2c": "616754429e046ef15fa502fbaab8e7b9ccbdd8464c66cc6d9075b1c444d3428f",
    "sweep:2.3:d2c": "0c433952b0900bc4baee0ed39dbe8e9aa9a2475c017619a5f638af6357fc752d",
    "sweep:1.1:d2c": "57b1528e23bedd401703c514c4f2fe3bdd1d4392a5464ea3fbf0336202330f20",
    "search:2.2:d2c": "001bf081abe20fef90f65039010e7744afdca3bcbb1059ea4b3bd86693dfe6cb",
    "search:2.3:d2c": "e2998ada91ce636fbdf3e2e4b4871f6c0195a7bf1430ab0734340d1b579da8a2",
    "search:2.1-ext:d2c": "f18d518682f106de0900cb021a1f516697e0b5b119b1b2697f68e256e45306ee",
    "sweep:2.2:d3q": "aea23e80fb91c3b2225598a9e0e3f6a7f998419ca53eead1b2d3b7800e61ad22",
    "sweep:2.3:d3q": "cb8868f4154cca4c1f280ebd318ccb6ef9f1f00ba562847ede8651ea9500ebf5",
    "sweep:1.1:d3q": "ecd1ccea9e0b57d415b789152217875731f97b38c3a991df14b0263e298bcd06",
    "search:2.2:d3q": "8a3c5cf2667f70ef60dffcaeccba49cee15195e2e5e4d917a4fb9180b5b3df0b",
    "search:2.3:d3q": "4ccbac346e2548bb21a1530cd45016bbaf4e2a93a9a88f636a015732f3e13df6",
    "search:2.1-ext:d3q": "d7b544ba7cff4edf9eda70189f341a7619ff73333685b806bd632a01c55e6576",
    "sweep:2.2:d3c": "9b360f74e1742801e83722788d84ffd0c23114a1478313e68f2291ef4647b37d",
    "sweep:2.3:d3c": "d9fc43a826cfeccb41f5024bc84f8ad1ed3bb29291729c011b34a5f389322933",
    "sweep:1.1:d3c": "dc152aac07785dd04ac359ee9c405c8a8dd8fc9b4b7e86c42a3ed76a2d6a5518",
    "search:2.2:d3c": "d77ffdd41effa67e5679700f70a8e484c7de50ffbcf0a04af9f90634a8a2cc24",
    "search:2.3:d3c": "4578cbfc766f7cddda67bce064e44989a04c71f7dc6cbf1b45031ac251507e06",
    "search:2.1-ext:d3c": "2515a4dfe4de2887d3deca8151b42501150a9919f00fb9fb193ce66488ccb7d7",
    "exhaustive:2.1": "2a1c7a49cf7dfdd9ef7f1912d25e55f444ec39510013f50a3021e54aa5189fc2",
    "exhaustive:1.1": "8128d28c78e99cbe6a68887fb708172ec4da4d633923d38dec7409fb3de4d380",
    "check:2.1": "f660c3220adaf6c5ea1d3dafcc27d146bc69e19c28ec98c97499e34159a34e95",
    "check:2.1:two-a": "7a35f92ac1e5155c9ff8be86fd68aad2b3b4b4e464ac753d348261ef874e8793",
    "check:2.2": "8264979fa3a83968f9f8cb10c2dd9d8ee09dc100f6518a344f53776b5451d55a",
    "check:2.3": "566df703832d78eea71584f6e8bb0bfab3ed9d253b3bd87c9a0ba3874b42e409",
    "check:1.1": "bb5cd5139023e6f05a8279d036ffa0c221feeb2f8e7ae9e9780ea165213ad62c",
    "check:1.1:no-shift": "d939818eb26d5103c409288763ce96dbbe17e6ca1d4622d1076550ab14c99f8c",
    "sweep:2.2": "aa6a3b16fdc67337149569c2d15ecbd3e2f0493838f231d6506f04951eb0f23e",
    "sweep:2.3": "3bd8fb3390545fa8583f2550b21bc2016259faea56e307895b949729a6a3c374",
    "sweep:1.1": "c3d9fc8e8af430e5be7cfcc8d818105ced49ee722db57c394feeb1ab94bf7883",
    "search:2.1-ext": "9fa209160f772f4bddc83b9c9454ab1aa4ff1a382451abdc8573b450ea7c3555",
    "search:2.2": "1fa4fe7197eb11e0639d31990c42cd53e99203de8caaaedf06c485f633d22963",
    "search:2.3": "42e54980e44557ec59d3e5ab9014618ca292430b1cf14d025fe5fb15036e4cc5",
    "sweep:2.2:exhaustive": "a6744a49b4fe40f51315a9c622855d3c27d3591619bd92f290dbac3800e5202e",
    "sweep:2.1:dim3": "c184af41711f133600b667da1db268550dc17d0092c6c6bdff2f7b0ea3c753cd",
    "sweep:trials0": "0fcc4984ba057f8bd26d0bc5e0d3a7e3d4f237682c8c20ad9991afbb453fb970",
    "help:check": "70145aac21c485c147405d5e3ca8f4e7d8bedfd7f72fdee645fed6f634e36972",
    "help:sweep": "209c11d8bf4ce79626e25acef1960d26b97b509de5df5c604ba5e9ff2f19ea57",
    "help:search": "3516d431b0c02283b434ae5f75ff73aa50ae46e805100109f00dd12492dbf50f",
    "usage:theorem-7.7": "0f9df924946ae732c0b037d930721809ba293bf65bbc6f78dd48253d4bd004e2",
    "usage:target-1.1": "c5dccb822912a40d4c7bc7233666e10bd0f15e16c66663933a2898856781fc7f",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _library_digest(case) -> str:
    fn, *args = case
    return _digest(dumps(fn(*args).to_obj()))


def _cli_digest(argv, capsys) -> str:
    try:
        status = main(list(argv))
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    return _digest(json.dumps([status, captured.out, captured.err]))


@pytest.mark.parametrize("name, case", list(_library_cases().items()))
def test_library_report_bytes(name, case):
    assert _library_digest(case) == GOLDEN[name]


@pytest.mark.parametrize("name, argv", list(CLI_CASES.items()))
def test_cli_output_bytes(name, argv, capsys):
    assert _cli_digest(argv, capsys) == GOLDEN[name]


@pytest.mark.skipif(
    sys.version_info[:2] != ARGPARSE_VERSION,
    reason="argparse lays out help and usage errors differently on other versions",
)
@pytest.mark.parametrize("name, argv", list(ARGPARSE_CASES.items()))
def test_argparse_output_bytes(name, argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _cli_digest(argv, capsys) == GOLDEN[name]

