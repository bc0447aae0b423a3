"""Every byte the CLI shows for fifteen commands, pinned by sha256.

Each entry of ``COMMANDS`` runs its commands in process through
``cli_main``, in an empty directory and with ``UCADIV_OUTDIR`` unset, so
every path a command prints is relative; a configuration the entry gives
is written there first as ``run.json``.  ``GOLDEN`` holds, per entry, the
exit codes and the sha256 of stdout, of stderr and of each file written.
Running in process keeps the entries cheap and lets ``tests/mutants.py``
reach the code they run.

The digests hold for this build: numpy 2.4.6 on OpenBLAS 0.3.31, like
``test_stream_contract.py``.  Another numpy, BLAS or CPU kernel may round
differently; re-pin only after the kernel-versus-reference tests pass on
that build.  A change that moves bytes on purpose runs

    PYTHONPATH=src python -m pytest tests/test_golden.py -vv

whose failures print each moved entry's new pins (a new entry's in full,
against None), copies them into ``GOLDEN``, and names each entry in
CHANGES.md with the reason.
"""

import hashlib

import pytest

from ucadiv.cli import OUTDIR_ENV, cli_main

# name: (run.json's text or None, the commands run in order)
COMMANDS = {
    "sweep": (None, [["sweep"]]),
    "sweep-uncoupled": ('{"coupling": false}',
                        [["sweep", "--config", "run.json"]]),
    "capacity-workers": (None, [["capacity", "--realizations", "1000",
                                 "--workers", "2"]]),
    "sweep-n16-workers": ('{"n_antennas": 16}',
                          [["sweep", "--config", "run.json", "--workers", "2",
                            "--realizations", "1000"]]),
    "modes-table1": (None, [["modes", "--fixture", "table1"]]),
    "match-table1": (None, [["match", "--fixture", "table1"]]),
    "match-w0.5": ('{"relative_bandwidth": 0.5}',
                   [["match", "--config", "run.json"]]),
    "match-w1.5": ('{"relative_bandwidth": 1.5}',
                   [["match", "--config", "run.json"]]),
    "fixture-fit": (None, [["fixture", "--n", "4"],
                           ["fit", "fixture_n4_d0.25.csv"]]),
    # T_r > 0, so that the reverse noise's Gamma^2 reaches a printed byte
    "sweep-temp-reverse": ('{"temp_reverse": 0.5}',
                           [["sweep", "--config", "run.json"]]),
    # 100 samples at p = 0.01: the interval's lower rank is 1
    "capacity-rank1": (None, [["capacity", "--realizations", "100"]]),
    "refused-repeated-key": ('{"seed": 1, "seed": 2}',
                             [["sweep", "--config", "run.json"]]),
    "refused-unknown-key": ('{"frobnicate": 1}',
                            [["sweep", "--config", "run.json"]]),
    "refused-empty-spacings": ('{"spacings": []}',
                               [["sweep", "--config", "run.json"]]),
}

GOLDEN = {'sweep': {'exit': [0],
           'stdout': '316c06df1d8e77bfb19f6bbf285ab0719c9946b9bf2272e3ce1997a17fc07178',
           'stderr': '69c69d8e5a96ec58b9b602404d251e32406f1a9941060eb55bf914bfcb345468',
           'files': {'sweep.csv': '70921f4809d5cbbf55b83104b179d0ee5096fbea640448fcd6b5a288d26852ef',
                     'sweep.json': 'c72c768f8a95538beb54daf5c4e788b757fe713cd1430fe4651b783daa200bb1'}},
 'sweep-uncoupled': {'exit': [0],
                     'stdout': '57e875fd5058eab587040d7c0df52e294e5fd65d6f66d352a70a2edfa193ba85',
                     'stderr': '69c69d8e5a96ec58b9b602404d251e32406f1a9941060eb55bf914bfcb345468',
                     'files': {'sweep.csv': '944e9b988785d08c0bdbf092263ee3385115d66b28a67bdc4de6d2354c30ce5e',
                               'sweep.json': '5fef3d16cc9aa24b8f34940641dd9e16015e1cdeb1b660427289d11ac4af1210'}},
 'capacity-workers': {'exit': [0],
                      'stdout': 'f7b849d109428b561e9a0e29d199999b63d0e785e33e8b1d043e99571c82ffd3',
                      'stderr': '84699437c840ddcc5f9c746752f478390dea01594461f6311cd0e711e306473a',
                      'files': {'capacity.csv': 'f27629e6346257663fb5668cfda819abdd68f3826eb66874e167d1c2541db683',
                                'capacity.json': '4b8ed7a5303f5f2f9dc51a68efe1dedb5a1546f60b0debee174f839eac0bbc30'}},
 'sweep-n16-workers': {'exit': [0],
                       'stdout': 'f63d68821dd06ff5ec0f2d2297f7ddafa8ed659539a93acf6551495ec0d38ed5',
                       'stderr': '84699437c840ddcc5f9c746752f478390dea01594461f6311cd0e711e306473a',
                       'files': {'sweep.csv': 'bdbc17f9816836f0d4fe949dc33d8b0f211d2b260ce2eae2e2f1f98322235543',
                                 'sweep.json': '318f2e678d22ef8dc7ff2ec50afe49cc13fcfbe498d6bb30ef72e829879b86da'}},
 'modes-table1': {'exit': [0],
                  'stdout': '5002230ed5e225a87faab7b3d496b2a26770312a1ea03f3ac0ae3496629b16d8',
                  'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                  'files': {}},
 'match-table1': {'exit': [0],
                  'stdout': 'b23a08ecfba8104ef4101e26fee03ab94b9ca825e1fa0deb1c6210245d8d3b2f',
                  'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                  'files': {}},
 'match-w0.5': {'exit': [0],
                'stdout': '740788d11737738cab33323afebf5484a46010950a75a2b40629590ed2e3e571',
                'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                'files': {}},
 'match-w1.5': {'exit': [0],
                'stdout': '8264fa13799f55fd17c542520b0bec6d0a6fdfa6ca85087951ce598a04d512c8',
                'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                'files': {}},
 'fixture-fit': {'exit': [0, 0],
                 'stdout': 'b00c393591fc681612be6add06472152e5389ba39d928ad1f2aa6575f58f1198',
                 'stderr': '2d774e6d1cdccfc378e548424397946dc52c215d5d2be660185f1ef2779bb6fc',
                 'files': {'fixture_n4_d0.25.csv': 'e4a3c49d93085fc61e91979cc2b91faf721180bb58d8a41d0725291e80bbaa20'}},
 'sweep-temp-reverse': {'exit': [0],
                        'stdout': 'f026165daed2b2b7ed60ecb2abb38df9d04a071293c84dc199dd002ade33a2d9',
                        'stderr': '69c69d8e5a96ec58b9b602404d251e32406f1a9941060eb55bf914bfcb345468',
                        'files': {'sweep.csv': 'a4327a8935ebefd0159ab19664ea847ba2bbedfb6dcf0a2def81f09ae4fbf86a',
                                  'sweep.json': '0c4ad1b2e228f61505dd0fd26924a462b455668182e0536900a19b1c216080c3'}},
 'capacity-rank1': {'exit': [0],
                    'stdout': '935310c9e71db571d5e02682b69ab2e4443eee7b81da7b1f8a9c87d2e29e0d4d',
                    'stderr': '9e4c2dab5971400529eb7c4622016df32af4e10f8b47d51494bfbaf7b276a6cc',
                    'files': {'capacity.csv': '1d845d0c4e7647662b10f01c6204db3beac1df697374314194623323723d905f',
                              'capacity.json': 'a80f20170c66d8caad1fef6fb0f32ed15b1b442e46dbd9340eaa54564cdf0e49'}},
 'refused-repeated-key': {'exit': [3],
                          'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                          'stderr': '62d96b089f35a741eab93060d614c0d80c16fe913cd58d880bf1c9630dbc8729',
                          'files': {}},
 'refused-unknown-key': {'exit': [3],
                         'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                         'stderr': 'd42f7c4780ff18fd20f9602e6015bf66418be8944063bd15e80d9d9ceec4166b',
                         'files': {}},
 'refused-empty-spacings': {'exit': [3],
                            'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                            'stderr': '70fd780ff05392ea5df3ffeb3cf89580d49f8134f49fa925989eae6c3f23673d',
                            'files': {}}}



def sha(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", COMMANDS)
def test_cli_keeps_its_bytes(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTDIR_ENV, raising=False)
    config, commands = COMMANDS[name]
    if config is not None:
        (tmp_path / "run.json").write_text(config)
    given = set(tmp_path.iterdir())
    codes = [cli_main(argv) for argv in commands]
    out, err = capsys.readouterr()
    files = {path.name: sha(path.read_bytes())
             for path in sorted(set(tmp_path.iterdir()) - given)}
    assert {"exit": codes, "stdout": sha(out.encode()),
            "stderr": sha(err.encode()), "files": files} == GOLDEN.get(name)
