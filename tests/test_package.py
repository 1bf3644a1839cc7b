import subprocess
import sys
from pathlib import Path

import pytest

import mkg
from mkg import (Coloring, ConjectureReport, EdgeColoringResult,
                 ExtremalCertificate, ScanError, build_matching_kneser, cycle)
from mkg.verifier import skipped_report


def test_all_names_resolve_once():
    # a name left in __all__ after its definition is gone makes
    # "from mkg import *" raise AttributeError
    assert len(mkg.__all__) == len(set(mkg.__all__))
    scope = {}
    exec("from mkg import *", scope)
    assert set(mkg.__all__) <= scope.keys()


def test_import_loads_no_dataclasses_or_inspect():
    # each process pays for what importing mkg loads; dataclasses alone
    # pulls in inspect, ast, dis and tokenize.  -S keeps site from
    # loading anything first, so what is loaded came from mkg
    root = str(Path(mkg.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import mkg.verifier; "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    out = subprocess.run([sys.executable, "-S", "-c", code, root],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("record", [
    Coloring((0, 1), 2),
    ExtremalCertificate(frozenset({0}), 1, 2),
    build_matching_kneser(cycle(4), 2),
    EdgeColoringResult(3, (0, 1, 2), "one"),
    skipped_report(cycle(5)),
    ScanError(1, "bad byte"),
], ids=lambda rec: type(rec).__name__)
def test_records_are_immutable(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    assert type(record)(*record) == record
