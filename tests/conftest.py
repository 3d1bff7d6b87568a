import pathlib

import pytest
from hypothesis import settings

from granulens import load_table

# selected in CI with --hypothesis-profile=ci: a failing example prints the
# @reproduce_failure blob that replays it on another machine
settings.register_profile("ci", print_blob=True)

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"

TOY8_CSV = (
    "a1,a2,d\n"
    "P,0.5,0\n"
    "P,1.5,0\n"
    "Q,2.5,0\n"
    "Q,3.5,1\n"
    "R,4.5,1\n"
    "R,5.5,1\n"
    "R,6.5,1\n"
    "R,7.5,1\n"
)


@pytest.fixture
def toy8_csv():
    return TOY8_CSV


@pytest.fixture
def toy8():
    return load_table(TOY8_CSV, "d", table_id="toy8")


@pytest.fixture
def titanic_path():
    return DATA_DIR / "titanic_synthetic.csv"


@pytest.fixture
def titanic():
    path = DATA_DIR / "titanic_synthetic.csv"
    return load_table(path.read_bytes(), "Survived", table_id=path.name)
