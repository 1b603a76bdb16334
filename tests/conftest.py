from __future__ import annotations

import sys
from pathlib import Path

import pytest

import kgraphs as kg

TESTS_DIR = Path(__file__).resolve().parent
INSTANCES = TESTS_DIR.parent / "instances"
sys.path.insert(0, str(TESTS_DIR))


def instance_path(name: str) -> Path:
    return INSTANCES / f"instance_{name}.json"


def line_document(n: int) -> dict:
    """The rank-1 line v0 <- v1 <- ... <- vn (edge e_i has range v_{i-1})."""
    return {
        "rank": 1,
        "vertices": [{"id": f"v{i}"} for i in range(n + 1)],
        "edges": [
            {"id": f"e{i}", "color": 1, "range": f"v{i - 1}", "source": f"v{i}"}
            for i in range(1, n + 1)
        ],
        "squares": [],
    }


def one_cycling_colour_document() -> dict:
    """Blue loops bu at u and bv at v, a red edge r from v to u, and bu.r = r.bv.

    Only colour 1 cycles; u receives both colours and v only blue.
    """
    return {
        "rank": 2,
        "vertices": [{"id": "u"}, {"id": "v"}],
        "edges": [
            {"id": "bu", "color": 1, "range": "u", "source": "u"},
            {"id": "bv", "color": 1, "range": "v", "source": "v"},
            {"id": "r", "color": 2, "range": "u", "source": "v"},
        ],
        "squares": [{"first": "bu", "second": "r", "swapped_first": "r", "swapped_second": "bv"}],
    }


def load_instance(name: str) -> kg.Skeleton:
    return kg.load_skeleton(instance_path(name).read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def instance_a() -> kg.Skeleton:
    return load_instance("a")


@pytest.fixture(scope="session")
def instance_b() -> kg.Skeleton:
    return load_instance("b")


@pytest.fixture(scope="session")
def instance_c() -> kg.Skeleton:
    return load_instance("c")


@pytest.fixture(scope="session")
def instance_d() -> kg.Skeleton:
    return load_instance("d")


@pytest.fixture(scope="session")
def instance_e() -> kg.Skeleton:
    return load_instance("e")


@pytest.fixture(scope="session")
def edgeless() -> kg.Skeleton:
    return kg.load_skeleton(
        {"rank": 1, "vertices": [{"id": "u"}], "edges": [], "squares": []}
    )
