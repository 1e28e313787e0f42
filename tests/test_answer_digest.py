import importlib.util
import time
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "answer_digest.py"

# tools/answer_digest.py --small: the digest of the small sets, pinned when
# the tool was added and unchanged by any change that keeps the answers.
SMALL_DIGEST = {
    "bounds": {
        "answers": 261,
        "sha256": "bfe22d5a8125a09236e30c885c14a55fc78cafc3914563271c1814696ba1ce98",
    },
    "levels": {
        "answers": 962,
        "sha256": "4257228ee7d4919b983cfa6da067f16d249d58f75bd72a0741f96805e3ae10a7",
    },
    "windows": {
        "answers": 436,
        "sha256": "613fc9e4d826e086080512c06b5612299e7f27ea265c4a2719b0f836ea6a59d9",
    },
}


def load_tool():
    spec = importlib.util.spec_from_file_location("answer_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_small_answer_digest_is_pinned():
    tool = load_tool()
    start = time.perf_counter()
    assert tool.digest(tool.SMALL) == SMALL_DIGEST
    assert time.perf_counter() - start < 2


def test_answer_lines_name_the_query():
    # A refusal is an answer too, hashed by its exception's type name.
    tool = load_tool()
    assert tool._answer(tool.size_bound, -1, tool.Antichain()) == "ValueError"
    assert next(tool.bounds(tool.SMALL)) == "size_bound 0 antichain -> 1 (0,) dp"
