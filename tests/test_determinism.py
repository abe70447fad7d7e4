"""Report bytes and window table order do not depend on PYTHONHASHSEED."""

import os
import re
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# Builds the chain, diamond and merge fixtures and prints the concatenated
# canonical report bytes.  The diamond round trips run in debug mode, so they
# walk every decoration the context keys by hashed (operation, surfaces)
# tuples; the conjugated surface round trip and its transformation build
# colimits that do not collapse and mediate between them; the merge adjunction
# runs iota, whose inner cells are joined through dicts keyed by operations;
# the merge audit numbers the window's verticals, operations and cells, and
# walks its binary cells on those numbers; the chain window with one leg
# replaced by a vertical with the wrong endpoints fails rows, and its
# witnesses are the same under both seeds.  The operad audits of the diamond
# region fragment and of a twist operad whose composite of bt falls outside
# the window walk numbered tables, and number composites outside the window
# as they meet them; the twist audit fails its equivariance row.  Last come
# the rows of the merge window's vertical composition tables, in row order,
# which its groupoids fill by looking up cells numbered by integer keys.
AUDIT = """
import sys
from causalops.bordism import bordism_fragment, truncate_bordisms
from causalops.operad_kernel import check_operad_axioms
from causalops.pseudo_operad import check_pseudo_operad, check_two_adjunction
from causalops.qft_models import Monoid, constant_aqft, constant_fqft
from causalops.translate import (
    chain_translation_context,
    diamond_translation_context,
    roundtrip_aqft,
    roundtrip_fqft,
    validate_translation_context,
)
from test_bordism import chain_bordism, merge_bordism
from test_operad_kernel import BT, UC, Operation, twist_operad
from test_translate import conjugated_model

ctx = chain_translation_context()
diamond = diamond_translation_context()
merge = bordism_fragment([merge_bordism()], depth=1, max_ops=128, max_cells=8192)
broken = bordism_fragment([chain_bordism("a", "b", "c")], depth=1)
cell, legs = broken.all_cells(1)[0], broken.objects.morphisms
start = broken.op_inputs[broken.op_groupoids[1].src(cell)][0]
broken.cell_inputs[cell] = (next(g for g in legs if broken.objects.src(g) != start),)
conjugated, translated, alpha = conjugated_model()
reports = [
    validate_translation_context(ctx),
    roundtrip_aqft(constant_aqft(ctx.aqft_fragment, Monoid.cyclic(2)), ctx),
    check_operad_axioms(ctx.bordism_fragment),
    check_pseudo_operad(bordism_fragment([chain_bordism("a", "b", "c")], depth=1)),
    validate_translation_context(diamond),
    roundtrip_aqft(constant_aqft(diamond.aqft_fragment, Monoid.cyclic(3)),
                   diamond, debug=True),
    roundtrip_fqft(constant_fqft(diamond.bordism_fragment, Monoid.cyclic(2)),
                   diamond, debug=True),
    roundtrip_fqft(conjugated, diamond, debug=True, transformation=(
        translated, {c: h.inverse() for c, h in alpha.items()})),
    check_pseudo_operad(merge),
    check_two_adjunction(truncate_bordisms(merge), merge),
    check_pseudo_operad(broken),
    check_operad_axioms(diamond.aqft_fragment),
    check_operad_axioms(twist_operad(table={(UC, (BT,)): Operation("bt2", ("e", "d"), "c")})),
]
sys.stdout.write("".join(r.dumps() for r in reports))
for G in (merge.objects, *merge.op_groupoids.values()):
    sys.stdout.write("".join(" ".join(f"{g}:{gf}" for g, gf in row.items()) + "\\n"
                             for row in G.table()))
"""

# Builds the window of two crossing surfaces of one 4-event poset (50
# operations, 5,000 cells) and prints the keys of its tables, in table order.
# Their order follows the window's own construction: a table sorted by the
# text of its tuple keys would print frozenset surfaces in hash order, which
# seeds 0 and 1 happen to agree on and seed 2 does not.
WINDOW_KEYS = """
import sys
from causalops.bordism import PointedObject, bordism_fragment
from causalops.causal_core import CausalSet
from test_bordism import _key_text

M = CausalSet("abcd", [("a", "c"), ("b", "d")])
window = bordism_fragment([PointedObject(M, {"a", "d"}), PointedObject(M, {"b", "c"})],
                          depth=1, max_cells=8192)
for name in ("compose_ops", "compose_cells", "associators", "left_unitors",
             "right_unitors", "unit_ops", "unit_cells", "act_ops", "act_cells"):
    sys.stdout.write("".join(f"{name}\\t{_key_text(key)}\\n" for key in getattr(window, name)))
"""

# Builds the translation window of the crown (a, b below c, d) with every
# event name followed by a suffix, and prints its colors, then each class
# with its representative and its members in text order.  The suffix keeps
# the order of every pair of texts, so stripping it from the output must
# give the unsuffixed window, while the names hash differently.
CROWN_WINDOW = """
import sys
from causalops.translate import translation_window
from test_translate import small_fragment

events = [e + {suffix!r} for e in "abcd"]
a, b, c, d = events
window = translation_window(small_fragment(events, [(a, c), (a, d), (b, c), (b, d)], events))
lines = [f"color\\t{{color}}" for color in window.colors]
for cls in window.operations:
    lines.append(f"class\\t{{cls}}\\t{{cls.rep}}")
    lines += [f"member\\t{{m}}" for m in sorted(map(str, cls.members))]
sys.stdout.write("".join(line + "\\n" for line in lines))
"""


def _stdout(script: str, hash_seed: str) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join((str(SRC), str(TESTS))))
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=TESTS,
                          capture_output=True, check=True, timeout=300)
    return done.stdout


def test_reports_are_identical_under_two_hash_seeds():
    first = _stdout(AUDIT, "0")
    assert first
    assert _stdout(AUDIT, "1") == first


def test_window_table_order_is_identical_under_four_hash_seeds():
    first = _stdout(WINDOW_KEYS, "0")
    assert first.count(b"\n") == 10_140
    for seed in ("1", "2", "3"):
        assert _stdout(WINDOW_KEYS, seed) == first, seed


def test_crown_window_is_identical_under_hash_seeds_and_a_renaming():
    first = _stdout(CROWN_WINDOW.format(suffix=""), "0")
    assert first.count(b"class\t") == 47
    for seed in ("1", "2", "3"):
        assert _stdout(CROWN_WINDOW.format(suffix=""), seed) == first, seed
    renamed = _stdout(CROWN_WINDOW.format(suffix="0"), "0")
    assert renamed != first
    assert re.sub(rb"([abcd])0", rb"\1", renamed) == first
