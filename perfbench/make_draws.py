"""Regenerate ``equation_draws.json``, the fixed pool of draws behind the
``equations`` workload.

Draw ``i`` is made from ``random.Random(i)``: an alphabet of two or three
letters, one or two random generators for the algebra B and a random
candidate K, all from ``langrec.campaigns.random_regex``.  A draw is kept
when its joint quotient (``bsum2_quotient``) has at most ``JOINT_CAP``
elements; draws are scanned in order until ``POOL_SIZE`` are kept.  The
file stores each kept draw with its joint size, which the reduced pass
of the smoke test uses to pick small draws, and with the verdict of the direct
closure oracle ``bsum2_membership_direct``, against which the workload
checks the verdicts of ``bsum2_membership_by_equations``.

    python3 perfbench/make_draws.py            # rewrites the stored pool
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import langrec as lr  # noqa: E402
from langrec.campaigns import random_regex  # noqa: E402
from langrec.errors import ResourceLimitError  # noqa: E402
from langrec.regexes import render_regex  # noqa: E402

POOL_FILE = HERE / "equation_draws.json"
# Above 200 elements one decision takes 1.7 to 6.5 s (the signature scan
# is cubic in the joint size, and a 954-element draw takes minutes), and
# draws of equal size differ in cost by up to 1.7 times: a single such
# draw would dominate a round and make its time depend on the seed.
JOINT_CAP = 200
POOL_SIZE = 120


def make_draw(i: int) -> dict:
    rng = random.Random(i)
    letters = "abc"[: rng.choice((2, 2, 3))]
    alph = lr.Alphabet(tuple(letters))
    gens = [render_regex(random_regex(rng, alph, depth=3)) for _ in range(rng.choice((1, 2)))]
    cand = render_regex(random_regex(rng, alph, depth=3))
    return {"draw": i, "letters": letters, "generators": gens, "candidate": cand}


def inputs(d: dict):
    """The candidate K and the algebra B of a draw."""
    alph = lr.Alphabet(tuple(d["letters"]))
    b = lr.generate_algebra([lr.regex_to_dfa(g, alph) for g in d["generators"]], alph)
    return lr.regex_to_dfa(d["candidate"], alph), b


def joint_size(d: dict, cap: int) -> int | None:
    try:
        return lr.bsum2_quotient(*inputs(d), max_size=cap).monoid.size
    except ResourceLimitError:
        return None


def main() -> int:
    pool = []
    over = 0
    i = 0
    started = time.perf_counter()
    while len(pool) < POOL_SIZE:
        d = make_draw(i)
        n = joint_size(d, JOINT_CAP)
        if n is None:
            over += 1
        else:
            d["joint"] = n
            d["direct"] = lr.bsum2_membership_direct(*inputs(d))
            pool.append(d)
        i += 1
    lines = ",\n".join(json.dumps(d, ensure_ascii=False, sort_keys=True) for d in pool)
    POOL_FILE.write_text("[\n" + lines + "\n]\n", encoding="utf-8")
    sizes = sorted(d["joint"] for d in pool)
    print(
        f"kept {len(pool)} of {i} draws ({over} over the cap of {JOINT_CAP}); "
        f"joint sizes {sizes[0]}..{sizes[-1]}, median {sizes[len(sizes) // 2]}; "
        f"{time.perf_counter() - started:.1f} s",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
