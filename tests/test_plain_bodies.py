"""`sat3_body("ultimate")` wraps a plain (non-`Bodies`) disjunction in one
`Bodies` per distinct disjunction, kept in a bounded cache, so it builds
the head's kernel once however many pairs ask.  That the wrapped kernel
answers as the member walk does is `tests/test_kernels.py`'s to show."""

import aggsem.eval2 as eval2
import aggsem.ternary as ternary
from aggsem import parse_program
from aggsem.ternary import all_consistent_pairs, sat3_body


def test_equal_plain_disjunctions_share_one_kernel(monkeypatch):
    builds = []
    build = eval2._head_kernel

    def counting_build(bodies, universe):
        builds.append(bodies)
        return build(bodies, universe)

    monkeypatch.setattr(eval2, "_head_kernel", counting_build)
    program = parse_program("p :- q, not r.  p :- sum{1:q, 2:r} >= 2.  q :- not p.  r :- q.")
    try:
        ternary._plain_bodies.cache_clear()
        for pair in all_consistent_pairs(program.universe):
            for _, bodies in program.entries:
                sat3_body("ultimate", [list(body) for body in bodies], pair)
                for body in bodies:  # element-wise relations leave the cache alone
                    sat3_body("ult", list(body), pair)
        assert sorted(map(str, builds)) == sorted(str(bodies) for _, bodies in program.entries)
        assert ternary._plain_bodies.cache_info().currsize == len(program.entries)
    finally:
        ternary._plain_bodies.cache_clear()
