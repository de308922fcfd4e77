"""Run the geometrical design rules as an executable search.

The restriction stages cut the allowed gate set down to {T, T-dagger} on
octants; an exhaustive search over the surviving configurations then finds
every rotation pattern that realizes a requested Boolean function.  On each
of its four control branches a core acts on the target alone, as one 2x2
block.  Each block factors into the superposition/auxiliary ends and a
rotation middle shared by every configuration with the same four rotations;
the search reads p(target=1) for every configuration off these factors in
one numpy pass, and forms and grades the full blocks of the deterministic
configurations alone, once per process.
"""
from hexsynth.library import THETA_KINDS
from hexsynth.rules import SearchQuery, apply_rules, count_space, search

print("restriction stages:")
for stage in apply_rules():
    print(f"  stage {stage.stage}: gates {{{', '.join(stage.ctg)}}}"
          f"  segments {{{', '.join(stage.seg)}}}")

print()
print("configuration-space sizes:")
print("  restricted (H / I / four octant gates):", count_space(1, 1, 4))
print("  fully permutative:                      ", count_space(3, 9, 4))

print()
print("symmetric octant search for AND (target 0001):")
for hit in search(SearchQuery(target="0001", symmetric=True)):
    d = hit.spec.describe()
    print(f"  theta = {tuple(d['theta'])}   level {hit.level.name}")

print()
print("full quadrant+octant search for NOR (target 1000):")
hits = search(SearchQuery(target="1000", theta_set=THETA_KINDS,
                          ax2_set=("i", "z", "-z")))
print(f"  {len(hits)} configurations found; first three:")
for hit in hits[:3]:
    d = hit.spec.describe()
    print(f"  theta={tuple(d['theta'])} ax2={d['ax2']}   level {hit.level.name}")
