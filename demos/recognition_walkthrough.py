"""Walkthrough: deciding 2-choosability three independent ways.

Builds a few structured graphs, peels them to their cores, classifies the
components, and cross-checks the verdict against the contraction pipeline
and (for small graphs) the exhaustive list-assignment oracle.
"""

from choosability import (classify_core, is_2_choosable, is_2_choosable_via_preprocessing,
                          is_k_choosable_exhaustive, preprocess)
from choosability.generators import gen_cycle, gen_theta


def show(name, g):
    verdicts = classify_core(g)
    core_n = sum(len(v.vertices) for v in verdicts)
    fast, witness = is_2_choosable(g)
    pipeline = is_2_choosable_via_preprocessing(g)
    print("%-18s n=%-3d core=%-3d components=%-28s 2-choosable=%s (pipeline %s)"
          % (name, g.n, core_n,
             ",".join("%s%s" % (v.kind, "" if v.m is None else "(m=%d)" % v.m)
                      for v in verdicts),
             fast, pipeline))
    if witness is not None:
        print("%18s offending core component: %s" % ("", witness))
    if g.n <= 6:
        oracle, bad = is_k_choosable_exhaustive(g, 2)
        print("%18s oracle agrees: %s" % ("", oracle == fast))


def main():
    show("C6", gen_cycle(6))
    show("C5", gen_cycle(5))
    show("theta(2,2,4)", gen_theta(2, 2, 4))
    show("theta(3,3,3)", gen_theta(3, 3, 3))

    print("\nContraction pipeline on theta(2,2,8):")
    work, ids = preprocess(gen_theta(2, 2, 8))
    provenance = [work.provenance[v] for v in ids]
    print("  contracted to %d vertices, counts %s, provenance %s"
          % (len(ids), [len(p) for p in provenance], provenance))


if __name__ == "__main__":
    main()
