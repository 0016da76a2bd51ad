"""Walkthrough: the two hardness constructions and the deletion heuristic.

Takes a tiny formula through both reductions, derives validated solutions
from a satisfying assignment, and compares the greedy deletion heuristic
against the exact solver on a random graph.
"""

from choosability import (CnfFormula, approx_2_del, build_G_phi_p, build_H_phi,
                          constraint_graph_P, decomposition_from_assignment,
                          deletion_set_from_assignment,
                          diameter, is_2_choosable, is_triangle_free,
                          min_2_del_exact, verify_lemma_2_2)
from choosability.generators import gen_gnp


def main():
    report = verify_lemma_2_2(constraint_graph_P())
    print("constraint graph checks pass:", report["ok"])

    phi = CnfFormula(3, [(1, 2, -3)])
    art = build_H_phi(phi)
    print("\nsatisfiability graph: n=%d, triangle-free=%s, diameter=%d"
          % (art.graph.n, is_triangle_free(art.graph)[0], diameter(art.graph)))
    decomp = decomposition_from_assignment(art, (True, False, False))
    print("decomposition from x1=1 x2=0 x3=0: |A|=%d |B|=%d (validated)"
          % (len(decomp.a), len(decomp.b)))

    gadget_graph = build_G_phi_p(phi, p=2)
    print("\ngadget graph at p=2: n=%d (< %d)" % (gadget_graph.graph.n, 2 * 280))
    a = deletion_set_from_assignment(gadget_graph, (True, False, False))
    print("independent deletion set from the same assignment: |A|=%d" % len(a))

    g = gen_gnp(12, 0.25, seed=42)
    heuristic = approx_2_del(g)
    opt, exact = min_2_del_exact(g)
    ok, _ = is_2_choosable(g, set(range(g.n)) - set(heuristic))
    print("\nrandom graph n=12: heuristic deletes %d (valid=%s), optimum %d"
          % (len(heuristic), ok, opt))


if __name__ == "__main__":
    main()
