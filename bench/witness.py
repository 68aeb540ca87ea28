"""Local check of a lax labelling as a certificate of a true lax verdict.

A labelling assigns a world set to every occurrence of the formula.  It
certifies that team T satisfies the formula under lax semantics when

* the root label equals T;
* every literal label satisfies its literal (so ``maxsub`` leaves it fixed);
* a conjunction's children carry the conjunction's label;
* a disjunction's label is the union of its children's labels;
* a diamond's child label is a covering successor team of the diamond's label
  (every labelled world has a successor in it, every world in it has a
  labelled predecessor);
* a box's child label is the image of the box's label.

By induction on the formula every occurrence's label satisfies its
subformula, so T satisfies the whole formula.  Each condition is checked
here from the model's relation and valuation, without calling the checker.
"""

from __future__ import annotations


def _children(node):
    for name in ("left", "right", "child"):
        child = getattr(node, name, None)
        if child is not None:
            yield child


def _literal_holds(model, kind, node, label) -> bool:
    if kind == "Atom":
        return label <= model.valuation[node.name]
    if kind == "NegAtom":
        return not (label & model.valuation[node.name])
    lhs = [model.valuation[p.name] for p in node.lhs]
    rhs = [model.valuation[q.name] for q in node.rhs]
    realized = {tuple(w in s for s in rhs) for w in label}
    return all(tuple(w in s for s in lhs) in realized for w in label)


def check_lax_witness(model, team, formula, labels) -> str | None:
    """None when ``labels`` (occurrence id -> world set) certifies that
    ``team`` satisfies ``formula`` laxly in ``model``; otherwise a message
    naming the first violated condition."""
    if labels.get(formula.oid) != frozenset(team):
        return "root label differs from the team"
    stack = [formula]
    while stack:
        node = stack.pop()
        kind = type(node).__name__
        label = labels[node.oid]
        if kind in ("Atom", "NegAtom", "Inclusion"):
            if not _literal_holds(model, kind, node, label):
                return f"literal occurrence {node.oid} is not fixed by maxsub"
            continue
        kids = list(_children(node))
        stack.extend(kids)
        got = [labels[c.oid] for c in kids]
        if kind == "And":
            if got[0] != label or got[1] != label:
                return f"conjunction {node.oid} does not pass its label down"
        elif kind == "Or":
            if got[0] | got[1] != label:
                return f"disjunction {node.oid} is not the union of its parts"
        elif kind == "Diamond":
            child = got[0]
            if not all(model.succ[w] & child for w in label):
                return f"diamond {node.oid}: a world has no successor in the child team"
            if not all(model.pred[v] & label for v in child):
                return f"diamond {node.oid}: a child world has no labelled predecessor"
        elif kind == "Box":
            image = set()
            for w in label:
                image |= model.succ[w]
            if got[0] != image:
                return f"box {node.oid}: child label is not the image"
        else:
            return f"unknown occurrence kind {kind}"
    return None
