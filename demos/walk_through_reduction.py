"""Walk through a strip reduction step by step.

Reduces the 7-vertex straight strip between its endpoints and narrates
every transformation: which triangle collapses, what the star weights
are, and how the Fibonacci pattern shows up in each one. Ends by
replaying the trace to confirm it reconstructs the same answer.
"""

from twotree.engine import reduce_straight, replay_trace
from twotree.formulas import sbt
from twotree.graphs import format_resistance


def describe(step, index):
    kind = step.kind
    if kind == "delta-y":
        n1, n2, n3, star = step.vertices
        sides = ", ".join(
            f"{{{u},{v}}}={format_resistance(r)}" for u, v, r in step.consumed
        )
        arms = ", ".join(
            f"{{{u},{v}}}={format_resistance(r)}" for u, v, r in step.produced
        )
        return (
            f"{index:2d}. triangle ({n3},{n2},{n1}) -> star at {star}\n"
            f"      consumed {sides}\n"
            f"      produced {arms}"
        )
    if kind == "series":
        u, mid, v = step.vertices
        r = step.produced[0][2]
        return f"{index:2d}. series through {mid}: new edge {{{u},{v}}} = {format_resistance(r)}"
    if kind == "parallel":
        u, v = step.vertices
        r = step.produced[0][2]
        return f"{index:2d}. parallel edges {{{u},{v}}} combine to {format_resistance(r)}"
    if kind == "merge-rename":
        old, new = step.vertices
        return f"{index:2d}. star {old} takes over the name {new}"
    old, keep = step.vertices[0], step.vertices[1]
    return f"{index:2d}. cut at {old}, keeping the side of {keep}"


def main():
    n = 7
    report = reduce_straight(n, 1, n)
    trace = report.trace

    print(f"reducing the straight strip on {n} vertices, terminals 1 and {n}")
    print(f"initial edges: {len(trace.initial.edges)}")
    print()
    for i, step in enumerate(trace.steps, start=1):
        print(describe(step, i))
    print()

    # the p-th star should carry the closed-form weights
    print("star weights against the closed forms:")
    dy = [s for s in trace.steps if s.kind == "delta-y"]
    for p, step in enumerate(dy, start=1):
        s_p, b_p, t_p = sbt(p, 0)
        got = sorted(r for _, _, r in step.produced)
        want = sorted([s_p, b_p, t_p])
        flag = "ok" if got == want else "MISMATCH"
        print(
            f"  p={p}: s={format_resistance(s_p)} "
            f"b={format_resistance(b_p)} t={format_resistance(t_p)}  {flag}"
        )
    print()

    final = replay_trace(trace)
    u, v, r = final.edges[0]
    print(f"replay rebuilt the single edge {{{u},{v}}} = {format_resistance(r)}")
    print(f"r(1,{n}) = {format_resistance(report.value)}")


if __name__ == "__main__":
    main()
