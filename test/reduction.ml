(** Transitive reduction of a DAG: the minimal edge set with the same
    reachability relation (the Hasse diagram of the subsumption order).

    The reference implementation [Quonto.Taxonomy.build] is tested
    against: collapse the name graph's SCCs, close the condensation and
    keep the edges no intermediate node covers.  Cost O(Σ|desc|²), so it
    lives with the tests. *)

open Graphlib

(** [reduce_dag closure] — given a *materialized reflexive closure* of a
    DAG over [n] nodes, return the direct-edge list of its transitive
    reduction: [(u, v)] is kept iff [u] reaches [v], [u <> v], and no
    intermediate [w] has [u -> w -> v].

    For a DAG the transitive reduction is unique.  Cost O(V * E_closure)
    with bit-set rows. *)
let reduce_dag closure =
  let n = Closure.size closure in
  let edges = ref [] in
  for u = 0 to n - 1 do
    let desc_u = Closure.descendants closure u in
    Bitvec.iter_set desc_u (fun v ->
        if u <> v then begin
          (* v is direct iff no w with u->w->v, w not in {u, v} *)
          let direct = ref true in
          Bitvec.iter_set desc_u (fun w ->
              if !direct && w <> u && w <> v && Closure.reaches closure w v then
                direct := false);
          if !direct then edges := (u, v) :: !edges
        end)
  done;
  List.rev !edges

(** [reduce g] — transitive reduction of an arbitrary digraph, returned
    as (components, component-level direct edges):

    - [components.(c)] lists the original nodes of SCC [c] (mutually
      reachable nodes are order-equivalent and collapse);
    - the edge list is the unique transitive reduction of the
      condensation DAG. *)
let reduce g =
  let scc = Scc.tarjan g in
  let dag = Scc.condensation g scc in
  let closure = Closure.compute dag in
  let edges = reduce_dag closure in
  (scc, edges)
