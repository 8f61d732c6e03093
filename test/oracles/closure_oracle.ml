(** Reference transitive closures, kept as oracles for
    [Graphlib.Closure.compute] (and as the [dfs]/[warshall] columns of
    ablation A1).  Each returns one reflexive descendant row per node:
    [rows.(v)] holds every node reachable from [v], [v] included.

    - [dfs]: one search per node, O(V * E).
    - [warshall]: bit-parallel Warshall, O(V^3 / word); hopeless at FMA
      scale. *)

open Graphlib

let dfs g = Array.init (Graph.node_count g) (fun v -> Graph.reachable_from g v)

let warshall g =
  let n = Graph.node_count g in
  let rows = Array.init n (fun _ -> Bitvec.create n) in
  for v = 0 to n - 1 do
    Bitvec.set rows.(v) v;
    List.iter (fun w -> Bitvec.set rows.(v) w) (Graph.successors g v)
  done;
  (* rows.(i) |= rows.(k) whenever i reaches k *)
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if i <> k && Bitvec.get rows.(i) k then
        ignore (Bitvec.union_into ~src:rows.(k) ~dst:rows.(i))
    done
  done;
  rows

(** [rows c] are the rows of a materialized closure. *)
let rows c = Array.init (Closure.size c) (Closure.descendants c)

(** [equal a b] is row-for-row equality. *)
let equal a b = Array.length a = Array.length b && Array.for_all2 Bitvec.equal a b
