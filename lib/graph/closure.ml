(** Transitive closure of directed graphs.

    [compute] is the one materializing closure: Tarjan condensation,
    then one bottom-up pass over the component DAG unioning descendant
    bit-sets, then the component rows expanded to node granularity, one
    row per component that all its members share.  Ontology hierarchies
    are mostly DAGs with a few equivalence cycles, where this beats
    per-node search and Warshall by a wide margin (ablation [A1]; both
    survive as test oracles).  The component pass is level-scheduled and
    the expansion is a [Parallel.Pool.parallel_for] loop, so the same
    code runs across a domain pool or inline ([A8]); every row is a pure
    function of the input graph and lands in its own slot, so the
    closure is bit-for-bit the same at every pool width.

    The [On_demand] module does no precomputation at all: it memoizes
    one per-source DFS row per distinct source queried, for workloads
    that only ask a few reachability questions.

    Closures are *reflexive*: every node reaches itself.  This matches
    the logical reading ([T |= S ⊑ S] always holds). *)

(** Materialized closure: [rows.(v)] is the reflexive descendant set of
    node [v], physically shared by every member of [v]'s component. *)
type t = {
  size : int;
  rows : Bitvec.t array;
}

let size t = t.size

(** [reaches t u v] is [true] iff [v] is a (reflexive) descendant of [u]. *)
let reaches t u v =
  if u < 0 || u >= t.size || v < 0 || v >= t.size then
    invalid_arg "Closure.reaches";
  Bitvec.get t.rows.(u) v

(** [descendants t v] is the reflexive descendant set of [v] — shared
    with the other members of [v]'s component, do not mutate. *)
let descendants t v =
  if v < 0 || v >= t.size then invalid_arg "Closure.descendants";
  t.rows.(v)

(** [ancestors t v] is the freshly computed reflexive ancestor set of [v]
    (the column of the closure matrix). *)
let ancestors t v =
  if v < 0 || v >= t.size then invalid_arg "Closure.ancestors";
  let col = Bitvec.create t.size in
  for u = 0 to t.size - 1 do
    if Bitvec.get t.rows.(u) v then Bitvec.set col u
  done;
  col

(** [compute ?pool g] materializes the reflexive transitive closure of
    [g], on [pool] when given and inline otherwise. *)
let compute ?pool g =
  let pool = match pool with Some p -> p | None -> Parallel.Pool.global ~jobs:1 () in
  let n = Graph.node_count g in
  let r = Scc.tarjan g in
  let dag = Scc.condensation g r in
  let nc = r.Scc.count in
  (* Tarjan ids are in reverse topological order, which makes the
     bottom-up pass an exact dependency chain; level scheduling recovers
     independence: [level.(c)] is the longest path from [c] to a sink,
     so every successor of [c] sits at a strictly lower level and its
     row is complete before level [level.(c)] starts.  Within a level no
     two components touch the same row. *)
  let level = Array.make nc 0 in
  let max_level = ref 0 in
  for c = 0 to nc - 1 do
    List.iter
      (fun c' -> if level.(c') + 1 > level.(c) then level.(c) <- level.(c') + 1)
      (Graph.successors dag c);
    if level.(c) > !max_level then max_level := level.(c)
  done;
  let buckets = Array.make (!max_level + 1) [] in
  for c = nc - 1 downto 0 do
    buckets.(level.(c)) <- c :: buckets.(level.(c))
  done;
  let comp_rows = Array.init nc (fun _ -> Bitvec.create nc) in
  Array.iter
    (fun bucket ->
      let bucket = Array.of_list bucket in
      Parallel.Pool.parallel_for pool ~n:(Array.length bucket) (fun i ->
          let c = bucket.(i) in
          Bitvec.set comp_rows.(c) c;
          List.iter
            (fun c' ->
              ignore (Bitvec.union_into ~src:comp_rows.(c') ~dst:comp_rows.(c)))
            (Graph.successors dag c)))
    buckets;
  (* Expand component reachability back to node granularity, one task
     per component; the members of a component share its row. *)
  let comp_node_rows = Array.make nc (Bitvec.create 0) in
  Parallel.Pool.parallel_for pool ~n:nc (fun c ->
      let row = Bitvec.create n in
      Bitvec.iter_set comp_rows.(c) (fun c' ->
          List.iter (fun v -> Bitvec.set row v) r.Scc.members.(c'));
      comp_node_rows.(c) <- row);
  { size = n; rows = Array.init n (fun v -> comp_node_rows.(r.Scc.component.(v))) }

(** Memoized on-demand reachability: computes and caches one DFS row per
    distinct source actually queried. *)
module On_demand = struct
  type nonrec t = {
    graph : Graph.t;
    cache : (int, Bitvec.t) Hashtbl.t;
  }

  (** [create g] wraps [g]; [g] must not be mutated afterwards. *)
  let create graph = { graph; cache = Hashtbl.create 64 }

  (** [row t v] is the (cached) reflexive descendant set of [v]. *)
  let row t v =
    match Hashtbl.find_opt t.cache v with
    | Some r -> r
    | None ->
      let r = Graph.reachable_from t.graph v in
      Hashtbl.add t.cache v r;
      r

  (** [reaches t u v] is reflexive reachability, computed lazily. *)
  let reaches t u v = Bitvec.get (row t u) v
end
